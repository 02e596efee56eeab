"""Design a retrofit controller and compare it with a direct design.

Builds an approximate environment model by balanced truncation, designs a
module controller on the rectified plant, composes the retrofit controller,
and contrasts its guaranteed stability with the direct (rectifier-free) use
of the same module controller.
"""

import numpy as np

from retrofit_control import (
    assemble_preexisting,
    balanced_truncate,
    build_network,
    closed_loop_direct,
    compose_retrofit,
    deflated_abscissa,
    direct_controller,
    hinf_synthesize,
    minreal,
    new_subsystem,
    paper_benchmark,
    partition,
    performance_bounds,
)


def main():
    k_c = 10.0
    spec, assign = paper_benchmark(k_c)
    G, env = partition(build_network(spec), spec, assign)
    env_min = minreal(env.sys)

    # Order-8 surrogate of the unknown environment.
    red = balanced_truncate(env_min, 8)
    apx = red.reduced
    print(f"environment: {env_min.n_states} states; surrogate: 8 states, "
          f"truncation bound {red.error_bound:.3f}")

    # Module design on the subsystem closed with the surrogate.
    module, level = hinf_synthesize(new_subsystem(G, apx), alpha=0.2)
    print(f"module controller: {module.n_states} states, "
          f"design level {level:.4f}")

    K = compose_retrofit(G, apx, module)
    report = performance_bounds(G, env_min, apx, module)
    print(f"retrofit closed loop stable: {report.stable}")
    print(f"achieved ||T_zd|| = {report.gamma_actual:.4f} in "
          f"[{report.lower:.4f}, {report.upper:.4f}] "
          f"(assumed {report.gamma_hat:.4f} + gap {report.gamma_check:.4f})")

    # Same module without the rectifier: no guarantee, and here it fails.
    pre = assemble_preexisting(G, env_min)
    direct = closed_loop_direct(G, pre, direct_controller(G, module))
    absc = deflated_abscissa(direct)
    print(f"direct design abscissa: {absc:+.4f} "
          f"({'unstable' if absc >= 0 else 'stable'})")


if __name__ == "__main__":
    main()
