"""Trade-off between environment-model accuracy and achieved performance.

Sweeps the boundary coupling strength and the surrogate model order,
printing the modeling error and the performance-bound gap term.  Stronger
coupling makes the environment harder to ignore; richer surrogates shrink
the gap between assumed and achieved attenuation.
"""

from retrofit_control import (
    StateSpace,
    balanced_truncate,
    build_network,
    hinf_synthesize,
    minreal,
    modeling_error,
    new_subsystem,
    paper_benchmark,
    partition,
    performance_bounds,
)


def main():
    orders = [0, 2, 8]
    print("k_c   " + "".join(f"  err(r={r:>2d})" for r in orders)
          + "".join(f"  gap(r={r:>2d})" for r in orders))
    for k_c in (2.0, 6.0, 10.0):
        spec, assign = paper_benchmark(k_c)
        G, env = partition(build_network(spec), spec, assign)
        env_min = minreal(env.sys)
        errs, gaps = [], []
        for r in orders:
            if r == 0:
                apx = StateSpace.zero(env_min.n_outputs, env_min.n_inputs)
            else:
                apx = balanced_truncate(env_min, r).reduced
            errs.append(modeling_error(env_min, apx))
            module, _ = hinf_synthesize(new_subsystem(G, apx), alpha=0.2)
            gaps.append(performance_bounds(G, env_min, apx, module).gamma_check)
        print(f"{k_c:4.1f}"
              + "".join(f"  {e:9.3f}" for e in errs)
              + "".join(f"  {g:9.4f}" for g in gaps))


if __name__ == "__main__":
    main()
