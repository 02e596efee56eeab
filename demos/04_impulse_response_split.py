"""Impulse response of the retrofit loop, split into its cascade parts.

Simulates a disturbance impulse and shows the evaluation signal decomposing
exactly into the designer-visible upstream component and the modeling-error
induced downstream component: z(t) = z_hat(t) + z_check(t).
"""

import numpy as np

from retrofit_control import (
    EnvironmentModel,
    balanced_truncate,
    build_network,
    cascade_realization,
    hinf_synthesize,
    minreal,
    new_subsystem,
    paper_benchmark,
    partition,
    simulate,
)


def main():
    spec, assign = paper_benchmark(k_c=8.0)
    G, env = partition(build_network(spec), spec, assign)
    env_min = EnvironmentModel(minreal(env.sys))
    apx = EnvironmentModel(balanced_truncate(env_min.sys, 2).reduced)
    module, _ = hinf_synthesize(new_subsystem(G, apx), alpha=0.2)

    casc = cascade_realization(G, env_min, apx, module)
    dt, t_final = 0.02, 30.0
    n_steps = int(round(t_final / dt))
    u = np.zeros((n_steps, casc.n_inputs))
    u[0, 0] = 1.0 / dt

    # The cascade's outputs are (z, z_hat, z_check), one equal block each.
    z, z_hat, z_check = np.split(simulate(casc, u, dt), 3, axis=1)

    split_err = np.abs(z - z_hat - z_check).max()
    print(f"max |z - (z_hat + z_check)| over the run: {split_err:.2e}")
    print(f"peak |z|       = {np.abs(z).max():.4f}")
    print(f"peak |z_hat|   = {np.abs(z_hat).max():.4f}  (designer-visible)")
    print(f"peak |z_check| = {np.abs(z_check).max():.4f}  (modeling-error part)")
    print(f"final |z|      = {np.abs(z[-1]).max():.2e}  (decayed)")


if __name__ == "__main__":
    main()
