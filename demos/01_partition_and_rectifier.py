"""Partition an oscillator network and build its output rectifier.

Walks through the basic objects: the 36-node benchmark network, its split
into a 6-node subsystem plus environment, and the extended rectifier whose
output is provably insensitive to whatever the environment feeds back.
"""

import numpy as np

from retrofit_control import (
    StateSpace,
    build_network,
    check_admissible,
    extended_rectifier,
    kernel_residual,
    paper_benchmark,
    partition,
    spectral_abscissa,
)


def main():
    spec, assign = paper_benchmark(k_c=5.0)
    full = build_network(spec)
    print(f"full network: {full.n_states} states "
          f"({spec.node_count} nodes, angle+rate each)")

    G, env = partition(full, spec, assign)
    env = env.sys
    print(f"subsystem: {G.A.shape[0]} states, u={G.B.shape[1]} d={G.W.shape[1]} "
          f"y={G.C.shape[0]} z={G.S.shape[0]}, boundary channels v=w={G.L.shape[1]}")
    print(f"environment: {env.n_states} states, "
          f"isolated abscissa {spectral_abscissa(env.A):.4f}")
    print(f"true environment admissible: {check_admissible(G, env)}")

    # A rectifier needs only some surrogate of the environment; here: none.
    nv = G.L.shape[1]
    apx = StateSpace.zero(nv, nv)
    rect = extended_rectifier(G, apx)
    print(f"rectifier: {rect.n_states} states, "
          f"maps (y, w, v) -> rectified (y, w)")

    # The defining property: the environment-induced component of the
    # measurements is annihilated, for any environment whatsoever.
    res = kernel_residual(G, rect)
    print(f"kernel certificate (largest entry of the blocks that must vanish, "
          f"each relative to its plant block): {res:.2e}")


if __name__ == "__main__":
    main()
