"""Second-order oscillator networks and their subsystem/environment split.

Nodes carry angle/rate states with dynamics
``M_i theta_i'' = -D_i theta_i' + sum_j K_ij (theta_j - theta_i) + f_i``
(the stabilizing Laplacian sign convention).  Edges crossing the chosen
subsystem boundary all share one coupling stiffness ``k_c``; the partition
exposes the boundary force as the interconnection input ``v`` and the
boundary angles as the interconnection output ``w``.
"""

from dataclasses import dataclass

import numpy as np

from .lti import StateSpace
from .retrofit import PartitionedPlant

__all__ = [
    "NetworkSpec",
    "ChannelAssignment",
    "build_network",
    "partition",
    "boundary_nodes",
    "paper_benchmark",
    "BENCHMARK_SEED",
]

BENCHMARK_SEED = 6
BENCHMARK_NODES = 36
BENCHMARK_INTERNAL_STIFFNESS = 5.0
BENCHMARK_INERTIA = 1.0
BENCHMARK_DAMPING = 0.2


@dataclass(frozen=True)
class NetworkSpec:
    """Oscillator network with a designated subsystem node set.

    ``edges`` is an undirected stiffness list ``(i, j, K_ij)``; edges with
    one endpoint inside ``subsystem_nodes`` and one outside are boundary
    edges and use the common coupling stiffness ``k_c`` instead of their
    listed value.
    """

    node_count: int
    edges: tuple
    inertia: tuple
    damping: tuple
    subsystem_nodes: tuple
    k_c: float

    def __post_init__(self):
        n = self.node_count
        if n < 2:
            raise ValueError("need at least two nodes")
        norm_edges = []
        seen = set()
        for i, j, k in self.edges:
            i, j, k = int(i), int(j), float(k)
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if k < 0:
                raise ValueError(f"negative stiffness on edge ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm_edges.append((key[0], key[1], k))
        object.__setattr__(self, "edges", tuple(norm_edges))

        for name in ("inertia", "damping"):
            vals = tuple(float(v) for v in np.broadcast_to(getattr(self, name), (n,)))
            if min(vals) <= 0 and name == "inertia":
                raise ValueError("inertia must be positive")
            if min(vals) < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, vals)

        sub = tuple(sorted(int(i) for i in self.subsystem_nodes))
        if not sub or len(sub) >= n or len(set(sub)) != len(sub):
            raise ValueError("subsystem_nodes must be a nonempty proper subset")
        if sub[0] < 0 or sub[-1] >= n:
            raise ValueError("subsystem node out of range")
        object.__setattr__(self, "subsystem_nodes", sub)
        if self.k_c < 0:
            raise ValueError("boundary stiffness k_c must be nonnegative")

    def is_boundary_edge(self, i, j):
        ins = i in set(self.subsystem_nodes)
        jns = j in set(self.subsystem_nodes)
        return ins != jns

    def effective_edges(self):
        """Edge list with boundary stiffnesses replaced by ``k_c``."""
        return tuple(
            (i, j, self.k_c if self.is_boundary_edge(i, j) else k)
            for i, j, k in self.edges
        )


def boundary_nodes(spec):
    """Subsystem nodes with at least one edge into the environment."""
    sub = set(spec.subsystem_nodes)
    nodes = set()
    for i, j, _ in spec.edges:
        if (i in sub) != (j in sub):
            nodes.add(i if i in sub else j)
    return tuple(sorted(nodes))


@dataclass(frozen=True)
class ChannelAssignment:
    """Subsystem node roles for the external channels.

    ``measured`` nodes expose both angle and rate; ``evaluated`` nodes
    expose the rate only.  ``boundary`` must be exactly the subsystem nodes
    with edges into the environment.
    """

    actuated: tuple
    disturbed: tuple
    measured: tuple
    evaluated: tuple
    boundary: tuple

    def __post_init__(self):
        for name in ("actuated", "disturbed", "measured", "evaluated", "boundary"):
            vals = tuple(sorted(int(i) for i in getattr(self, name)))
            if len(set(vals)) != len(vals):
                raise ValueError(f"duplicate node in {name}")
            object.__setattr__(self, name, vals)

    def validate(self, spec):
        sub = set(spec.subsystem_nodes)
        for name in ("actuated", "disturbed", "measured", "evaluated", "boundary"):
            if not set(getattr(self, name)) <= sub:
                raise ValueError(f"{name} nodes must lie inside the subsystem")
        if self.boundary != boundary_nodes(spec):
            raise ValueError(
                "boundary nodes must be exactly the subsystem nodes with "
                "environment edges"
            )


def _laplacian(n, edges):
    Lm = np.zeros((n, n))
    for i, j, k in edges:
        Lm[i, i] += k
        Lm[j, j] += k
        Lm[i, j] -= k
        Lm[j, i] -= k
    return Lm


def _second_order(Lm, M, D):
    """State matrix for states (theta, theta') under the given Laplacian."""
    n = Lm.shape[0]
    return np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [-Lm / M[:, None], -np.diag(D / M)],
        ]
    )


def build_network(spec):
    """Full-network state space: one force input per node, outputs all states.

    States are ordered angles-then-rates; the output is the identity on the
    state, so any channel assignment is a row/column selection.
    """
    n = spec.node_count
    M = np.asarray(spec.inertia)
    D = np.asarray(spec.damping)
    A = _second_order(_laplacian(n, spec.effective_edges()), M, D)
    B = np.vstack([np.zeros((n, n)), np.diag(1.0 / M)])
    return StateSpace(A, B, np.eye(2 * n))


def _force_columns(nodes, all_nodes, M):
    """Per-node force input columns into the rate rows of a subsystem."""
    n = len(all_nodes)
    pos = {node: k for k, node in enumerate(all_nodes)}
    B = np.zeros((2 * n, len(nodes)))
    for c, node in enumerate(nodes):
        B[n + pos[node], c] = 1.0 / M[pos[node]]
    return B


@dataclass(frozen=True)
class EnvironmentModel:
    """:func:`partition`'s environment; kept only as the benchmark reads ``sys``."""

    sys: StateSpace


def partition(full, spec, assign):
    """Split the network into a partitioned subsystem and its environment.

    The subsystem keeps only its internal edges; the boundary force enters
    through ``v`` (one channel per boundary node) and the boundary angles
    leave through ``w``.  The environment, the StateSpace in the record's
    ``sys``, maps ``w`` to ``v`` and carries the environment-internal
    Laplacian grounded by the boundary stiffness, so closing ``v = env(w)``
    reproduces ``full`` exactly.
    """
    assign.validate(spec)
    if full.n_states != 2 * spec.node_count:
        raise ValueError("full system does not match the network spec")
    bnodes = assign.boundary
    if not bnodes:
        raise ValueError("no boundary edges; nothing to partition")

    sub = list(spec.subsystem_nodes)
    env_nodes = [i for i in range(spec.node_count) if i not in set(sub)]
    spos = {node: k for k, node in enumerate(sub)}
    epos = {node: k for k, node in enumerate(env_nodes)}
    ns, ne = len(sub), len(env_nodes)
    M = np.asarray(spec.inertia)
    D = np.asarray(spec.damping)
    Ms, Ds = M[sub], D[sub]
    Me, De_ = M[env_nodes], D[env_nodes]

    sub_edges, env_edges, cross = [], [], []
    for i, j, k in spec.edges:
        ins, jns = i in spos, j in spos
        if ins and jns:
            sub_edges.append((spos[i], spos[j], k))
        elif not ins and not jns:
            env_edges.append((epos[i], epos[j], k))
        else:
            b, e = (i, j) if ins else (j, i)
            cross.append((b, e))

    A_sub = _second_order(_laplacian(ns, sub_edges), Ms, Ds)
    L = _force_columns(bnodes, sub, Ms)
    W = _force_columns(assign.disturbed, sub, Ms)
    B_u = _force_columns(assign.actuated, sub, Ms)
    Gamma = np.zeros((len(bnodes), 2 * ns))
    for r, node in enumerate(bnodes):
        Gamma[r, spos[node]] = 1.0
    S = np.zeros((len(assign.evaluated), 2 * ns))
    for r, node in enumerate(assign.evaluated):
        S[r, ns + spos[node]] = 1.0
    C = np.zeros((2 * len(assign.measured), 2 * ns))
    for r, node in enumerate(assign.measured):
        C[r, spos[node]] = 1.0
        C[len(assign.measured) + r, ns + spos[node]] = 1.0
    G = PartitionedPlant(A_sub, B_u, L, W, Gamma, S, C)

    # Environment: internal Laplacian plus k_c grounding at coupled nodes.
    Lm_env = _laplacian(ne, env_edges)
    for _, e in cross:
        Lm_env[epos[e], epos[e]] += spec.k_c
    A_env = _second_order(Lm_env, Me, De_)
    bpos = {node: k for k, node in enumerate(bnodes)}
    B_env = np.zeros((2 * ne, len(bnodes)))
    C_env = np.zeros((len(bnodes), 2 * ne))
    D_env = np.zeros((len(bnodes), len(bnodes)))
    for b, e in cross:
        B_env[ne + epos[e], bpos[b]] += spec.k_c / Me[epos[e]]
        C_env[bpos[b], epos[e]] += spec.k_c
        D_env[bpos[b], bpos[b]] -= spec.k_c
    env = EnvironmentModel(StateSpace(A_env, B_env, C_env, D_env))
    return G, env


def _radius_edges(points, nodes, radius):
    edges = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if np.linalg.norm(points[nodes[a]] - points[nodes[b]]) <= radius:
                edges.append((nodes[a], nodes[b]))
    return edges


def _connect_components(points, nodes, edges):
    """Add shortest bridging edges until the node set is connected."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    while True:
        roots = {find(v) for v in nodes}
        if len(roots) <= 1:
            return edges
        best = None
        for a in nodes:
            for b in nodes:
                if find(a) != find(b):
                    d = np.linalg.norm(points[a] - points[b])
                    if best is None or d < best[0]:
                        best = (d, a, b)
        _, a, b = best
        edges.append((a, b))
        parent[find(a)] = find(b)


def paper_benchmark(k_c, seed=BENCHMARK_SEED):
    """Benchmark network and channel assignment for the experiments.

    36 uniform nodes (inertia 1, damping 0.2, internal stiffness 5) with a
    6-node subsystem; topology is a deterministic seeded random geometric
    graph patched to be connected on each side, with exactly three boundary
    edges leaving subsystem nodes 0, 4 and 5.  Control acts on nodes 1-3,
    disturbances on nodes 0-2, both angle and rate are measured on nodes
    1-3, and all six subsystem rates are evaluated.
    """
    rng = np.random.default_rng(seed)
    n = BENCHMARK_NODES
    points = rng.random((n, 2))
    sub = list(range(6))
    env = list(range(6, n))

    sub_edges = _connect_components(points, sub, _radius_edges(points, sub, 0.55))
    env_edges = _connect_components(points, env, _radius_edges(points, env, 0.28))

    cross = []
    used = set()
    for b in (0, 4, 5):
        order = sorted(env, key=lambda e: np.linalg.norm(points[b] - points[e]))
        target = next(e for e in order if e not in used)
        used.add(target)
        cross.append((b, target))

    K = BENCHMARK_INTERNAL_STIFFNESS
    edges = [(i, j, K) for i, j in sub_edges + env_edges]
    edges.extend((b, e, k_c) for b, e in cross)
    spec = NetworkSpec(
        node_count=n,
        edges=tuple(edges),
        inertia=(BENCHMARK_INERTIA,) * n,
        damping=(BENCHMARK_DAMPING,) * n,
        subsystem_nodes=tuple(sub),
        k_c=float(k_c),
    )
    assign = ChannelAssignment(
        actuated=(1, 2, 3),
        disturbed=(0, 1, 2),
        measured=(1, 2, 3),
        evaluated=tuple(sub),
        boundary=(0, 4, 5),
    )
    return spec, assign
