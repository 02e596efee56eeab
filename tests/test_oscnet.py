"""Unit tests for oscillator networks and the subsystem/environment split.

Single- and two-node networks are checked against closed-form transfer
functions and eigenvalues; the partition is validated by reassembling the
full network response pointwise on a frequency grid.
"""

import numpy as np
import pytest

from retrofit_control import (
    ChannelAssignment,
    NetworkSpec,
    StateSpace,
    boundary_nodes,
    build_network,
    check_admissible,
    close_loop,
    freq_response,
    paper_benchmark,
    partition,
    spectral_abscissa,
)


def _two_node_spec(k_c=2.0):
    return NetworkSpec(
        node_count=2,
        edges=((0, 1, 7.0),),
        inertia=(1.0, 1.0),
        damping=(0.2, 0.2),
        subsystem_nodes=(0,),
        k_c=k_c,
    )


class TestNetworkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(2, ((0, 0, 1.0),), (1.0,) * 2, (0.1,) * 2, (0,), 1.0)
        with pytest.raises(ValueError):
            NetworkSpec(2, ((0, 1, -1.0),), (1.0,) * 2, (0.1,) * 2, (0,), 1.0)
        with pytest.raises(ValueError):
            NetworkSpec(2, ((0, 1, 1.0),), (1.0,) * 2, (0.1,) * 2, (0, 1), 1.0)
        with pytest.raises(ValueError):
            NetworkSpec(2, ((0, 1, 1.0),), (1.0,) * 2, (0.1,) * 2, (0,), -1.0)

    def test_boundary_stiffness_substitution(self):
        spec = _two_node_spec(k_c=2.0)
        assert spec.effective_edges() == ((0, 1, 2.0),)
        assert boundary_nodes(spec) == (0,)

    def test_internal_edge_keeps_stiffness(self):
        spec = NetworkSpec(
            3, ((0, 1, 7.0), (1, 2, 3.0)), (1.0,) * 3, (0.1,) * 3, (0, 1), 9.0
        )
        assert spec.effective_edges() == ((0, 1, 7.0), (1, 2, 9.0))
        assert boundary_nodes(spec) == (1,)


class TestBuildNetwork:
    def test_single_isolated_node_transfer(self):
        # One node with no springs: theta'/f = 1/(s + D/M) on the rate row.
        spec = NetworkSpec(
            2, (), (1.0, 1.0), (0.2, 0.2), (0,), 0.0
        )
        full = build_network(spec)
        w = 0.7
        H = freq_response(full, w)
        ref = 1.0 / (1j * w + 0.2)
        assert abs(H[2, 0] - ref) < 1e-12

    def test_two_node_mode_split(self):
        # Symmetric pair with stiffness k: relative mode satisfies
        # s^2 + (D/M) s + 2k/M = 0; plus a rigid-body pair.
        k = 7.0
        spec = _two_node_spec()
        eff = [(0, 1, k)]
        full = build_network(
            NetworkSpec(2, ((0, 1, k),), (1.0, 1.0), (0.2, 0.2), (0,), k)
        )
        eigs = np.sort_complex(np.linalg.eigvals(full.A))
        expected = np.sort_complex(
            np.concatenate(
                [np.roots([1.0, 0.2, 2.0 * k]), np.roots([1.0, 0.2, 0.0])]
            )
        )
        assert np.abs(eigs - expected).max() < 1e-8

    def test_rigid_body_mode(self):
        spec, _ = paper_benchmark(3.0)
        full = build_network(spec)
        eigs = np.linalg.eigvals(full.A)
        # Exactly one zero eigenvalue (uniform-rotation mode), rest stable.
        n_zero = np.sum(np.abs(eigs) < 1e-8)
        assert n_zero == 1
        assert np.sum(eigs.real > 1e-8) == 0


class TestPartition:
    def test_dimensions(self):
        spec, assign = paper_benchmark(3.0)
        G, env = partition(build_network(spec), spec, assign)
        env = env.sys
        shapes = {k: getattr(G, k).shape for k in ("A", "B", "L", "W", "Gamma", "S", "C")}
        assert shapes == {
            "A": (12, 12), "B": (12, 3), "L": (12, 3), "W": (12, 3),
            "Gamma": (3, 12), "S": (6, 12), "C": (6, 12),
        }
        assert env.n_inputs == 3 and env.n_outputs == 3
        assert env.n_states == 60

    def test_roundtrip_reassembly(self):
        spec, assign = paper_benchmark(4.0)
        full = build_network(spec)
        G, env = partition(full, spec, assign)
        env = env.sys
        # Close v = env(w): the (d, u) -> (z, y) map must equal the full
        # network's corresponding selection.
        stacked = StateSpace(
            G.A, np.hstack([G.L, G.W, G.B]), np.vstack([G.Gamma, G.S, G.C])
        )
        nv, nw = G.L.shape[1], G.Gamma.shape[0]
        closed = close_loop(
            stacked,
            env,
            in_idx=np.arange(nv),
            out_idx=np.arange(nw),
        )
        zi = np.arange(nw, closed.n_outputs)
        n = spec.node_count
        rate = lambda node: n + node
        rows_full = [rate(i) for i in assign.evaluated]
        rows_full += [i for i in assign.measured]
        rows_full += [rate(i) for i in assign.measured]
        cols_full = list(assign.disturbed) + list(assign.actuated)
        rng = np.random.default_rng(0)
        for w in 10.0 ** rng.uniform(-2, 1.5, size=50):
            H_closed = freq_response(closed, w)[zi, :]
            H_full = freq_response(full, w)[np.ix_(rows_full, cols_full)]
            assert np.abs(H_closed - H_full).max() < 1e-10

    def test_environment_is_stable_when_grounded(self):
        spec, assign = paper_benchmark(5.0)
        # The k_c grounding at coupled nodes removes the environment's
        # rigid-body mode; the isolated environment is strictly stable.
        _, env = partition(build_network(spec), spec, assign)
        assert spectral_abscissa(env.sys.A) < -1e-6

    def test_true_environment_is_admissible(self):
        spec, assign = paper_benchmark(5.0)
        G, env = partition(build_network(spec), spec, assign)
        assert check_admissible(G, env.sys)

    def test_boundary_mismatch_rejected(self):
        spec, assign = paper_benchmark(3.0)
        bad = ChannelAssignment(
            actuated=assign.actuated,
            disturbed=assign.disturbed,
            measured=assign.measured,
            evaluated=assign.evaluated,
            boundary=(0, 1, 4),
        )
        with pytest.raises(ValueError):
            partition(build_network(spec), spec, bad)


class TestPaperBenchmark:
    def test_deterministic(self):
        s1, a1 = paper_benchmark(3.0)
        s2, a2 = paper_benchmark(3.0)
        assert s1 == s2 and a1 == a2

    def test_three_boundary_edges(self):
        spec, assign = paper_benchmark(3.0)
        crossing = [
            (i, j) for i, j, _ in spec.edges if spec.is_boundary_edge(i, j)
        ]
        assert len(crossing) == 3
        assert boundary_nodes(spec) == (0, 4, 5)

    def test_kc_only_scales_boundary(self):
        s_lo, _ = paper_benchmark(1.0)
        s_hi, _ = paper_benchmark(9.0)
        internal_lo = [e for e in s_lo.effective_edges() if not s_lo.is_boundary_edge(e[0], e[1])]
        internal_hi = [e for e in s_hi.effective_edges() if not s_hi.is_boundary_edge(e[0], e[1])]
        assert internal_lo == internal_hi
        for i, j, k in s_hi.effective_edges():
            if s_hi.is_boundary_edge(i, j):
                assert k == 9.0
