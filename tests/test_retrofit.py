"""Unit tests for the retrofit construction itself.

The rectifier is checked against a pointwise transfer-function oracle
derived from its defining equations, the kernel and invariance properties
by their exact state-space certificates (invariance also against the loop
equations solved point by point), the cascade against the direct closed
loop point by point, and the performance bounds against the exact-model
collapse.  The marginal split's direct LAPACK Schur call is pinned bit for
bit to ``scipy.linalg.schur``, and its Sylvester solve on the form's blocks
to ``scipy.linalg.solve_sylvester`` within a stated tolerance.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from retrofit_control import (
    NumericsError,
    PartitionedPlant,
    StateSpace,
    assemble_preexisting,
    build_network,
    cascade_realization,
    check_admissible,
    close_loop,
    closed_loop_direct,
    compose_retrofit,
    deflated_abscissa,
    direct_controller,
    extended_rectifier,
    freq_response,
    hinf_norm,
    invariance_residual,
    kernel_residual,
    lqg_module,
    new_subsystem,
    paper_benchmark,
    partition,
    performance_bounds,
    select,
    series,
    spectral_abscissa,
)
from retrofit_control.numerics import _IMAG_TOL
from retrofit_control.retrofit import STABILITY_TOL, _deflate, _ordered_schur
from retrofit_control.verification import (
    random_admissible_env,
    random_apx,
    random_partitioned_plant,
    random_statespace,
)


def _plant(seed=0):
    rng = np.random.default_rng(seed)
    return random_partitioned_plant(rng), rng


def _destabilizing_module(G):
    """A static ``(y, w) -> u`` gain that provably destabilizes the design loop.

    The design loop is closed with a zero environment model.
    """
    for scale in (1.0, -1.0, 10.0, -10.0, 100.0, -100.0, 1e3, -1e3):
        Ky = scale * np.ones((2, 2))
        if spectral_abscissa(G.A + G.B @ (Ky @ G.C)) > 1e-6:
            return StateSpace.from_gain(np.hstack([Ky, np.zeros((2, 2))]))
    pytest.fail("no destabilizing static gain found for this plant")


def _apx_transfer(apx, w):
    if apx.n_states == 0:
        return apx.D.astype(complex)
    R = np.linalg.solve(1j * w * np.eye(apx.n_states) - apx.A, apx.B)
    return apx.C @ R + apx.D


def _rectifier_oracle(G, apx, w):
    """Pointwise (y, w, v) -> (y_hat, w_hat) map from the defining equations.

    The internal mirror state obeys
    ``x' = A x + L (v - Ga(s) (w - Gamma x))`` and the outputs are
    ``y - C x`` and ``w - Gamma x``.
    """
    n = G.A.shape[0]
    Ga = _apx_transfer(apx, w)
    M = 1j * w * np.eye(n) - G.A - G.L @ Ga @ G.Gamma
    Minv = np.linalg.inv(M)
    ny, nw, nv = G.C.shape[0], G.Gamma.shape[0], G.L.shape[1]
    # x = Minv (L v - L Ga w)
    T = np.zeros((ny + nw, ny + nw + nv), dtype=complex)
    T[:ny, :ny] = np.eye(ny)
    T[ny:, ny:ny + nw] = np.eye(nw)
    x_from_w = -Minv @ G.L @ Ga
    x_from_v = Minv @ G.L
    T[:ny, ny:ny + nw] += -G.C @ x_from_w
    T[:ny, ny + nw:] = -G.C @ x_from_v
    T[ny:, ny:ny + nw] += -G.Gamma @ x_from_w
    T[ny:, ny + nw:] = -G.Gamma @ x_from_v
    return T


def _closed_vw_gap(G, K, ws):
    """Largest relative gap of the ``K``-closed ``v -> w`` map from the open one.

    At each frequency the loop equations ``u = K(y, w, v)`` are solved for
    the ``v -> u`` map, which closes the plant's ``(v, u) -> (y, w)`` map.
    """
    ny, nv = G.C.shape[0], G.L.shape[1]
    nyw = ny + G.Gamma.shape[0]
    plant = StateSpace(G.A, np.hstack([G.L, G.B]), np.vstack([G.C, G.Gamma]))
    worst = 0.0
    for w in ws:
        P, H = freq_response(plant, w), freq_response(K, w)
        P_v, P_u = P[:, :nv], P[:, nv:]
        U = np.linalg.solve(
            np.eye(P_u.shape[1]) - H[:, :nyw] @ P_u, H[:, :nyw] @ P_v + H[:, nyw:]
        )
        gap = np.abs((P_u @ U)[ny:]).max() / np.abs(P_v[ny:]).max()
        worst = max(worst, gap)
    return worst


class TestPartitionedPlant:
    @pytest.mark.parametrize(
        "name, axis", [("B", 0), ("L", 0), ("W", 0), ("Gamma", 1), ("S", 1), ("C", 1)]
    )
    def test_inconsistent_block_refused(self, name, axis):
        G, _ = _plant(seed=0)
        blocks = {k: getattr(G, k) for k in ("A", "B", "L", "W", "Gamma", "S", "C")}
        bad = blocks[name]
        blocks[name] = np.delete(bad, 0, axis=axis)
        with pytest.raises(ValueError, match=f"^{name} has"):
            PartitionedPlant(**blocks)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "B", "L", "W", "Gamma", "S", "C"])
    def test_non_finite_block_refused(self, name, value):
        G, _ = _plant(seed=0)
        blocks = {k: np.array(getattr(G, k)) for k in ("A", "B", "L", "W", "Gamma", "S", "C")}
        blocks[name][-1, -1] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            PartitionedPlant(**blocks)

    def test_zero_size_blocks_accepted(self):
        # No d, u, v, w, z or y channel at all, and then no state either.
        G = PartitionedPlant(-np.eye(2), *(np.zeros((2, 0)),) * 3, *(np.zeros((0, 2)),) * 3)
        assert (G.B.shape, G.Gamma.shape) == ((2, 0), (0, 2))
        G = PartitionedPlant(np.zeros((0, 0)), *(np.zeros((0, 1)),) * 3,
                             *(np.zeros((1, 0)),) * 3)
        assert G.A.shape == (0, 0)

    def test_blocks_read_only(self):
        G, _ = _plant(seed=0)
        with pytest.raises(ValueError):
            G.L[0, 0] = 1.0
        with pytest.raises(AttributeError):
            G.A = np.zeros((4, 4))


def _new_subsystem_by_close_loop(G, apx):
    """The blocks of ``G`` closed with ``apx`` over ``(v, w)`` by ``close_loop``.

    The stacked ``(v, v, d, u) -> (w, z, y)`` plant carries ``v`` twice: the
    first copy is closed with the model, the second stays an external input;
    the blocks are sliced back out of the closed loop.
    """
    nv, nd = G.L.shape[1], G.W.shape[1]
    nw, nz = G.Gamma.shape[0], G.S.shape[0]
    stacked = StateSpace(
        G.A, np.hstack([G.L, G.L, G.W, G.B]), np.vstack([G.Gamma, G.S, G.C])
    )
    cl = close_loop(stacked, apx, np.arange(nv), np.arange(nw))
    return {
        "A": cl.A,
        "B": cl.B[:, nv + nd:],
        "L": cl.B[:, :nv],
        "W": cl.B[:, nv:nv + nd],
        "Gamma": cl.C[:nw],
        "S": cl.C[nw:nw + nz],
        "C": cl.C[nw + nz:],
    }


class TestNewSubsystem:
    def _assert_same_blocks(self, G, apx):
        gplus = new_subsystem(G, apx)
        for name, ref in _new_subsystem_by_close_loop(G, apx).items():
            assert np.array_equal(getattr(gplus, name), ref), name

    def test_equals_close_loop_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            G = random_partitioned_plant(rng)
            self._assert_same_blocks(G, random_apx(rng, G))

    def test_equals_close_loop_preset(self):
        spec, assign = paper_benchmark(10.0)
        G, env = partition(build_network(spec), spec, assign)
        self._assert_same_blocks(G, env.sys)

    def test_zero_model_is_the_plant(self):
        G, _ = _plant(seed=20)
        gplus = new_subsystem(G, StateSpace.zero(G.L.shape[1], G.Gamma.shape[0]))
        for name in ("A", "B", "L", "W", "Gamma", "S", "C"):
            assert np.array_equal(getattr(gplus, name), getattr(G, name)), name


class TestExtendedRectifier:
    def test_zero_model_transfer(self):
        # With a zero model the rectified outputs are y - G_yv v, w - G_wv v.
        G, rng = _plant(seed=0)
        nv = G.L.shape[1]
        nw = G.Gamma.shape[0]
        rect = extended_rectifier(G, StateSpace.zero(nv, nv))
        ny = G.C.shape[0]
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            H = freq_response(rect, w)
            n = G.A.shape[0]
            R = np.linalg.solve(1j * w * np.eye(n) - G.A, G.L)
            G_yv = G.C @ R
            G_wv = G.Gamma @ R
            ref = np.zeros((ny + nw, ny + nw + nv), dtype=complex)
            ref[:ny, :ny] = np.eye(ny)
            ref[ny:, ny:ny + nw] = np.eye(nw)
            ref[:ny, ny + nw:] = -G_yv
            ref[ny:, ny + nw:] = -G_wv
            assert np.abs(H - ref).max() < 1e-9

    def test_dynamic_model_matches_defining_equations(self):
        G, rng = _plant(seed=1)
        apx = StateSpace(
            np.array([[-1.0, 0.3], [0.0, -2.0]]),
            rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)),
            0.1 * rng.standard_normal((2, 2)),
        )
        rect = extended_rectifier(G, apx)
        for w in 10.0 ** rng.uniform(-2, 2, size=50):
            H = freq_response(rect, w)
            ref = _rectifier_oracle(G, apx, w)
            assert np.abs(H - ref).max() < 1e-9

    def test_unstable_model_still_annihilates(self):
        G, rng = _plant(seed=2)
        apx = StateSpace([[0.5]], rng.standard_normal((1, 2)),
                         rng.standard_normal((2, 1)))
        assert kernel_residual(G, extended_rectifier(G, apx)) < 1e-8

    def test_static_model_adds_no_states(self):
        G, rng = _plant(seed=3)
        apx = StateSpace.from_gain(0.3 * rng.standard_normal((2, 2)))
        rect = extended_rectifier(G, apx)
        assert rect.n_states == G.A.shape[0]

    def test_kernel_residual_randomized(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10):
            G = random_partitioned_plant(rng)
            apx = random_apx(rng, G)
            worst = max(worst, kernel_residual(G, extended_rectifier(G, apx)))
        assert worst < 1e-8

    def test_sign_flip_breaks_kernel(self):
        G, _ = _plant(seed=5)
        nv = G.L.shape[1]
        rect = extended_rectifier(G, StateSpace.zero(nv, nv))
        broken = StateSpace(rect.A, rect.B, rect.C, -rect.D)
        assert kernel_residual(G, broken) > 1e-3

    def test_kernel_reads_relative_defect_on_preset_design(self, preset_design):
        # The rectifier's copy has L scaled by 1.001: the e rows of B are
        # -1e-3 L, read against L and not against the design's largest entry.
        G, _, apx, _ = preset_design
        rect = extended_rectifier(dataclasses.replace(G, L=1.001 * G.L), apx)
        assert kernel_residual(G, rect) == pytest.approx(1e-3, rel=1e-2)


class TestAdmissibility:
    def test_true_environment_admissible(self):
        G, rng = _plant(seed=6)
        env = random_admissible_env(rng, G)
        assert check_admissible(G, env)
        pre = assemble_preexisting(G, env)
        assert spectral_abscissa(pre.A) < 0.0

    def test_destabilizing_environment_rejected(self):
        G, _ = _plant(seed=7)
        nv = G.L.shape[1]
        env = StateSpace.from_gain(1e3 * np.ones((nv, nv)))
        assert not check_admissible(G, env)


class TestDeflation:
    def test_hidden_marginal_mode_removed(self):
        # Mode at the origin decoupled from input and output.
        A = np.diag([0.0, -1.0])
        sys = StateSpace(A, [[0.0], [1.0]], [[0.0, 1.0]])
        assert deflated_abscissa(sys) == pytest.approx(-1.0, abs=1e-9)
        assert _deflate(sys)[1].n_states == 1

    def test_visible_marginal_mode_kept(self):
        A = np.diag([0.0, -1.0])
        sys = StateSpace(A, [[1.0], [1.0]], [[1.0, 1.0]])
        assert deflated_abscissa(sys) >= -1e-12
        assert _deflate(sys)[1].n_states == 2

    @pytest.mark.parametrize("n", [6, 50])
    def test_hidden_mode_inside_axis_band_split_off_for_the_norm(self, n):
        # An uncontrollable pair at -5e-9 +- 10j drives a stable rest, behind
        # a random rotation.  hinf_norm refuses the pair as on the axis, so
        # the split must take it for the deflated norm to exist.  The oracle
        # is the rest as built, which realizes the same transfer matrix;
        # minreal is none, since from 20 states on it keeps this pair.  At
        # 50 states the deflated norm takes the banded path on the Schur
        # block itself, with no Hessenberg reduction.
        rng = np.random.default_rng(26)
        A = np.zeros((n, n))
        A[:2, :2] = [[-5e-9, 10.0], [-10.0, -5e-9]]
        A[2:, :2] = rng.standard_normal((n - 2, 2))
        A[2:, 2:] = rng.standard_normal((n - 2, n - 2)) / np.sqrt(n) - 2.0 * np.eye(n - 2)
        B = np.vstack([np.zeros((2, 2)), rng.standard_normal((n - 2, 2))])
        C = rng.standard_normal((2, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sys = StateSpace(Q @ A @ Q.T, Q @ B, C @ Q.T)
        with pytest.raises(NumericsError, match="imaginary axis"):
            hinf_norm(sys)
        abscissa, reduced = _deflate(sys)
        assert abscissa < STABILITY_TOL
        assert reduced.n_states == n - 2
        rest = StateSpace(A[2:, 2:], B[2:], C[:, 2:])
        assert hinf_norm(reduced, tol=1e-8) == pytest.approx(
            hinf_norm(rest, tol=1e-8), rel=2e-8
        )

    @pytest.mark.parametrize("rest", [1, 2, 7, 40, 100])
    @pytest.mark.parametrize(
        "marginal",
        [[[0.0]], [[0.0, 0.0], [0.0, 0.5]], [[0.0, 3.0], [-3.0, 0.0]]],
        ids=["k1", "k2-real", "k2-pair"],
    )
    def test_decoupling_solves_the_sylvester_equation(self, marginal, rest):
        # _deflate decouples the marginal block A11 (k = 1 or 2) of the
        # ordered Schur form from the stable A22 with X, A11 X - X A22 = -A12.
        # With B = 0 every mode is hidden, and with C = I the remainder's
        # output map is Z1 X + Z2, so X = Z1^T (C_reduced - Z2).  The rest
        # mixes real poles and damped pairs, so both blocks hold 1 x 1 and
        # 2 x 2 diagonal blocks where they can.
        rng = np.random.default_rng(rest + 10 * len(marginal))
        J = [np.array(marginal)]
        while sum(len(b) for b in J) < len(marginal) + rest:
            sigma = -rng.uniform(0.1, 2.0)
            if sum(len(b) for b in J) + 2 <= len(marginal) + rest and rng.random() < 0.6:
                w = rng.uniform(0.5, 5.0)
                J.append(np.array([[sigma, w], [-w, sigma]]))
            else:
                J.append(np.array([[sigma]]))
        n = len(marginal) + rest
        # Coupling above the diagonal blocks keeps the spectrum.
        above = np.triu(np.ones((n, n))) - scipy.linalg.block_diag(*(np.ones(b.shape) for b in J))
        M = scipy.linalg.block_diag(*J) + above * rng.standard_normal((n, n)) / np.sqrt(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ M @ Q.T
        _, reduced = _deflate(StateSpace(A, np.zeros((n, 1)), np.eye(n)))
        T, Z, k = _ordered_schur(A)
        assert k == len(marginal) and reduced.n_states == rest
        A11, A12, A22 = T[:k, :k], T[:k, k:], T[k:, k:]
        X = Z[:, :k].T @ (reduced.C - Z[:, k:])
        scale = np.linalg.norm(A11) * np.linalg.norm(X) + np.linalg.norm(X) * np.linalg.norm(A22)
        residual = np.linalg.norm(A11 @ X - X @ A22 + A12) / (scale + np.linalg.norm(A12))
        assert residual < 1e-14
        X_ref = scipy.linalg.solve_sylvester(A11, -A22, -A12)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)

    def test_stable_system_untouched(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
        sys = StateSpace(A, rng.standard_normal((4, 1)), rng.standard_normal((1, 4)))
        assert deflated_abscissa(sys) == pytest.approx(
            spectral_abscissa(A), abs=1e-10
        )

    @pytest.mark.parametrize(
        "blocks, k",
        [
            ([[[-1.0]], [[-2.0]], [[-0.5, 1.0], [-1.0, -0.5]]], 0),
            ([[[0.5]], [[-1.0]], [[-0.3, 2.0], [-2.0, -0.3]], [[0.2, 1.0], [-1.0, 0.2]]], 3),
            ([[[0.5]], [[1.0]], [[0.1, 1.0], [-1.0, 0.1]]], 4),
            ([[[0.0]], [[-1.0]], [[-2.0, 3.0], [-3.0, -2.0]]], 1),
            ([[[0.0]]], 1),
            # -5e-9 +- 10j is below STABILITY_TOL but inside the band
            # hinf_norm counts as on the axis, -1e-9 (1 + |lambda|).
            ([[[-1.0]], [[-5e-9, 10.0], [-10.0, -5e-9]], [[-2.0]]], 2),
        ],
        ids=["none-marginal", "some-marginal", "all-marginal", "zero-eigenvalue", "zero-1x1",
             "inside-axis-band"],
    )
    def test_ordered_schur_is_scipy_schur(self, blocks, k):
        # The direct LAPACK call must give scipy.linalg.schur's (T, Z, k) in
        # bits: on a random similarity of a real block-diagonal form, and on
        # that form itself, where a zero eigenvalue is exact.
        rng = np.random.default_rng(len(blocks) + k)
        J = scipy.linalg.block_diag(*blocks)
        V = rng.standard_normal(J.shape)
        for A in (V @ J @ np.linalg.inv(V), J):
            T, Z, got_k = _ordered_schur(A)
            Ts, Zs, ks = scipy.linalg.schur(
                A, output="real",
                sort=lambda re, im: re >= -_IMAG_TOL * (1.0 + abs(complex(re, im))),
            )
            assert got_k == ks == k
            assert T.tobytes() == Ts.tobytes()
            assert Z.tobytes() == Zs.tobytes()


class TestRetrofitComposition:
    def test_invariance_residual_small_for_retrofit(self):
        G, rng = _plant(seed=9)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        K = compose_retrofit(G, apx, module)
        assert invariance_residual(G, K) < 1e-8

    def test_invariance_residual_large_for_direct(self):
        spec, assign = paper_benchmark(5.0)
        G, env = partition(build_network(spec), spec, assign)
        nv = G.L.shape[1]
        apx = StateSpace.zero(nv, nv)
        module = lqg_module(new_subsystem(G, apx))
        K_direct = direct_controller(G, module)
        assert invariance_residual(G, K_direct) > 1e-3

    def test_mutant_rectifier_breaks_invariance(self):
        # The rectifier's subsystem copy has L scaled by 1.5.
        G, rng = _plant(seed=9)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        G_mut = dataclasses.replace(G, L=1.5 * G.L)
        K = series(extended_rectifier(G_mut, apx), module)
        assert invariance_residual(G, K) > 1e-3

    def test_invariance_reads_relative_defect_on_preset_design(self, preset_design):
        # The module's entries reach 1e4, L's about 1: an L x 1.001 rectifier
        # reads 1e-3, where a ratio to the loop's largest entry read 1e-7.
        G, _, apx, module = preset_design
        rect = extended_rectifier(dataclasses.replace(G, L=1.001 * G.L), apx)
        residual = invariance_residual(G, series(rect, module))
        assert residual == pytest.approx(1e-3, rel=1e-2)

    def test_closed_map_matches_open_map(self):
        # Oracle independent of the certificate, checked able to fail on the
        # L x 1.5 mutant.
        G, rng = _plant(seed=12)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        G_mut = dataclasses.replace(G, L=1.5 * G.L)
        ws = 10.0 ** rng.uniform(-2, 2, size=20)
        assert _closed_vw_gap(G, compose_retrofit(G, apx, module), ws) < 1e-9
        K_mut = series(extended_rectifier(G_mut, apx), module)
        assert _closed_vw_gap(G, K_mut, ws) > 1e-3

    def test_too_few_controller_states_refused(self):
        G, _ = _plant(seed=13)
        nu, nv = G.B.shape[1], G.L.shape[1]
        n_meas = G.C.shape[0] + G.Gamma.shape[0] + nv
        K = StateSpace(-np.eye(2), np.ones((2, n_meas)), np.ones((nu, 2)))
        with pytest.raises(
            ValueError,
            match=f"controller has 2 states, fewer than the plant's {G.A.shape[0]}",
        ):
            invariance_residual(G, K)

    def test_static_module_realization(self):
        G, rng = _plant(seed=10)
        nv = G.L.shape[1]
        apx = StateSpace.zero(nv, nv)
        rect = extended_rectifier(G, apx)
        Ky = 0.1 * rng.standard_normal((2, 2))
        Kw = 0.1 * rng.standard_normal((2, 2))
        gain = np.hstack([Ky, Kw])
        K = compose_retrofit(G, apx, StateSpace.from_gain(gain))
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            ref = gain @ freq_response(rect, w)
            assert np.abs(freq_response(K, w) - ref).max() < 1e-10

    def test_destabilizing_module_rejected(self):
        G, _ = _plant(seed=11)
        nv = G.L.shape[1]
        apx = StateSpace.zero(nv, nv)
        with pytest.raises(Exception):
            compose_retrofit(G, apx, _destabilizing_module(G))


class TestDesignLoop:
    def test_upstream_is_the_closed_design_loop(self):
        # The cascade's upstream block equals the module closed around the
        # design plant by close_loop, state for state.
        rng = np.random.default_rng(17)
        for _ in range(10):
            G = random_partitioned_plant(rng)
            env = random_admissible_env(rng, G)
            apx = random_apx(rng, G)
            gplus = new_subsystem(G, apx)
            try:
                module = lqg_module(gplus)
            except NumericsError:
                continue
            design = StateSpace(gplus.A, gplus.B, np.vstack([gplus.C, gplus.Gamma]))
            ref = close_loop(design, module, np.arange(design.n_inputs),
                             np.arange(design.n_outputs))
            casc = cascade_realization(G, env, apx, module)
            assert casc.n_outputs == 3 * G.S.shape[0]
            k = ref.n_states  # the upstream states lead the cascade state
            up_A = casc.A[:k, :k]
            assert np.abs(up_A - ref.A).max() <= 1e-12 * max(1.0, np.abs(ref.A).max())

    def test_wrong_size_module_rejected(self):
        G, _ = _plant(seed=18)
        nv = G.L.shape[1]
        bad = StateSpace.zero(2, 5)
        with pytest.raises(ValueError, match="module maps 5 -> 2"):
            compose_retrofit(G, StateSpace.zero(nv, nv), bad)


class TestWrongSize:
    """Wrongly sized environments, models, loops and controllers raise ValueError."""

    @staticmethod
    def _bad_models():
        rng = np.random.default_rng(19)
        return [
            StateSpace.zero(3, 2),
            StateSpace.zero(2, 3),
            random_statespace(rng, 2, 2, 3),
        ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda G, good, bad, mod, K: assemble_preexisting(G, bad),
            lambda G, good, bad, mod, K: extended_rectifier(G, bad),
            lambda G, good, bad, mod, K: compose_retrofit(G, bad, mod),
            lambda G, good, bad, mod, K: closed_loop_direct(G, bad, K),
            lambda G, good, bad, mod, K: cascade_realization(G, bad, good, mod),
            lambda G, good, bad, mod, K: cascade_realization(G, good, bad, mod),
        ],
        ids=[
            "assemble_preexisting", "extended_rectifier", "compose_retrofit",
            "closed_loop_direct", "cascade_realization-env",
            "cascade_realization-apx",
        ],
    )
    def test_refused(self, call):
        G, _ = _plant(seed=19)
        nu, ny, nw, nv = G.B.shape[1], G.C.shape[0], G.Gamma.shape[0], G.L.shape[1]
        good = StateSpace.zero(nv, nw)
        mod = StateSpace.zero(nu, ny + nw)
        K = StateSpace.zero(nu, ny + nw + nv)
        for bad in self._bad_models():
            with pytest.raises(ValueError, match="maps"):
                call(G, good, bad, mod, K)

    def test_closed_loop_direct_refuses_environment_for_loop(self):
        # The old call form closed_loop_direct(G, env, K), and the (z, y)
        # rows alone, are not the (d, u) -> (z, y, w, v) loop.
        G, _ = _plant(seed=19)
        nu, ny, nw, nv = G.B.shape[1], G.C.shape[0], G.Gamma.shape[0], G.L.shape[1]
        env = StateSpace.zero(nv, nw)
        K = StateSpace.zero(nu, ny + nw + nv)
        pre = assemble_preexisting(G, env)
        for wrong in (env, select(pre, np.arange(G.S.shape[0] + ny))):
            msg = rf"preexisting loop maps {wrong.n_inputs} -> {wrong.n_outputs}, expected"
            with pytest.raises(ValueError, match=msg):
                closed_loop_direct(G, wrong, K)
        assert closed_loop_direct(G, pre, K).n_outputs == G.S.shape[0]

    def test_closed_loop_direct_refuses_wrong_size_controller(self):
        G, _ = _plant(seed=19)
        nu, ny, nw, nv = G.B.shape[1], G.C.shape[0], G.Gamma.shape[0], G.L.shape[1]
        pre = assemble_preexisting(G, StateSpace.zero(nv, nw))
        for bad in self._bad_models():
            msg = (rf"controller maps {bad.n_inputs} -> {bad.n_outputs}, "
                   rf"expected {ny + nw + nv} -> {nu}")
            with pytest.raises(ValueError, match=msg):
                closed_loop_direct(G, pre, bad)


class TestCascade:
    def test_equivalence_with_direct_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            G = random_partitioned_plant(rng)
            env = random_admissible_env(rng, G)
            apx = random_apx(rng, G)
            try:
                module = lqg_module(new_subsystem(G, apx))
            except Exception:
                continue
            K = compose_retrofit(G, apx, module)
            direct = closed_loop_direct(G, assemble_preexisting(G, env), K)
            casc = cascade_realization(G, env, apx, module)
            T_zd = select(casc, np.arange(G.S.shape[0]))
            # Point by point, independent of the state-space certificate.
            for w in 10.0 ** rng.uniform(-2, 2, size=20):
                H = freq_response(direct, w)
                gap = np.abs(H - freq_response(T_zd, w)).max()
                assert gap < 1e-9 * max(1.0, np.abs(H).max())

    def test_tap_identity(self):
        # z = z_hat + z_check as transfer functions.
        G, rng = _plant(seed=13)
        env = random_admissible_env(rng, G)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        casc = cascade_realization(G, env, apx, module)
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            z, z_hat, z_check = np.split(freq_response(casc, w), 3, axis=0)
            assert np.abs(z - (z_hat + z_check)).max() < 1e-9


class TestPerformanceBounds:
    def test_destabilizing_module_refused(self):
        # The bounds evaluate compose_retrofit's controller, so they refuse
        # the modules that compose_retrofit refuses.
        G, rng = _plant(seed=11)
        env = random_admissible_env(rng, G)
        nv = G.L.shape[1]
        apx = StateSpace.zero(nv, nv)
        with pytest.raises(ValueError, match="does not stabilize"):
            performance_bounds(G, env, apx, _destabilizing_module(G))

    def test_sandwich_random(self):
        rng = np.random.default_rng(14)
        done = 0
        while done < 5:
            G = random_partitioned_plant(rng)
            env = random_admissible_env(rng, G)
            apx = random_apx(rng, G)
            try:
                module = lqg_module(new_subsystem(G, apx))
            except Exception:
                continue
            rep = performance_bounds(G, env, apx, module)
            if not rep.stable:
                continue
            assert rep.lower - 1e-9 <= rep.gamma_actual <= rep.upper + 1e-9
            done += 1

    def test_exact_model_collapse(self):
        rng = np.random.default_rng(15)
        G = random_partitioned_plant(rng)
        env = random_admissible_env(rng, G)
        module = lqg_module(new_subsystem(G, env))
        rep = performance_bounds(G, env, env, module)
        assert rep.stable
        assert rep.gamma_check <= 1e-8
        assert abs(rep.gamma_actual - rep.gamma_hat) <= 1e-6 * rep.gamma_hat

    def test_rectified_map_invertibility(self):
        # For an admissible model the w -> w_hat map is nonsingular on a
        # log grid over 1e-3..1e3 (the bound construction divides by it).
        G, rng = _plant(seed=16)
        env = random_admissible_env(rng, G)
        n = G.A.shape[0]
        for w in np.logspace(-3.0, 3.0, 50):
            Ga = _apx_transfer(env, w)
            M = 1j * w * np.eye(n) - G.A - G.L @ Ga @ G.Gamma
            X = np.eye(G.Gamma.shape[0]) + G.Gamma @ np.linalg.solve(
                M, G.L
            ) @ Ga
            Xi = np.linalg.inv(X)
            assert np.abs(X @ Xi - np.eye(X.shape[0])).max() < 1e-9
