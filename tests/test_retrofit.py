"""Unit tests for the retrofit construction itself.

The rectifier is checked against a pointwise transfer-function oracle
derived from its defining equations, the kernel and invariance properties
against frequency-grid evaluation, the cascade against the direct closed
loop, and the performance bounds against the exact-model collapse.
"""

import numpy as np
import pytest

from retrofit_control import (
    EnvironmentModel,
    NumericsError,
    PartitionedPlant,
    StateSpace,
    assemble_preexisting,
    cascade_realization,
    check_admissible,
    close_loop,
    closed_loop_direct,
    compose_retrofit,
    default_frequency_grid,
    deflate_hidden,
    deflated_abscissa,
    direct_controller,
    extended_rectifier,
    freq_response,
    hinf_norm,
    invariance_residual,
    kernel_residual,
    lqg_module,
    minreal,
    new_subsystem,
    performance_bounds,
    select_channels,
    spectral_abscissa,
)
from retrofit_control import ModuleController, add, negate
from retrofit_control.verification import (
    random_admissible_env,
    random_apx,
    random_partitioned_plant,
)


def _plant(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return random_partitioned_plant(rng, n=n), rng


def _apx_transfer(apx, w):
    s = apx.sys
    if s.n_states == 0:
        return s.D.astype(complex)
    return s.C @ np.linalg.solve(1j * w * np.eye(s.n_states) - s.A, s.B) + s.D


def _rectifier_oracle(G, apx, w):
    """Pointwise (y, w, v) -> (y_hat, w_hat) map from the defining equations.

    The internal mirror state obeys
    ``x' = A x + L (v - Ga(s) (w - Gamma x))`` and the outputs are
    ``y - C x`` and ``w - Gamma x``.
    """
    n = G.sys.n_states
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


class TestExtendedRectifier:
    def test_zero_model_transfer(self):
        # With a zero model the rectified outputs are y - G_yv v, w - G_wv v.
        G, rng = _plant(seed=0)
        nv = len(G.cmap.inputs["v"])
        nw = len(G.cmap.outputs["w"])
        rect = extended_rectifier(G, EnvironmentModel.zero(nv, nv))
        ny = G.C.shape[0]
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            H = freq_response(rect.sys, w)
            n = G.sys.n_states
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
        apx = EnvironmentModel(
            StateSpace(
                np.array([[-1.0, 0.3], [0.0, -2.0]]),
                rng.standard_normal((2, 2)),
                rng.standard_normal((2, 2)),
                0.1 * rng.standard_normal((2, 2)),
            )
        )
        rect = extended_rectifier(G, apx)
        for w in 10.0 ** rng.uniform(-2, 2, size=50):
            H = freq_response(rect.sys, w)
            ref = _rectifier_oracle(G, apx, w)
            assert np.abs(H - ref).max() < 1e-9

    def test_unstable_model_still_annihilates(self):
        G, rng = _plant(seed=2)
        apx = EnvironmentModel(
            StateSpace([[0.5]], rng.standard_normal((1, 2)),
                       rng.standard_normal((2, 1)))
        )
        assert kernel_residual(G, extended_rectifier(G, apx)) < 1e-8

    def test_static_model_adds_no_states(self):
        G, rng = _plant(seed=3)
        apx = EnvironmentModel.from_gain(0.3 * rng.standard_normal((2, 2)))
        rect = extended_rectifier(G, apx)
        assert rect.sys.n_states == G.sys.n_states

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
        nv = len(G.cmap.inputs["v"])
        rect = extended_rectifier(G, EnvironmentModel.zero(nv, nv))
        s = rect.sys
        broken = type(rect)(StateSpace(s.A, s.B, s.C, -s.D), rect.plant, rect.apx)
        assert kernel_residual(G, broken) > 1e-3


class TestAdmissibility:
    def test_true_environment_admissible(self):
        G, rng = _plant(seed=6)
        env = random_admissible_env(rng, G)
        assert check_admissible(G, env)
        pre = assemble_preexisting(G, env)
        assert spectral_abscissa(pre.A) < 0.0

    def test_destabilizing_environment_rejected(self):
        G, _ = _plant(seed=7)
        nv = len(G.cmap.inputs["v"])
        env = EnvironmentModel.from_gain(1e3 * np.ones((nv, nv)))
        assert not check_admissible(G, env)


class TestDeflation:
    def test_hidden_marginal_mode_removed(self):
        # Mode at the origin decoupled from input and output.
        A = np.diag([0.0, -1.0])
        sys = StateSpace(A, [[0.0], [1.0]], [[0.0, 1.0]])
        assert deflated_abscissa(sys) == pytest.approx(-1.0, abs=1e-9)
        assert deflate_hidden(sys).n_states == 1

    def test_visible_marginal_mode_kept(self):
        A = np.diag([0.0, -1.0])
        sys = StateSpace(A, [[1.0], [1.0]], [[1.0, 1.0]])
        assert deflated_abscissa(sys) >= -1e-12
        assert deflate_hidden(sys).n_states == 2

    def test_stable_system_untouched(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
        sys = StateSpace(A, rng.standard_normal((4, 1)), rng.standard_normal((1, 4)))
        assert deflated_abscissa(sys) == pytest.approx(
            spectral_abscissa(A), abs=1e-10
        )


class TestRetrofitComposition:
    def test_invariance_residual_small_for_retrofit(self):
        G, rng = _plant(seed=9)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        K = compose_retrofit(module, extended_rectifier(G, apx))
        assert invariance_residual(G, K) < 1e-8

    def test_invariance_residual_large_for_direct(self):
        from retrofit_control import paper_benchmark, build_network, partition

        spec, assign = paper_benchmark(5.0)
        G, env = partition(build_network(spec), spec, assign)
        nv = len(G.cmap.inputs["v"])
        apx = EnvironmentModel.zero(nv, nv)
        module = lqg_module(new_subsystem(G, apx))
        K_direct = direct_controller(G, module)
        assert invariance_residual(G, K_direct) > 1e-3

    def test_static_module_realization(self):
        G, rng = _plant(seed=10)
        nv = len(G.cmap.inputs["v"])
        apx = EnvironmentModel.zero(nv, nv)
        rect = extended_rectifier(G, apx)
        Ky = 0.1 * rng.standard_normal((2, 2))
        Kw = 0.1 * rng.standard_normal((2, 2))
        module = ModuleController.from_static(Ky, Kw)
        K = compose_retrofit(module, rect)
        gain = np.hstack([Ky, Kw])
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            ref = gain @ freq_response(rect.sys, w)
            assert np.abs(freq_response(K, w) - ref).max() < 1e-10

    def test_destabilizing_module_rejected(self):
        G, _ = _plant(seed=11)
        nv = len(G.cmap.inputs["v"])
        apx = EnvironmentModel.zero(nv, nv)
        rect = extended_rectifier(G, apx)
        # Find a static gain that provably destabilizes the design loop.
        for scale in (1.0, -1.0, 10.0, -10.0, 100.0, -100.0, 1e3, -1e3):
            Ky = scale * np.ones((2, 2))
            A_cl = G.A + G.B @ (Ky @ G.C)
            if spectral_abscissa(A_cl) > 1e-6:
                bad = ModuleController.from_static(Ky, np.zeros((2, 2)))
                with pytest.raises(Exception):
                    compose_retrofit(bad, rect)
                return
        pytest.fail("no destabilizing static gain found for this plant")


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
            design = select_channels(gplus.sys, gplus.cmap, ("u",), ("y", "w"))
            ref = close_loop(design, module.sys, np.arange(design.n_inputs),
                             np.arange(design.n_outputs))
            up = cascade_realization(G, env, apx, module).upstream
            assert np.abs(up.A - ref.A).max() <= 1e-12 * max(1.0, np.abs(ref.A).max())

    def test_wrong_size_module_rejected(self):
        G, _ = _plant(seed=18)
        nv = len(G.cmap.inputs["v"])
        rect = extended_rectifier(G, EnvironmentModel.zero(nv, nv))
        bad = ModuleController.from_static(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="module maps 5 -> 2"):
            compose_retrofit(bad, rect)


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
            direct = closed_loop_direct(G, env, compose_retrofit(
                module, extended_rectifier(G, apx)))
            casc = cascade_realization(G, env, apx, module)
            gap = hinf_norm(minreal(add(direct, negate(casc.T_zd))))
            ref = hinf_norm(minreal(direct))
            assert gap <= 1e-6 * max(ref, 1e-12)

    def test_tap_identity(self):
        # z = z_hat + z_check as transfer functions.
        G, rng = _plant(seed=13)
        env = random_admissible_env(rng, G)
        apx = random_apx(rng, G)
        module = lqg_module(new_subsystem(G, apx))
        casc = cascade_realization(G, env, apx, module)
        taps = casc.taps()
        zc = casc.tapped
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            H = freq_response(zc, w)
            total = H[taps["z_hat"], :] + H[taps["z_check"], :]
            assert np.abs(H[taps["z"], :] - total).max() < 1e-9


class TestPerformanceBounds:
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
        # For an admissible model the w -> w_hat map is nonsingular on the
        # standard frequency grid (the bound construction divides by it).
        G, rng = _plant(seed=16)
        env = random_admissible_env(rng, G)
        n = G.sys.n_states
        for w in default_frequency_grid(50):
            Ga = _apx_transfer(env, w)
            M = 1j * w * np.eye(n) - G.A - G.L @ Ga @ G.Gamma
            X = np.eye(G.Gamma.shape[0]) + G.Gamma @ np.linalg.solve(
                M, G.L
            ) @ Ga
            Xi = np.linalg.inv(X)
            assert np.abs(X @ Xi - np.eye(X.shape[0])).max() < 1e-9
