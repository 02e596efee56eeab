"""Unit tests for the dense numerics backbone.

Every value-level check is cross-validated against an independent oracle:
characteristic-polynomial roots for the abscissa, a Kronecker-product
linear solve for Lyapunov equations (the library uses Bartels-Stewart),
algebraic residuals for Riccati equations (and, bit for bit, a solve that
guards with ``eigvals`` and factors with ``scipy.linalg.schur``), LAPACK's
sorted ``dgees`` for the ordered Schur forms, bit for bit, closed-form
solutions for the matrix exponential, and dense frequency-grid scans for the
H-infinity norm.
"""

import numpy as np
import pytest
import scipy.linalg

from retrofit_control import numerics
from retrofit_control import (
    NumericsError,
    StateSpace,
    balanced_truncate,
    build_network,
    cascade_realization,
    expm,
    freq_response,
    hinf_norm,
    hinf_synthesize,
    minreal,
    new_subsystem,
    paper_benchmark,
    partition,
    select,
    solve_care,
    solve_lyapunov,
    solve_riccati,
    spectral_abscissa,
)
from retrofit_control.retrofit import _deflate, _ordered_schur


def _gains(sys, w):
    """Max singular value at each frequency of ``w`` (independent oracle)."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    return np.array([
        np.linalg.svd(C @ np.linalg.solve(1j * x * np.eye(n) - A, B) + D,
                      compute_uv=False)[0]
        for x in w
    ])


def _grid_peak(sys, n_points=10_000, w_lo=1e-3, w_hi=1e3):
    """Max singular value over a dense log frequency grid (independent oracle)."""
    peak = np.linalg.svd(sys.D, compute_uv=False)[0] if sys.D.size else 0.0
    w = np.logspace(np.log10(w_lo), np.log10(w_hi), n_points)
    return float(max(peak, _gains(sys, w).max()))


def _refined_peak(sys):
    """Largest gain on a log grid plus 0, the pole frequencies and infinity,
    refined three times between the neighbours of the five best points."""
    poles = np.linalg.eigvals(sys.A)
    w = np.unique(np.concatenate(
        [[0.0], np.logspace(-4, 3, 2000), np.abs(poles.imag)]
    ))
    g = _gains(sys, w)
    peak = max(g.max(), np.linalg.svd(sys.D, compute_uv=False)[0])
    for i in np.argsort(g)[-5:]:
        lo, hi = w[max(i - 1, 0)], w[min(i + 1, w.size - 1)]
        for _ in range(3):
            wf = np.linspace(lo, hi, 41)
            gf = _gains(sys, wf)
            j = int(np.argmax(gf))
            peak = max(peak, gf[j])
            lo, hi = wf[max(j - 1, 0)], wf[min(j + 1, wf.size - 1)]
    return float(peak)


def _count_level_tests(monkeypatch):
    """Record the level of every Hamiltonian level test ``hinf_norm`` runs."""
    levels = []
    real = numerics._gain_above

    def counted(A, B, C, D, gamma, *rest):
        levels.append(gamma)
        return real(A, B, C, D, gamma, *rest)

    monkeypatch.setattr(numerics, "_gain_above", counted)
    return levels


def _near_axis_system(seed, n, m, p, slowest, with_feedthrough):
    """Random stable system whose poles have real parts down to -10**slowest.

    Modal blocks (damped pairs or real poles) under a random similarity.
    """
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    k = 0
    while k < n:
        sigma = -(10.0 ** rng.uniform(slowest, 0.5))
        if k + 1 < n and rng.random() < 0.7:
            w = 10.0 ** rng.uniform(-1.0, 1.0)
            A[k:k + 2, k:k + 2] = [[sigma, w], [-w, sigma]]
            k += 2
        else:
            A[k, k] = sigma
            k += 1
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    D = rng.standard_normal((p, m)) if with_feedthrough else np.zeros((p, m))
    return StateSpace(
        T @ A @ np.linalg.inv(T),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        D,
    )


def _gamma_check_system(k_c, n_apx, alpha, seed):
    """The d -> z_check system whose norm is a sweep row's ``gamma_check``:
    the ``z_check`` rows of the deflated cascade, with no ``minreal``."""
    spec, assign = paper_benchmark(k_c, seed=seed)
    G, env = partition(build_network(spec), spec, assign)
    env = minreal(env.sys)
    apx = balanced_truncate(env, n_apx).reduced
    module, _ = hinf_synthesize(new_subsystem(G, apx), alpha)
    _, casc = _deflate(cascade_realization(G, env, apx, module))
    nz = G.S.shape[0]
    return select(casc, np.arange(2 * nz, 3 * nz))


class TestSpectralAbscissa:
    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A = rng.standard_normal((8, 8))
            # Oracle: roots of det(sI - A) via the characteristic polynomial.
            coeffs = np.poly(A)
            roots = np.roots(coeffs)
            assert spectral_abscissa(A) == pytest.approx(
                np.max(roots.real), abs=1e-8
            )

    def test_diagonal(self):
        A = np.diag([-3.0, -1.0, -0.25])
        assert spectral_abscissa(A) == pytest.approx(-0.25, abs=1e-12)


def _kronecker_lyapunov(A, Q):
    """Oracle: vectorized solve of (I (x) A + A (x) I) vec(P) = -vec(Q)."""
    n = A.shape[0]
    M = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    return np.linalg.solve(M, -Q.reshape(-1)).reshape(n, n)


def _oscillator_chain(n_nodes):
    """Lightly damped grounded spring chain with stiffnesses from 0.1 to 100.

    Unit masses and damping 0.02, angle/rate states as in ``oscnet``; the
    spread stiffnesses give natural frequencies over about two decades, all
    poles at real part -0.01.
    """
    k = np.logspace(-1, 2, n_nodes + 1)
    L = np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)
    eye = np.eye(n_nodes)
    return np.block([[np.zeros((n_nodes, n_nodes)), eye], [-L, -0.02 * eye]])


class TestLyapunov:
    def _assert_matches_oracle(self, A, Q):
        P = solve_lyapunov(A, Q)
        P_ref = _kronecker_lyapunov(A, Q)
        assert np.abs(P - P_ref).max() < 1e-9 * max(1.0, np.abs(P_ref).max())

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = 6
            A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
            Q0 = rng.standard_normal((n, n))
            self._assert_matches_oracle(A, Q0 @ Q0.T)

    def test_matches_kronecker_oracle_at_environment_size(self):
        # n = 52 is the state count of the paper network's minimal environment.
        rng = np.random.default_rng(4)
        n = 52
        A = rng.standard_normal((n, n))
        A = A - (spectral_abscissa(A) + 0.5) * np.eye(n)
        B = rng.standard_normal((n, 3))
        self._assert_matches_oracle(A, B @ B.T)

    def test_matches_kronecker_oracle_on_lightly_damped_chain(self):
        A = _oscillator_chain(26)
        assert -0.011 < spectral_abscissa(A) < -0.009
        B = np.zeros((52, 2))
        B[26, 0] = B[51, 1] = 1.0
        self._assert_matches_oracle(A, B @ B.T)
        self._assert_matches_oracle(A.T, np.eye(52))

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([1.0, -1.0]),
            np.array([[0.0, 2.0], [-2.0, 0.0]]),
            np.diag([-1.0, 0.0]),
        ],
        ids=["real-pair", "imaginary-axis-pair", "zero-eigenvalue"],
    )
    def test_singular_operator_raises(self, A):
        with pytest.raises(NumericsError, match="singular Lyapunov operator"):
            solve_lyapunov(A, np.eye(2))

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(2)
        n = 12
        A = rng.standard_normal((n, n)) - 4.0 * np.eye(n)
        Q = np.eye(n)
        P = solve_lyapunov(A, Q)
        res = np.linalg.norm(A @ P + P @ A.T + Q)
        scale = np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(Q)
        assert res <= 1e-8 * scale
        assert np.linalg.norm(P - P.T) <= 1e-10 * max(1.0, np.linalg.norm(P))

    def test_scalar(self):
        # a p + p a + q = 0 with a = -2, q = 4 gives p = 1.
        P = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestCare:
    def test_scalar_closed_form(self):
        # a=0, b=1, q=1, r=1: p^2 = 1 with p > 0, so p = 1.
        P = solve_care(
            np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))
        )
        assert P[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_scalar_closed_form_shifted(self):
        # a=1, b=1, q=2, r=1: p^2 - 2p - 2 = 0, stabilizing root 1 + sqrt(3).
        P = solve_care(
            np.ones((1, 1)), np.ones((1, 1)), 2.0 * np.ones((1, 1)), np.ones((1, 1))
        )
        assert P[0, 0] == pytest.approx(1.0 + np.sqrt(3.0), abs=1e-10)

    def test_residual_and_stability(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            n, m = 5, 2
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            Q = np.eye(n)
            R = np.eye(m)
            P = solve_care(A, B, Q, R)
            res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
            scale = max(1.0, np.linalg.norm(P)) ** 2
            assert np.linalg.norm(res) <= 1e-8 * scale
            F = np.linalg.solve(R, B.T @ P)
            assert spectral_abscissa(A - B @ F) < 0.0

    def test_riccati_indefinite_midterm(self):
        # solve_riccati accepts an indefinite quadratic term; verify by residual.
        rng = np.random.default_rng(4)
        n = 4
        A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        S = B @ B.T - 0.1 * np.eye(n)
        Q = C.T @ C
        X = solve_riccati(A, S, Q)
        res = A.T @ X + X @ A - X @ S @ X + Q
        assert np.linalg.norm(res) <= 1e-7 * max(1.0, np.linalg.norm(X)) ** 2


def _two_solve_riccati(A, S, Q):
    """``solve_riccati`` as two factorizations wrote it (bit-level oracle):
    the axis guard from ``eigvals(H)``, then ``scipy.linalg.schur``."""
    n = A.shape[0]
    H = np.block([[A, -S], [-Q, -A.T]])
    eigs = np.linalg.eigvals(H)
    if np.min(np.abs(eigs.real)) <= 1e-9 * max(1.0, np.max(np.abs(eigs))):
        raise NumericsError("on the axis")
    _, Z, sdim = scipy.linalg.schur(H, output="real", sort="lhp")
    assert sdim == n
    P = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T
    return 0.5 * (P + P.T)


def _riccati_cases():
    """``TestCare``'s equations, then random solvable ones of order 1-30,
    half of them with an indefinite quadratic term as H-infinity levels give."""
    one = np.ones((1, 1))
    cases = [(np.zeros((1, 1)), one, one), (one, one, 2.0 * one)]
    rng = np.random.default_rng(3)
    for _ in range(4):
        # The quadratic term solve_care hands on, R = I.
        A, B = rng.standard_normal((5, 5)), rng.standard_normal((5, 2))
        S = B @ np.linalg.solve(np.eye(2), B.T)
        cases.append((A, 0.5 * (S + S.T), np.eye(5)))
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
    B, C = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
    cases.append((A, B @ B.T - 0.1 * np.eye(4), C.T @ C))
    rng = np.random.default_rng(27)
    for i in range(20):
        n = int(rng.integers(1, 31))
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
        B1, B2 = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        S = B2 @ B2.T - (0.002 * B1 @ B1.T if i % 2 else 0.0)
        cases.append((A, S, C.T @ C + 1e-3 * np.eye(n)))
    return cases


class TestRiccatiSchur:
    """One ordered Schur form serves the solve and its axis guard."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 25, 40])
    def test_schur_helper_is_scipy_schur(self, n):
        # Random Hamiltonians of order 4-80: T, Z and sdim in bits.
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        S, Q = rng.standard_normal((2, n, n))
        H = np.block([[A, -(S + S.T)], [-(Q + Q.T), -A.T]])
        T, Z, sdim, eigs, info = numerics._schur(H, lambda re, im: re < 0.0)
        Ts, Zs, ks = scipy.linalg.schur(H, output="real", sort="lhp")
        assert info == 0
        assert sdim == ks
        assert T.tobytes() == Ts.tobytes()
        assert Z.tobytes() == Zs.tobytes()
        assert np.sort_complex(eigs) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(H)), rel=1e-8, abs=1e-8
        )

    @pytest.mark.parametrize("case", range(27))
    def test_solution_is_the_two_factorization_one(self, case):
        A, S, Q = _riccati_cases()[case]
        assert solve_riccati(A, S, Q).tobytes() == _two_solve_riccati(A, S, Q).tobytes()

    def test_axis_guard(self):
        Z = np.zeros((3, 3))
        with pytest.raises(NumericsError, match="eigenvalues on the imaginary axis"):
            solve_riccati(Z, Z, Z)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (-1, "Schur form not found. Possibly ill-conditioned."),
            (1, "Eigenvalues could not be separated for reordering."),
            (2, "Leading eigenvalues do not satisfy sort condition."),
        ],
        ids=["not-found", "not-separated", "not-sorted"],
    )
    def test_lapack_failures_keep_scipy_messages(self, monkeypatch, extra, message):
        # LAPACK's info, 1..2n or 2n + 1, 2n + 2, on an equation that solves.
        real = numerics._schur

        def failing(H, select):
            T, Z, sdim, eigs, _ = real(H, select)
            return T, Z, sdim, eigs, H.shape[0] + extra

        monkeypatch.setattr(numerics, "_schur", failing)
        A, S, Q = _riccati_cases()[2]
        with pytest.raises(np.linalg.LinAlgError) as exc:
            solve_riccati(A, S, Q)
        assert str(exc.value) == message

    def test_axis_guard_before_reorder_failure(self, monkeypatch):
        real = numerics._schur
        monkeypatch.setattr(
            numerics, "_schur",
            lambda H, select: real(H, select)[:4] + (H.shape[0] + 1,),
        )
        Z = np.zeros((2, 2))
        with pytest.raises(NumericsError, match="imaginary axis"):
            solve_riccati(Z, Z, Z)


# Each ordering as _schur takes it, vectorized over (wr, wi), and as a
# scalar dgees callback.  A pair counts as selected when either eigenvalue
# is, so "upper" picks whole pairs and no real eigenvalue.
_ORDERINGS = {
    "lhp": (lambda wr, wi: wr < 0.0, lambda re, im: re < 0.0),
    "marginal": (
        lambda wr, wi: wr >= -numerics._IMAG_TOL * (1.0 + np.hypot(wr, wi)),
        lambda re, im: re >= -numerics._IMAG_TOL * (1.0 + abs(complex(re, im))),
    ),
    "upper": (lambda wr, wi: wi > 0.0, lambda re, im: im > 0.0),
    "empty": (lambda wr, wi: np.zeros(wr.shape, dtype=bool), lambda re, im: False),
}


def _hamiltonian(rng, n):
    """A random Hamiltonian matrix of order 2n."""
    A = rng.standard_normal((n, n))
    S, Q = rng.standard_normal((2, n, n))
    return np.block([[A, -(S + S.T)], [-(Q + Q.T), -A.T]])


def _schur_cases():
    """Random matrices of order 1-120; Hamiltonians of order 2-22, among
    them some whose reordered stable eigenvalues no longer lead (a real one
    and a pair, dgees's info n + 2), and of order 40 and 80; matrices with
    0-3 hidden marginal modes; and matrices dgees scales for their range."""
    rng = np.random.default_rng(29)
    for n in [1, 120] + list(rng.integers(2, 120, size=20)):
        yield rng.standard_normal((n, n))
    rng = np.random.default_rng(0)
    for n in list(rng.integers(1, 12, size=300)) + [20, 40]:
        yield _hamiltonian(rng, n)
    for k in range(4):
        # k hidden marginal modes: a pair on the axis, then a zero eigenvalue.
        marginal = [np.array([[0.0, 2.0], [-2.0, 0.0]])] * (k // 2) + [np.zeros((1, 1))] * (k % 2)
        for rest in (1, 4, 11):
            J = scipy.linalg.block_diag(*marginal, -np.diag(rng.uniform(0.1, 2.0, rest)))
            V = rng.standard_normal(J.shape)
            yield V @ J @ np.linalg.inv(V)
    for scale in (2.0**-470, 2.0**470):
        yield scale * rng.standard_normal((9, 9))


class TestSchurReorder:
    """_schur is dgees's sorted Schur form, from dgees unsorted and dtrsen."""

    @pytest.mark.parametrize("ordering", sorted(_ORDERINGS))
    def test_bit_equal_to_sorted_dgees(self, ordering):
        vectorized, scalar = _ORDERINGS[ordering]
        infos = set()  # 0, or info - n for a failed reordering
        for A in _schur_cases():
            T, Z, sdim, eigs, info = numerics._schur(A, vectorized)
            Ts, ks, wr, wi, Zs, _, ref_info = scipy.linalg.lapack.dgees(scalar, A, sort_t=1)
            assert (sdim, info) == (ks, ref_info)
            assert T.tobytes() == Ts.tobytes()
            assert Z.tobytes() == Zs.tobytes()
            assert eigs.tobytes() == (wr + 1j * wi).tobytes()
            infos.add(info and info - A.shape[0])
        assert infos == ({0, 2} if ordering == "lhp" else {0})

    def test_reorders_only_a_selection(self, monkeypatch):
        real, calls = numerics._dtrsen, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(numerics, "_dtrsen", counted)
        for A in _schur_cases():
            numerics._schur(A, _ORDERINGS["empty"][0])
        assert not calls
        numerics._schur(np.diag([-1.0, 0.0]), _ORDERINGS["marginal"][0])
        assert [list(c) for c in calls] == [[False, True]]

    def test_reorder_failure_keeps_messages(self, monkeypatch):
        # dtrsen's failure is dgees's info n + 1 in both callers.
        real = numerics._dtrsen
        monkeypatch.setattr(
            numerics, "_dtrsen", lambda *args, **kwargs: real(*args, **kwargs)[:-1] + (1,)
        )
        A, S, Q = _riccati_cases()[2]
        with pytest.raises(np.linalg.LinAlgError) as exc:
            solve_riccati(A, S, Q)
        assert str(exc.value) == "Eigenvalues could not be separated for reordering."
        with pytest.raises(np.linalg.LinAlgError) as exc:
            _ordered_schur(np.diag([-1.0, 0.0, -2.0]))
        assert str(exc.value) == "ordered real Schur form failed (dgees info 4)"


class TestExpm:
    def test_semigroup_property(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        s, t = 0.37, 0.81
        lhs = expm(A * (s + t))
        rhs = expm(A * s) @ expm(A * t)
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(lhs).max()

    def test_nilpotent_closed_form(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        # exp(N t) = I + N t exactly for nilpotent N.
        E = expm(2.5 * N)
        assert np.abs(E - np.array([[1.0, 2.5], [0.0, 1.0]])).max() < 1e-14

    def test_diagonal(self):
        d = np.array([-1.0, 0.5, 2.0])
        E = expm(np.diag(d))
        assert np.abs(np.diag(E) - np.exp(d)).max() < 1e-12


def _scalar_response(A, B, C, D, w):
    """One point as the unbatched evaluation computed it (bit-level oracle)."""
    n = A.shape[0]
    if n == 0:
        return D
    return C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D


class TestFreqCore:
    """The batched core gives every point the bits of its own solve."""

    @staticmethod
    def _check(sys, grid):
        # Bit-equality with a dense solve holds on the LU path only.
        assert not numerics._banded(sys.n_states)
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        ref = np.array([_scalar_response(A, B, C, D, w) for w in grid])
        gains = [np.linalg.svd(G, compute_uv=False)[0] for G in ref]
        assert np.array_equal(numerics._freq_gain(A, B, C, D, grid), gains)
        assert np.array_equal(freq_response(sys, grid), ref)

    @staticmethod
    def _system(rng, n, m, p):
        A = rng.standard_normal((n, n))
        A = A - (spectral_abscissa(A) + 0.1) * np.eye(n)
        return StateSpace(A, rng.standard_normal((n, m)),
                          rng.standard_normal((p, n)), rng.standard_normal((p, m)))

    def test_random_systems(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, m, p = (int(k) for k in rng.integers(1, [40, 4, 4], endpoint=True))
            self._check(self._system(rng, n, m, p), 10.0 ** rng.uniform(-3, 3, 30))

    def test_grid_spanning_batches(self):
        rng = np.random.default_rng(9)
        n = 12
        grid = np.logspace(-3, 3, 500)
        assert grid.size > 5 * (numerics._FREQ_BATCH // n**2)
        self._check(self._system(rng, n, 2, 3), grid)

    def test_repeated_frequencies(self):
        rng = np.random.default_rng(10)
        grid = np.repeat([0.0, 0.3, 2.0, 7.5], 3)[np.argsort(rng.random(12))]
        self._check(self._system(rng, 9, 3, 2), grid)


def _hessenberg_realization(sys):
    """The realization ``(Q^T A Q, Q^T B, C Q, D)`` with upper Hessenberg ``A``."""
    A, Q = scipy.linalg.hessenberg(sys.A, calc_q=True)
    return StateSpace(A, Q.T @ sys.B, sys.C @ Q, sys.D)


class TestHessenbergPath:
    """A large upper Hessenberg system gets one banded solve per point."""

    @staticmethod
    def _counted_solves(monkeypatch):
        calls = []
        real = numerics._zgbsv

        def counted(*args, **kwargs):
            calls.append(args[2].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(numerics, "_zgbsv", counted)
        return calls

    @staticmethod
    def _modal_system(seed, n, m, p, light):
        """Random stable MIMO system: damped pairs and real poles under a
        random orthogonal similarity; ``light`` adds a pair at -1e-3 +- 2j.

        Unlike ``_near_axis_system``'s ``I + 0.3 N`` similarity, which is
        ill-conditioned at these sizes, an orthogonal one keeps two
        backward-stable solvers within 1e-12 of each other."""
        rng = np.random.default_rng(seed)
        A = np.zeros((n, n))
        k = 0
        if light:
            A[:2, :2] = [[-1e-3, 2.0], [-2.0, -1e-3]]
            k = 2
        while k < n:
            sigma = -(10.0 ** rng.uniform(-1.0, 0.5))
            if k + 1 < n and rng.random() < 0.7:
                w = 10.0 ** rng.uniform(-1.0, 1.0)
                A[k:k + 2, k:k + 2] = [[sigma, w], [-w, sigma]]
                k += 2
            else:
                A[k, k] = sigma
                k += 1
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return StateSpace(Q @ A @ Q.T, rng.standard_normal((n, m)),
                          rng.standard_normal((p, n)), rng.standard_normal((p, m)))

    @pytest.mark.parametrize("n, m, p, light", [(46, 3, 2, False), (64, 2, 3, True),
                                                (103, 3, 3, False)])
    def test_matches_dense_solve(self, monkeypatch, n, m, p, light):
        # Oracle: a dense solve per point on the unreduced realization.  The
        # grid holds every pole frequency, the lightly damped one too.
        sys = self._modal_system(n, n, m, p, light)
        poles = np.linalg.eigvals(sys.A)
        grid = np.unique(np.concatenate([[0.0], np.logspace(-3, 3, 60),
                                         np.abs(poles.imag)]))
        ref = np.array([_scalar_response(sys.A, sys.B, sys.C, sys.D, w) for w in grid])
        calls = self._counted_solves(monkeypatch)
        H = freq_response(_hessenberg_realization(sys), grid)
        assert len(calls) == grid.size
        err = np.abs(H - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert err.max() < 1e-12

    def test_grid_equals_scalar_calls(self):
        sys = _hessenberg_realization(self._modal_system(4, 64, 2, 3, light=True))
        grid = np.concatenate([np.logspace(-2, 2, 25), [0.0, 0.3, 0.3]])
        H = freq_response(sys, grid)
        gains = numerics._freq_gain(sys.A, sys.B, sys.C, sys.D, grid)
        for k, w in enumerate(grid):
            assert np.array_equal(freq_response(sys, w), H[k])
            assert np.array_equal(
                numerics._freq_gain(sys.A, sys.B, sys.C, sys.D, grid[k:k + 1]),
                gains[k:k + 1])

    def test_path_chosen_by_size_and_form(self, monkeypatch):
        # 45^2 entries fill half a batch of _FREQ_BATCH; 46^2 do not.  A
        # dense A keeps the LU path, and its bits, at any size.
        calls = self._counted_solves(monkeypatch)
        grid = np.logspace(-1, 1, 7)
        rng = np.random.default_rng(3)
        freq_response(_hessenberg_realization(TestFreqCore._system(rng, 45, 2, 2)), grid)
        assert calls == []
        dense = TestFreqCore._system(rng, 46, 2, 2)
        H = freq_response(dense, grid)
        assert calls == []
        for k, w in enumerate(grid):
            assert np.array_equal(H[k], _scalar_response(dense.A, dense.B, dense.C,
                                                         dense.D, w))
        freq_response(_hessenberg_realization(dense), grid)
        assert calls == [(48, 46)] * grid.size

    def test_hinf_norm_reduces_once(self, monkeypatch):
        reductions = []
        real = scipy.linalg.hessenberg

        def counted(A, **kwargs):
            reductions.append(A.shape)
            return real(A, **kwargs)

        monkeypatch.setattr(scipy.linalg, "hessenberg", counted)
        solves = self._counted_solves(monkeypatch)
        sys = self._modal_system(5, 52, 2, 2, light=True)
        val = hinf_norm(sys, tol=1e-8)
        assert reductions == [(52, 52)]
        assert solves and set(solves) == {(54, 52)}
        peak = _refined_peak(sys)
        assert val >= peak * (1.0 - 1e-8)
        assert val == pytest.approx(peak, rel=1e-6)

    def test_hinf_norm_takes_schur_form_as_it_is(self, monkeypatch):
        # A real Schur form is upper Hessenberg already: no reduction, the
        # banded path on every gain, and the dense realization's norm.
        sys = self._modal_system(5, 52, 2, 2, light=True)
        T, Z = scipy.linalg.schur(sys.A, output="real")
        schur = StateSpace(T, Z.T @ sys.B, sys.C @ Z, sys.D)
        expected = hinf_norm(sys, tol=1e-8)
        reductions = []
        real = scipy.linalg.hessenberg

        def counted(A, **kwargs):
            reductions.append(A.shape)
            return real(A, **kwargs)

        monkeypatch.setattr(scipy.linalg, "hessenberg", counted)
        solves = self._counted_solves(monkeypatch)
        assert hinf_norm(schur, tol=1e-8) == pytest.approx(expected, rel=1e-8)
        assert reductions == []
        assert solves and set(solves) == {(54, 52)}

    @pytest.mark.parametrize("n", [10, 50])
    def test_singular_point_raises(self, n):
        # Upper triangular, so already Hessenberg, with an exact zero pole.
        rng = np.random.default_rng(n)
        A = np.triu(rng.standard_normal((n, n)))
        np.fill_diagonal(A, -1.0)
        A[n // 2, n // 2] = 0.0
        B, C, D = np.ones((n, 2)), np.ones((2, n)), np.zeros((2, 2))
        assert numerics._banded(n) == (n == 50)
        with pytest.raises(np.linalg.LinAlgError):
            numerics._freq_eval(A, B, C, D, np.array([1.0, 0.0]))


class TestHinfNorm:
    def test_first_order_lag(self):
        # 1/(s+1) has peak gain 1 at w = 0.
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        assert hinf_norm(sys, tol=1e-8) == pytest.approx(1.0, rel=1e-7)

    def test_resonant_second_order(self):
        # 1/(s^2 + 2 zeta s + 1): peak 1/(2 zeta sqrt(1 - zeta^2)).
        zeta = 0.1
        A = np.array([[0.0, 1.0], [-1.0, -2.0 * zeta]])
        sys = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]])
        expected = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
        assert hinf_norm(sys, tol=1e-9) == pytest.approx(expected, rel=1e-8)

    def test_feedthrough_only(self):
        D = np.array([[3.0, 0.0], [0.0, 1.0]])
        sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D)
        assert hinf_norm(sys) == pytest.approx(3.0, abs=1e-12)

    def test_gain_tie_at_zero_frequency(self):
        # With C = 0 the gain is |D| at every frequency, so the probe at 0
        # ties exactly with the one at the only pole frequency.
        A = np.array([[-0.1, 1.0], [-1.0, -0.1]])
        sys = StateSpace(A, [[1.0], [0.0]], [[0.0, 0.0]], [[2.0]])
        assert hinf_norm(sys) == pytest.approx(2.0, rel=1e-6)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = 10
            A = rng.standard_normal((n, n))
            A = A - (spectral_abscissa(A) + 0.5) * np.eye(n)
            sys = StateSpace(
                A, rng.standard_normal((n, 2)), rng.standard_normal((2, n))
            )
            val = hinf_norm(sys, tol=1e-8)
            ref = _grid_peak(sys)
            assert val >= ref * (1.0 - 1e-8)
            assert val == pytest.approx(ref, rel=1e-4)

    def test_rejects_imaginary_axis_pole(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]])
        with pytest.raises(NumericsError):
            hinf_norm(sys)

    @pytest.mark.parametrize(
        "k_c, n_apx, alpha, seed",
        [
            # Near the peak (w ~ 0.039) the crossing eigenvalues sit 3e-5 off
            # the axis: a bisection with 1e-10/1e-7 axis bands stopped 4.4e-3
            # low, a level set with a 1e-6 band 6e-6 low.
            (8.0, 12, 0.01, 6),
            # Just above the DC gain the crossing pair near w = 0 leaves the
            # axis; a level set with a 1e-6 band and without w = 0 as an
            # interval endpoint stopped 0.24 low.
            (10.0, 8, 0.2, 35),
        ],
    )
    def test_not_below_attained_gain_on_sweep_systems(
        self, k_c, n_apx, alpha, seed, monkeypatch
    ):
        sys = _gamma_check_system(k_c, n_apx, alpha, seed)
        levels = _count_level_tests(monkeypatch)
        val = hinf_norm(sys, tol=1e-8)
        peak = _refined_peak(sys)
        assert val >= peak * (1.0 - 1e-8)
        assert val == pytest.approx(peak, rel=1e-4)
        # Without a refined witness these took 4 and 5 level tests.
        assert len(levels) <= 3

    def test_about_one_level_test_per_norm(self, monkeypatch):
        # The refined witness is usually a local peak, so the first level
        # test certifies it; without refinement the mean was 1.9.
        levels = _count_level_tests(monkeypatch)
        rng = np.random.default_rng(0)
        n_draws = 200
        for _ in range(n_draws):
            sys = _near_axis_system(
                int(rng.integers(2**32)), int(rng.integers(1, 11)),
                int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                float(rng.uniform(-3.0, 0.0)), bool(rng.random() < 0.5),
            )
            hinf_norm(sys, tol=1e-8)
        assert len(levels) / n_draws <= 1.2

    def test_property_near_imaginary_axis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=60, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(1, 10),
            m=st.integers(1, 3),
            p=st.integers(1, 3),
            slowest=st.floats(-3.0, 0.0),
            with_feedthrough=st.booleans(),
        )
        def check(seed, n, m, p, slowest, with_feedthrough):
            sys = _near_axis_system(seed, n, m, p, slowest, with_feedthrough)
            val = hinf_norm(sys, tol=1e-8)
            peak = _refined_peak(sys)
            # The norm lies within tol of the bracket's midpoint.
            assert val >= peak * (1.0 - 1e-8)
            assert val == pytest.approx(peak, rel=1e-4)

        check()
