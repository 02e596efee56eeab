"""Unit tests for the state-space LTI layer.

Interconnections are validated pointwise against complex transfer-matrix
arithmetic at random frequencies, simulation against closed-form solutions,
and minimal realization against hand-built nonminimal systems.  The fast
paths of ``close_loop`` (no loop feedthrough) and ``select`` (no copy) are
pinned bit for bit to the general code.
"""

import warnings

import numpy as np
import pytest

from retrofit_control import lti
from retrofit_control import (
    StateSpace,
    add,
    close_loop,
    freq_response,
    minreal,
    negate,
    select,
    series,
    simulate,
)
from retrofit_control.numerics import _block


def _rand_sys(rng, n, m, p, shift=2.0):
    A = rng.standard_normal((n, n)) - shift * np.eye(n)
    return StateSpace(
        A,
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        rng.standard_normal((p, m)),
    )


class TestStateSpace:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))

    def test_immutable(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises((AttributeError, ValueError)):
            sys.A = np.zeros((1, 1))
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        A, B, C, D = -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))
        sys = StateSpace(A, B, C, D)
        for M in (A, B, C, D):
            assert M.flags.writeable
            M[0, 0] = 5.0
        assert np.array_equal(sys.A, -np.eye(2))
        assert np.array_equal(sys.B, np.ones((2, 1)))
        assert np.array_equal(sys.C, np.ones((1, 2)))
        assert np.array_equal(sys.D, np.zeros((1, 1)))

    def test_from_gain(self):
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        sys = StateSpace.from_gain(K)
        assert sys.n_states == 0
        assert np.array_equal(sys.D, K)
        H = freq_response(sys, np.logspace(-2, 2, 5))
        assert H.shape == (5, 2, 2)
        assert all(np.array_equal(Hk, K) for Hk in H)

    def test_default_feedthrough_is_zero(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        assert np.array_equal(sys.D, np.zeros((1, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_non_finite_entries_refused(self, name, value):
        mats = {"A": -np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2)),
                "D": np.zeros((1, 1))}
        mats[name][-1, -1] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            StateSpace(**mats)

    def test_zero_size_matrices_accepted(self):
        sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), np.ones((1, 2)))
        assert (sys.n_states, sys.n_inputs, sys.n_outputs) == (0, 2, 1)
        sys = StateSpace(-np.eye(2), np.zeros((2, 0)), np.zeros((0, 2)))
        assert sys.D.shape == (0, 0)


class TestSelect:
    def test_select(self):
        rng = np.random.default_rng(0)
        sys = _rand_sys(rng, 3, 4, 3)
        sub = select(sys, [0, 2], [1, 3])
        w = 1.3
        H_full = freq_response(sys, w)
        H_sub = freq_response(sub, w)
        assert np.abs(H_sub - H_full[np.ix_([0, 2], [1, 3])]).max() < 1e-12

    @pytest.mark.parametrize(
        "rows, cols", [([3], None), ([-1], None), (None, [4]), (None, [0, -1])]
    )
    def test_out_of_range_rejected(self, rows, cols):
        sys = _rand_sys(np.random.default_rng(0), 2, 4, 3)
        with pytest.raises(ValueError, match="out of range"):
            select(sys, rows, cols)

    @pytest.mark.parametrize(
        "rows, cols, name",
        [([False, True], None, "rows"), ([1.7], None, "rows"), (np.array([1.0]), None, "rows"),
         (None, [True], "cols"), (None, [0, 2.5], "cols")],
    )
    def test_non_integer_indices_rejected(self, rows, cols, name):
        # A mask would be read as the positions 0 and 1, a float truncated.
        sys = StateSpace(-np.eye(2), np.eye(2), np.diag([1.0, 5.0]))
        with pytest.raises(ValueError, match=f"^{name} must hold integer indices"):
            select(sys, rows, cols)

    def test_empty_indices_accepted(self):
        sys = StateSpace(-np.eye(2), np.eye(2), np.diag([1.0, 5.0]))
        sub = select(sys, rows=[], cols=np.array([], dtype=np.uint8))
        assert (sub.n_outputs, sub.n_inputs) == (0, 0)
        assert np.array_equal(select(sys, rows=[1]).C, [[0.0, 5.0]])


class TestInterconnections:
    def test_series_pointwise(self):
        rng = np.random.default_rng(1)
        g1 = _rand_sys(rng, 3, 2, 3)
        g2 = _rand_sys(rng, 3, 3, 2)
        cascade = series(g1, g2)
        for w in 10.0 ** rng.uniform(-2, 2, size=50):
            ref = freq_response(g2, w) @ freq_response(g1, w)
            assert np.abs(freq_response(cascade, w) - ref).max() < 1e-9

    def test_add_negate_pointwise(self):
        rng = np.random.default_rng(2)
        g1 = _rand_sys(rng, 2, 2, 2)
        g2 = _rand_sys(rng, 4, 2, 2)
        total = add(g1, negate(g2))
        for w in 10.0 ** rng.uniform(-2, 2, size=20):
            ref = freq_response(g1, w) - freq_response(g2, w)
            assert np.abs(freq_response(total, w) - ref).max() < 1e-10

    def test_close_loop_partial_channels(self):
        rng = np.random.default_rng(5)
        sys = _rand_sys(rng, 4, 3, 3)
        ctrl = _rand_sys(rng, 2, 1, 1, shift=3.0)
        cl = close_loop(sys, ctrl, in_idx=[1], out_idx=[2])
        assert cl.n_inputs == 2
        assert cl.n_outputs == 3
        w = 1.1
        G = freq_response(sys, w)
        Kw = freq_response(ctrl, w)
        # u1 = K y2 resolved by hand on the partitioned transfer matrix.
        g_loop = G[2:3, 1:2]
        g_keep = G[2:3, [0, 2]]
        y2 = np.linalg.solve(np.eye(1) - g_loop @ Kw, g_keep)
        ref = G[:, [0, 2]] + G[:, 1:2] @ Kw @ y2
        assert np.abs(freq_response(cl, w) - ref).max() < 1e-9

    def test_close_loop_without_loop_outputs(self):
        # A controller with no inputs only drives the looped plant input
        # from its own (zero) initial state: the other inputs see the plant.
        rng = np.random.default_rng(6)
        sys = _rand_sys(rng, 3, 2, 2)
        ctrl = _rand_sys(rng, 2, 0, 1, shift=3.0)
        cl = close_loop(sys, ctrl, in_idx=[0], out_idx=[])
        assert (cl.n_states, cl.n_inputs, cl.n_outputs) == (5, 1, 2)
        w = 0.7
        ref = freq_response(sys, w)[:, 1:]
        assert np.abs(freq_response(cl, w) - ref).max() < 1e-12

    def test_algebraic_loop_rejected(self):
        P = StateSpace.from_gain(np.eye(1))
        K = StateSpace.from_gain(np.eye(1))
        with pytest.raises(ValueError, match="algebraic loop"):
            close_loop(P, K, [0], [0])
        # Exactly singular 2 x 2 loops, I - D_loop D_ctrl = diag(0, 1) and 0:
        # refused as singular, with no warning from the zero singular value.
        for D_loop in (np.diag([1.0, 0.0]), np.eye(2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="algebraic loop"):
                    close_loop(StateSpace.from_gain(D_loop), StateSpace.from_gain(np.eye(2)),
                               [0, 1], [0, 1])

    @pytest.mark.parametrize("cond, refused", [(1.01e12, True), (0.99e12, False)])
    def test_algebraic_loop_threshold(self, cond, refused):
        # I - D_loop D_ctrl = diag(1, 1 / cond): the 1e12 bound is on cond.
        P = StateSpace.from_gain(np.diag([0.0, 1.0 - 1.0 / cond]))
        K = StateSpace.from_gain(np.eye(2))
        if refused:
            with pytest.raises(ValueError, match="algebraic loop"):
                close_loop(P, K, [0, 1], [0, 1])
        else:
            assert np.isfinite(close_loop(P, K, [0, 1], [0, 1]).D).all()

    @pytest.mark.parametrize(
        "in_idx, out_idx, name", [([True], [0], "in_idx"), ([0], [0.0], "out_idx")]
    )
    def test_close_loop_non_integer_indices_rejected(self, in_idx, out_idx, name):
        sys = _rand_sys(np.random.default_rng(7), 2, 2, 2)
        ctrl = StateSpace.from_gain(0.1 * np.eye(1))
        with pytest.raises(ValueError, match=f"^{name} must hold integer indices"):
            close_loop(sys, ctrl, in_idx, out_idx)


def _close_loop_by_inverse(sys, ctrl, in_idx, out_idx):
    """``close_loop``'s general formula: ``Mi = inv(I - D_loop D_ctrl)``."""
    in_idx, out_idx = np.asarray(in_idx), np.asarray(out_idx)
    other = np.ones(sys.n_inputs, dtype=bool)
    other[in_idx] = False
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Bl, Bo = B[:, in_idx], B[:, other]
    Cs, Ds = C[out_idx], D[out_idx]
    Dsl, Dso = Ds[:, in_idx], Ds[:, other]
    Ak, Bk, Ck, Dk = ctrl.A, ctrl.B, ctrl.C, ctrl.D
    M = np.eye(len(out_idx)) - Dsl @ Dk
    assert not (M.size and np.linalg.cond(M) > 1e12)
    Mi = np.linalg.inv(M)
    DkMi, BkMi = Dk @ Mi, Bk @ Mi
    BlDkMi = Bl @ Dk @ Mi
    Ckl = Ck + DkMi @ Dsl @ Ck
    A_cl = _block([[A + BlDkMi @ Cs, Bl @ Ckl], [BkMi @ Cs, Ak + BkMi @ Dsl @ Ck]])
    B_cl = np.vstack([Bo + BlDkMi @ Dso, BkMi @ Dso])
    Dl = D[:, in_idx]
    DlDkMi = Dl @ Dk @ Mi
    C_cl = np.hstack([C + DlDkMi @ Cs, Dl @ Ckl])
    D_cl = D[:, other] + DlDkMi @ Dso
    return StateSpace(A_cl, B_cl, C_cl, D_cl)


def _rel_err(H, ref):
    assert H.shape == ref.shape
    if not ref.size:
        return 0.0
    return np.abs(H - ref).max() / max(1.0, np.abs(ref).max())


class TestInterconnectionProperties:
    """Hypothesis properties of the algebra against pointwise matrix products."""

    @staticmethod
    def _check(prop, **strategies):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        settings = hypothesis.settings(
            max_examples=40, deadline=None, derandomize=True, database=None
        )
        given = hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            **{k: st.integers(lo, hi) for k, (lo, hi) in strategies.items()},
        )
        settings(given(prop))()

    def test_series_associative(self):
        def prop(seed, n1, n2, n3, m, p, q, r):
            rng = np.random.default_rng(seed)
            g1 = _rand_sys(rng, n1, m, p, shift=3.0)
            g2 = _rand_sys(rng, n2, p, q, shift=3.0)
            g3 = _rand_sys(rng, n3, q, r, shift=3.0)
            left, right = series(series(g1, g2), g3), series(g1, series(g2, g3))
            grid = 10.0 ** rng.uniform(-2, 2, size=5)
            assert _rel_err(freq_response(left, grid), freq_response(right, grid)) < 1e-10

        self._check(prop, n1=(0, 4), n2=(0, 4), n3=(0, 4), m=(1, 3), p=(1, 3),
                    q=(1, 3), r=(1, 3))

    def test_series_is_the_product(self):
        def prop(seed, n1, n2, m, p, q):
            rng = np.random.default_rng(seed)
            g1 = _rand_sys(rng, n1, m, p, shift=3.0)
            g2 = _rand_sys(rng, n2, p, q, shift=3.0)
            grid = 10.0 ** rng.uniform(-2, 2, size=5)
            ref = freq_response(g2, grid) @ freq_response(g1, grid)
            assert _rel_err(freq_response(series(g1, g2), grid), ref) < 1e-10

        self._check(prop, n1=(0, 4), n2=(0, 4), m=(1, 3), p=(1, 3), q=(1, 3))

    def test_close_loop_closed_form(self):
        # u[l] = K y[o]: H = G + G[:, l] K (I - G[o, l] K)^-1 G[o, :],
        # without the columns l.
        def prop(seed, n, nk, m, p):
            rng = np.random.default_rng(seed)
            sys = _rand_sys(rng, n, m, p, shift=3.0)
            l = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
            o = rng.choice(p, size=rng.integers(1, p + 1), replace=False)
            ctrl = _rand_sys(rng, nk, len(o), len(l), shift=3.0)
            ctrl = StateSpace(ctrl.A, ctrl.B, 0.3 * ctrl.C, 0.3 * ctrl.D)
            cl = close_loop(sys, ctrl, l, o)
            cols = np.setdiff1d(np.arange(m), l)
            for w in 10.0 ** rng.uniform(-2, 2, size=5):
                G, K = freq_response(sys, w), freq_response(ctrl, w)
                M = np.eye(len(o)) - G[np.ix_(o, l)] @ K
                ref = (G + G[:, l] @ K @ np.linalg.solve(M, G[o, :]))[:, cols]
                assert _rel_err(freq_response(cl, w), ref) < 1e-10 * np.linalg.cond(M)

        self._check(prop, n=(0, 4), nk=(0, 3), m=(1, 3), p=(1, 3))

    def test_close_loop_without_loop_feedthrough_is_the_general_formula(self):
        # With D_loop exactly zero close_loop skips the inverse of
        # I - D_loop D_ctrl; its loop must equal the general formula in bits.
        def prop(seed, n, nk, m, p):
            rng = np.random.default_rng(seed)
            sys = _rand_sys(rng, n, m, p, shift=3.0)
            l = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
            o = rng.choice(p, size=rng.integers(0, p + 1), replace=False)
            D = np.array(sys.D)
            D[np.ix_(o, l)] = 0.0
            sys = StateSpace(sys.A, sys.B, sys.C, D)
            ctrl = _rand_sys(rng, nk, len(o), len(l), shift=3.0)
            got, ref = close_loop(sys, ctrl, l, o), _close_loop_by_inverse(sys, ctrl, l, o)
            for name in "ABCD":
                g, r = getattr(got, name), getattr(ref, name)
                assert g.shape == r.shape
                assert g.tobytes() == r.tobytes()

        self._check(prop, n=(0, 4), nk=(0, 3), m=(1, 3), p=(1, 3))

    def test_close_loop_without_loop_feedthrough_keeps_layout_and_zero_signs(self):
        # Blocks in Fortran order holding -0.0 and +0.0 give the general
        # formula's bits too: the layout of an operand picks the BLAS routine
        # of a matrix-vector product, and a sum with a zero product turns
        # -0.0 into +0.0.
        def block(rng, shape):
            M = rng.standard_normal(shape)
            M[rng.random(shape) < 0.3] = -0.0
            M[rng.random(shape) < 0.2] = 0.0
            return np.asfortranarray(M)

        def prop(seed, n, nk, m, p):
            # Several draws per shape: a product's last bit moves in a few %.
            rng = np.random.default_rng(seed)
            for _ in range(8):
                l = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
                o = rng.choice(p, size=rng.integers(0, p + 1), replace=False)
                D = block(rng, (p, m))
                D[np.ix_(o, l)] = 0.0
                sys = StateSpace(block(rng, (n, n)), block(rng, (n, m)), block(rng, (p, n)), D)
                shapes = ((nk, nk), (nk, len(o)), (len(l), nk), (len(l), len(o)))
                ctrl = StateSpace(*(block(rng, s) for s in shapes))
                got, ref = close_loop(sys, ctrl, l, o), _close_loop_by_inverse(sys, ctrl, l, o)
                for name in "ABCD":
                    g, r = getattr(got, name), getattr(ref, name)
                    assert g.shape == r.shape
                    assert g.tobytes() == r.tobytes()

        self._check(prop, n=(0, 4), nk=(0, 3), m=(1, 3), p=(1, 3))

    def test_select_blocks_are_read_only_sub_blocks(self):
        # select skips StateSpace's copy and checks: its A is the parent's,
        # and every block holds what StateSpace would store, read-only.
        def prop(seed, n, m, p, which):
            rng = np.random.default_rng(seed)
            sys = _rand_sys(rng, n, m, p, shift=3.0)
            rows = rng.choice(p, size=rng.integers(0, p + 1)) if which & 1 else None
            cols = rng.choice(m, size=rng.integers(0, m + 1)) if which & 2 else None
            sub = select(sys, rows, cols)
            r = np.arange(p) if rows is None else rows
            c = np.arange(m) if cols is None else cols
            ref = StateSpace(sys.A, sys.B[:, c], sys.C[r], sys.D[np.ix_(r, c)])
            assert sub.A is sys.A
            for name in "ABCD":
                got, want = getattr(sub, name), getattr(ref, name)
                assert not got.flags.writeable
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert np.array_equal(got, want)

        self._check(prop, n=(0, 4), m=(1, 4), p=(1, 4), which=(0, 3))

    def test_block_helper_is_np_block(self):
        # Bit-equal to np.block on 2 x 2 and 3 x 2 grids, zero-height rows
        # and zero-width columns included; a ragged grid raises.
        def prop(seed, n_rows, h0, h1, h2, w0, w1):
            rng = np.random.default_rng(seed)
            heights, widths = (h0, h1, h2)[:n_rows], (w0, w1)
            grid = [[rng.standard_normal((h, w)) for w in widths] for h in heights]
            got, ref = _block(grid), np.block(grid)
            assert np.array_equal(got, ref)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            i, j = rng.integers(n_rows), rng.integers(2)
            for shape in ((heights[i] + 1, widths[j]), (heights[i], widths[j] + 1)):
                ragged = [row[:] for row in grid]
                ragged[i][j] = np.ones(shape)
                with pytest.raises(ValueError):
                    np.block(ragged)
                with pytest.raises(ValueError):
                    _block(ragged)

        self._check(prop, n_rows=(2, 3), h0=(0, 3), h1=(0, 3), h2=(0, 3), w0=(0, 3),
                    w1=(0, 3))

    def test_select_is_the_sub_block(self):
        def prop(seed, n, m, p):
            rng = np.random.default_rng(seed)
            sys = _rand_sys(rng, n, m, p, shift=3.0)
            rows = rng.choice(p, size=rng.integers(0, p + 1), replace=True)
            cols = rng.choice(m, size=rng.integers(0, m + 1), replace=True)
            grid = 10.0 ** rng.uniform(-2, 2, size=5)
            H = freq_response(select(sys, rows, cols), grid)
            ref = freq_response(sys, grid)[:, rows][:, :, cols]
            assert _rel_err(H, ref) < 1e-12

        self._check(prop, n=(0, 4), m=(1, 4), p=(1, 4))


def _defective_pair(seed=0):
    """A defective double pole at +-2j: the real Jordan form under a seeded
    random similarity.  Its computed eigenvalues sit 1.7e-8 relative off 2j
    for seed 0 (up to 9e-7 over seeds 0-49)."""
    rng = np.random.default_rng(seed)
    J = np.array(
        [[0.0, 2.0, 1.0, 0.0], [-2.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, -2.0, 0.0]]
    )
    T = rng.standard_normal((4, 4))
    return StateSpace(
        T @ J @ np.linalg.inv(T), rng.standard_normal((4, 1)),
        rng.standard_normal((1, 4)),
    )


class TestFreqResponse:
    def test_modal_oracle(self):
        rng = np.random.default_rng(6)
        sys = _rand_sys(rng, 4, 2, 2)
        evals, V = np.linalg.eig(sys.A)
        # Long enough to span several batched solves.
        grid = np.concatenate([[2.0], np.logspace(-2, 2, 3000)])
        H = freq_response(sys, grid)
        assert H.shape == (grid.size, 2, 2)
        for Hk, w in zip(H, grid):
            # The stack is the per-point evaluation, to the last bit.
            assert np.array_equal(Hk, freq_response(sys, w))
            ref = (
                sys.C
                @ V
                @ np.diag(1.0 / (1j * w - evals))
                @ np.linalg.solve(V, sys.B)
                + sys.D
            )
            assert np.abs(Hk - ref).max() < 1e-10

    def test_pole_rejected(self):
        sys = StateSpace([[0.0, 1.0], [-4.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        # A grid is refused when a single one of its points sits on the pole,
        # also when that point comes after many others.
        long_grid = np.append(np.linspace(0.1, 1.0, 10000), 2.0)
        for w in (2.0, [0.5, 2.0, 3.0], long_grid):
            with pytest.raises(ValueError, match="pole"):
                freq_response(sys, w)
        # A defective double pole at +-2j (see _defective_pair): a guard on
        # the eigenvalue distance with a 1e-9 band would let s = 2j through.
        with pytest.raises(ValueError, match="pole"):
            freq_response(_defective_pair(), 2.0)

    def test_band_needed_for_defective_pole(self, monkeypatch):
        # Without the band around the computed eigenvalues, the point on the
        # defective pair of test_pole_rejected is evaluated, not refused.
        defective = _defective_pair()
        monkeypatch.setattr(lti, "_POLE_BAND", 0.0)
        assert np.all(np.isfinite(freq_response(defective, 2.0)))

    def test_lightly_damped_pole_in_band_evaluated(self):
        # Poles at -1e-3 +- 20j: w = 20 lies within the band, 1e-3 / 21 off
        # the pole relative to 1 + |lambda|, and is well conditioned enough
        # to be evaluated.
        rng = np.random.default_rng(3)
        T = rng.standard_normal((4, 4))
        J = np.array(
            [[-1e-3, 20.0, 0.0, 0.0], [-20.0, -1e-3, 0.0, 0.0],
             [0.0, 0.0, -1.0, 0.5], [0.0, 0.0, 0.0, -2.0]]
        )
        sys = _rand_sys(rng, 4, 2, 2)
        sys = StateSpace(T @ J @ np.linalg.inv(T), sys.B, sys.C, sys.D)
        evals, V = np.linalg.eig(sys.A)
        grid = np.array([20.0, 20.0 + 2e-4, 19.999])
        dist = np.abs(1j * grid[:, None] - evals) / (1.0 + np.abs(evals))
        assert np.all(np.min(dist, axis=1) <= lti._POLE_BAND)
        H = freq_response(sys, grid)
        for Hk, w in zip(H, grid):
            ref = (
                sys.C @ V @ np.diag(1.0 / (1j * w - evals))
                @ np.linalg.solve(V, sys.B) + sys.D
            )
            assert np.abs(Hk - ref).max() < 1e-10 * np.abs(ref).max()


class TestSimulate:
    def test_first_order_impulse(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        dt = 1e-3
        n_steps = 1001
        u = np.zeros((n_steps, 1))
        u[0, 0] = 1.0 / dt
        y = simulate(sys, u, dt)
        assert y[1000, 0] == pytest.approx(np.exp(-1.0), abs=1e-3)

    def test_damped_oscillator_free_response(self):
        zeta, wn = 0.15, 2.0
        A = np.array([[0.0, 1.0], [-(wn**2), -2.0 * zeta * wn]])
        sys = StateSpace(A, np.zeros((2, 1)), np.array([[1.0, 0.0]]))
        dt = 1e-3
        t = np.arange(0, 3.0, dt)
        y = simulate(sys, np.zeros((len(t), 1)), dt, x0=[1.0, 0.0])
        wd = wn * np.sqrt(1.0 - zeta**2)
        ref = np.exp(-zeta * wn * t) * (
            np.cos(wd * t) + zeta * wn / wd * np.sin(wd * t)
        )
        assert np.abs(y[:, 0] - ref).max() < 1e-6

    def test_step_dc_gain(self):
        sys = StateSpace([[-2.0]], [[1.0]], [[3.0]])
        y = simulate(sys, np.ones((4000, 1)), 5e-3)
        assert y[-1, 0] == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("shape", [(2, 50), (50,), (50, 2, 1)])
    def test_input_orientation_not_guessed(self, shape):
        # u is (samples, inputs); a transposed or flat array is refused.
        sys = StateSpace(-np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=r"\(samples, 2\)") as err:
            simulate(sys, np.zeros(shape), 1e-2)
        assert str(shape) in str(err.value)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-2])
    def test_non_finite_or_nonpositive_dt_refused(self, dt):
        # NaN and +inf once passed the sign test and returned NaN samples.
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="dt must be a finite number > 0"):
            simulate(sys, np.zeros((3, 1)), dt)


class TestMinreal:
    def test_removes_uncontrollable_block(self):
        base = StateSpace([[-1.0]], [[1.0]], [[2.0]])
        padded = StateSpace(
            np.diag([-1.0, -5.0]), [[1.0], [0.0]], [[2.0, 1.0]]
        )
        red = minreal(padded)
        assert red.n_states == 1
        for w in (0.0, 0.5, 3.0):
            assert np.abs(
                freq_response(red, w) - freq_response(base, w)
            ).max() < 1e-8

    def test_removes_unobservable_block(self):
        padded = StateSpace(
            np.diag([-1.0, -3.0]), [[1.0], [1.0]], [[2.0, 0.0]]
        )
        red = minreal(padded)
        assert red.n_states == 1

    def test_preserves_minimal_system(self):
        rng = np.random.default_rng(7)
        sys = _rand_sys(rng, 5, 2, 2)
        red = minreal(sys)
        assert red.n_states == 5
        for w in (0.1, 1.0, 10.0):
            assert np.abs(
                freq_response(red, w) - freq_response(sys, w)
            ).max() < 1e-8

    def test_cancelling_cascade(self):
        # (s+1)/(s+2) in series with (s+2)/(s+1) is the identity.
        g1 = StateSpace([[-2.0]], [[1.0]], [[-1.0]], [[1.0]])
        g2 = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        red = minreal(series(g1, g2))
        assert red.n_states == 0
        assert red.D[0, 0] == pytest.approx(1.0, abs=1e-10)
