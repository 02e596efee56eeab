"""Unit tests for Gramian-based balanced truncation.

Gramians are checked against a Kronecker-product linear-solve oracle and a
scalar closed form; truncation errors are checked against direct norm
evaluation and the classical twice-the-tail bound.  The bound check is
shown able to fail: with one Hankel value truncated the bound is tight, so
halving the reported tail makes it FAIL.  The balancing is computed once
per system: counted through ``reduction.gramians``, compared bit for bit
with an uncached copy, and shown not to keep a dropped system alive.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from retrofit_control import reduction
from retrofit_control import (
    StateSpace,
    add,
    balanced_truncate,
    gramians,
    hinf_norm,
    negate,
    spectral_abscissa,
)


def _rand_stable(rng, n, m, p, margin=0.5):
    A = rng.standard_normal((n, n))
    A = A - (spectral_abscissa(A) + margin) * np.eye(n)
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)))


def _reduction_error(sys, reduced):
    # At tol=1e-8 the norm's bracket midpoint lies at most 5e-9 relative
    # above the attained error, well inside the bound check's slack.
    return hinf_norm(add(sys, negate(reduced)), tol=1e-8)


def _within_bound(err, red):
    """The truncation-bound check: error at most twice the tail, plus slack."""
    return err <= red.error_bound + 1e-8


class TestGramians:
    def test_scalar_closed_form(self):
        # xdot = -x + u, y = x: Wc = Wo = 1/2.
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        Wc, Wo = gramians(sys)
        assert Wc[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert Wo[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_kronecker_oracle(self):
        rng = np.random.default_rng(0)
        sys = _rand_stable(rng, 6, 2, 2)
        Wc, Wo = gramians(sys)
        n = 6
        M = np.kron(np.eye(n), sys.A) + np.kron(sys.A, np.eye(n))
        Wc_ref = np.linalg.solve(M, -(sys.B @ sys.B.T).reshape(-1)).reshape(n, n)
        Mo = np.kron(np.eye(n), sys.A.T) + np.kron(sys.A.T, np.eye(n))
        Wo_ref = np.linalg.solve(Mo, -(sys.C.T @ sys.C).reshape(-1)).reshape(n, n)
        assert np.abs(Wc - Wc_ref).max() < 1e-9
        assert np.abs(Wo - Wo_ref).max() < 1e-9

    def test_unstable_rejected(self):
        sys = StateSpace([[0.1]], [[1.0]], [[1.0]])
        with pytest.raises(Exception):
            gramians(sys)


class TestBalancedTruncate:
    def test_full_order_is_exact(self):
        rng = np.random.default_rng(1)
        sys = _rand_stable(rng, 5, 2, 2)
        red = balanced_truncate(sys, 5)
        assert red.reduced.n_states == 5
        assert red.error_bound == pytest.approx(0.0, abs=1e-12)
        assert _reduction_error(sys, red.reduced) < 1e-9

    def test_error_within_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            sys = _rand_stable(rng, 8, 2, 2)
            for r in range(0, 8):
                red = balanced_truncate(sys, r)
                err = _reduction_error(sys, red.reduced)
                assert _within_bound(err, red)

    def test_bound_check_fails_on_halved_tail(self):
        # With r = n - 1 the error equals twice the single truncated Hankel
        # value, so a bound reporting half the tail is exceeded by that value.
        rng = np.random.default_rng(7)
        for _ in range(5):
            sys = _rand_stable(rng, 6, 2, 2)
            red = balanced_truncate(sys, 5)
            err = _reduction_error(sys, red.reduced)
            assert _within_bound(err, red)
            halved = dataclasses.replace(red, error_bound=0.5 * red.error_bound)
            assert not _within_bound(err, halved)

    def test_bound_monotone_in_order(self):
        rng = np.random.default_rng(3)
        sys = _rand_stable(rng, 8, 2, 2)
        bounds = [balanced_truncate(sys, r).error_bound for r in range(9)]
        assert all(bounds[i + 1] <= bounds[i] + 1e-12 for i in range(8))

    def test_hankel_values_sorted(self):
        rng = np.random.default_rng(4)
        sys = _rand_stable(rng, 6, 2, 2)
        hv = balanced_truncate(sys, 3).hankel_values
        assert np.all(np.diff(hv) <= 1e-12)
        assert np.all(hv >= 0.0)

    def test_order_zero_keeps_feedthrough(self):
        rng = np.random.default_rng(5)
        sys = _rand_stable(rng, 4, 2, 2)
        red = balanced_truncate(sys, 0)
        assert red.reduced.n_states == 0
        assert np.array_equal(red.reduced.D, sys.D)
        # Bound covers the entire dynamic part.
        assert red.error_bound == pytest.approx(
            2.0 * red.hankel_values.sum(), abs=1e-12
        )

    def test_reduced_is_stable(self):
        rng = np.random.default_rng(6)
        sys = _rand_stable(rng, 10, 2, 2, margin=0.2)
        for r in (2, 5, 8):
            red = balanced_truncate(sys, r).reduced
            if red.n_states:
                assert spectral_abscissa(red.A) < 0.0

    def test_dominant_mode_retained(self):
        # Two decoupled modes, one with much larger Hankel value; order-1
        # truncation must keep the dominant one.
        A = np.diag([-1.0, -50.0])
        sys = StateSpace(A, [[1.0], [1.0]], [[10.0, 0.1]])
        red = balanced_truncate(sys, 1)
        err = _reduction_error(sys, red.reduced)
        # Dominant branch alone has peak gain 10; error must be tiny vs that.
        assert err < 0.05

    @pytest.mark.parametrize("r", [2.5, 2.0, True, False, "2"])
    def test_non_integer_order_refused(self, r):
        # A float order once failed deep inside as a slice TypeError, and
        # True silently truncated to order 1.
        sys = _rand_stable(np.random.default_rng(9), 4, 1, 1)
        with pytest.raises(ValueError, match="r must be an integer"):
            balanced_truncate(sys, r)

    def test_numpy_integer_order_accepted(self):
        sys = _rand_stable(np.random.default_rng(9), 4, 1, 1)
        red = balanced_truncate(sys, np.int64(2))
        assert red.reduced.n_states == 2
        assert np.array_equal(red.reduced.A, balanced_truncate(sys, 2).reduced.A)


class _Referable(StateSpace):
    """A ``StateSpace`` that a weak reference can point to."""

    __slots__ = ("__weakref__",)


class TestBalanceOnce:
    def test_one_gramian_pair_for_every_order(self, monkeypatch):
        calls = []
        real = reduction.gramians

        def counted(sys):
            calls.append(sys)
            return real(sys)

        monkeypatch.setattr(reduction, "gramians", counted)
        sys = _rand_stable(np.random.default_rng(11), 12, 2, 3)
        for r in range(13):
            balanced_truncate(sys, r)
        assert len(calls) == 1

    def test_equal_to_uncached_copy(self):
        sys = _rand_stable(np.random.default_rng(12), 12, 3, 2)
        cached = [balanced_truncate(sys, r) for r in range(13)]
        for r, red in enumerate(cached):
            # A new object is a new key, so its balancing is computed afresh.
            ref = balanced_truncate(StateSpace(sys.A, sys.B, sys.C, sys.D), r)
            assert red.error_bound == ref.error_bound
            assert np.array_equal(red.hankel_values, ref.hankel_values)
            for name in "ABCD":
                assert np.array_equal(getattr(red.reduced, name),
                                      getattr(ref.reduced, name))

    def test_dropped_system_not_kept(self):
        # The cache holds the last system balanced and no other: a dropped
        # system lives until another one is truncated.
        rng = np.random.default_rng(13)
        first = _rand_stable(rng, 6, 2, 2)
        sys = _Referable(first.A, first.B, first.C, first.D)
        ref = weakref.ref(sys)
        balanced_truncate(sys, 2)
        del sys
        balanced_truncate(_rand_stable(rng, 5, 1, 1), 2)
        gc.collect()
        assert ref() is None

    def test_cached_factors_read_only(self):
        sys = _rand_stable(np.random.default_rng(14), 5, 1, 1)
        hv = balanced_truncate(sys, 2).hankel_values
        with pytest.raises(ValueError):
            hv[0] = 0.0
        assert np.array_equal(balanced_truncate(sys, 3).hankel_values, hv)
