"""The invariant checks are shown able to fail.

Each check runs once as shipped, where it must pass, and once against a
mutant of the quantity it guards, patched in from the test, where it must
fail.  The mutants: the rectifier with the sign of its feedthrough
flipped, the cascade's downstream coupling block scaled, a performance
report without its gap term, and the module implemented directly, without
the rectifier, in place of the retrofit controller.  The matrix-identity
check is also run on transfer matrices that make every loop singular,
where it must skip each case rather than raise, and then fail, since it
evaluated nothing.  The bound-sandwich check is also run against reports
of an unstable loop, where it must stop at the first case and count only
that one.  The cascade check must also resolve a relative perturbation of
1e-9 in its coupling block and still pass, and must fail on a cascade with
the same transfer matrix whose downstream states are swapped.
"""

import dataclasses

import numpy as np
import pytest

from retrofit_control import (
    PerformanceReport,
    StateSpace,
    direct_controller,
    verification,
)
from retrofit_control.verification import (
    check_bound_sandwich,
    check_cascade_equivalence,
    check_kernel_identity,
    check_matrix_identities,
    check_robust_stability,
)

N_CASES = 3
N_ENV = 10


def _scaled_coupling(casc, n_dn, factor=1.5):
    """The cascade with its block ``B_dn`` scaled by ``factor``.

    That block, below the upstream states and left of the last ``n_dn``
    (downstream) states, couples the upstream state into the downstream
    dynamics, so the mutant reaches the ``z`` rows too.
    """
    A = np.array(casc.A)
    A[-n_dn:, :-n_dn] *= factor
    return StateSpace(A, casc.B, casc.C, casc.D)


def _swapped_downstream(casc, n_dn):
    """The cascade with its first two downstream states swapped.

    A permutation similarity: the transfer matrix is unchanged, only the
    state order differs from the one the certificate is stated in.
    """
    order = np.arange(casc.n_states)
    i = casc.n_states - n_dn
    order[[i, i + 1]] = order[[i + 1, i]]
    return StateSpace(casc.A[np.ix_(order, order)], casc.B[order], casc.C[:, order], casc.D)


class TestKernelIdentity:
    def test_passes(self):
        assert check_kernel_identity(seed=0).passed

    def test_fails_on_flipped_feedthrough(self, monkeypatch):
        real = verification.extended_rectifier

        def flipped(G, apx):
            rect = real(G, apx)
            return StateSpace(rect.A, rect.B, rect.C, -rect.D)

        monkeypatch.setattr(verification, "extended_rectifier", flipped)
        res = check_kernel_identity(seed=0)
        assert not res.passed
        assert res.worst > 1e3 * res.tol


class TestMatrixIdentities:
    def test_singular_loop_skipped(self, monkeypatch):
        # Identity responses make I - PK zero: every case must be skipped,
        # none inverted, and none counted; a check that evaluated nothing
        # fails.
        monkeypatch.setattr(
            verification, "freq_response",
            lambda sys, w: np.eye(sys.n_outputs, sys.n_inputs),
        )
        res = check_matrix_identities(seed=0)
        assert res.cases == 0
        assert res.worst == 0.0
        assert not res.passed
        assert res.line().startswith("FAIL")


class TestCascadeEquivalence:
    def test_passes(self):
        assert check_cascade_equivalence(seed=0, n_cases=N_CASES).passed

    @pytest.mark.parametrize("seed", [10, 70])
    def test_passes_on_gain_tie_at_zero_frequency(self, seed):
        # These seeds once sampled a cascade gap whose H-infinity norm had a
        # gain tie at w = 0.  The check takes no norm now;
        # tests/test_numerics.py::test_gain_tie_at_zero_frequency covers the
        # tie.
        assert check_cascade_equivalence(seed=seed).passed

    def test_fails_on_perturbed_coupling(self, monkeypatch):
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda G, env, apx, module: _scaled_coupling(
                real(G, env, apx, module), G.A.shape[0] + env.n_states
            ),
        )
        res = check_cascade_equivalence(seed=0, n_cases=N_CASES)
        assert not res.passed
        assert res.worst > 1e3 * res.tol

    def test_resolves_relative_perturbation_of_coupling(self, monkeypatch):
        # B_dn scaled by 1 + 1e-9: the certificate reads the perturbation
        # at its size, far below the tolerance, where a norm of the
        # minimal difference system reads roundoff.
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda G, env, apx, module: _scaled_coupling(
                real(G, env, apx, module), G.A.shape[0] + env.n_states, 1 + 1e-9
            ),
        )
        res = check_cascade_equivalence(seed=0, n_cases=N_CASES)
        assert res.passed
        assert 0.5e-9 <= res.worst <= 2e-9

    def test_fails_on_same_transfer_matrix_in_another_state_order(self, monkeypatch):
        # The contract is the paper's change of coordinates, not only the
        # transfer matrix: a permutation similarity of the cascade fails.
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda G, env, apx, module: _swapped_downstream(
                real(G, env, apx, module), G.A.shape[0] + env.n_states
            ),
        )
        res = check_cascade_equivalence(seed=0, n_cases=N_CASES)
        assert not res.passed
        assert res.worst > 1e3 * res.tol


class TestBoundSandwich:
    def test_passes(self):
        assert check_bound_sandwich(seed=0, n_cases=N_CASES).passed

    def test_fails_without_gap_term(self, monkeypatch):
        real = verification.performance_bounds
        monkeypatch.setattr(
            verification, "performance_bounds",
            lambda *args: dataclasses.replace(real(*args), gamma_check=0.0),
        )
        res = check_bound_sandwich(seed=0, n_cases=N_CASES)
        assert not res.passed
        assert res.worst > 1e3 * res.tol

    def test_early_stop_counts_evaluated_cases(self, monkeypatch):
        monkeypatch.setattr(
            verification, "performance_bounds",
            lambda *args: PerformanceReport(np.nan, np.nan, np.nan, False, 0.0),
        )
        res = check_bound_sandwich(seed=0, n_cases=N_CASES)
        assert not res.passed
        assert res.cases == 1
        assert "over 1 cases" in res.line()


class TestRobustStability:
    def test_passes(self):
        assert check_robust_stability(seed=0, n_env=N_ENV).passed

    def test_fails_without_rectifier(self, monkeypatch):
        monkeypatch.setattr(
            verification, "compose_retrofit",
            lambda G, apx, module: direct_controller(G, module),
        )
        res = check_robust_stability(seed=0, n_env=N_ENV)
        assert not res.passed
        assert res.worst > 1e-2
