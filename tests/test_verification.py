"""The invariant checks are shown able to fail.

Each check runs once as shipped, where it must pass, and once against a
mutant of the quantity it guards, patched in from the test, where it must
fail.  The mutants: the cascade's downstream coupling block scaled, and a
performance report without its gap term.
"""

import dataclasses

import numpy as np

from retrofit_control import StateSpace, verification
from retrofit_control.verification import (
    check_bound_sandwich,
    check_cascade_equivalence,
)

N_CASES = 3


def _scaled_coupling(casc):
    """The cascade with the block ``B_dn`` of ``tapped.A`` scaled by 1.5.

    That block couples the upstream state into the downstream dynamics;
    ``T_zd`` is read from ``tapped``, so the mutant reaches it too.
    """
    n_up = casc.upstream.n_states
    A = np.array(casc.tapped.A)
    A[n_up:, :n_up] *= 1.5
    t = casc.tapped
    return dataclasses.replace(casc, tapped=StateSpace(A, t.B, t.C, t.D))


class TestCascadeEquivalence:
    def test_passes(self):
        assert check_cascade_equivalence(seed=0, n_cases=N_CASES).passed

    def test_fails_on_perturbed_coupling(self, monkeypatch):
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda *args: _scaled_coupling(real(*args)),
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
