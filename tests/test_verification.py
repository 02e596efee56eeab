"""The invariant checks are shown able to fail.

Each check runs once as shipped, where it must pass, and once against a
mutant of the quantity it guards, patched in from the test, where it must
fail.  The mutants: the rectifier with the sign of its feedthrough
flipped, the cascade's downstream coupling block scaled, a performance
report without its gap term, and the module implemented directly, without
the rectifier, in place of the retrofit controller.  The bound-sandwich
check is also run against reports of an unstable loop, where it must stop
at the first case and count only that one, and on no case, where it must
fail.  The cascade check must also resolve a relative perturbation of
1e-9 in its coupling block and still pass, must fail on a cascade with
the same transfer matrix whose downstream states are swapped, and must
fail on a 1e-3 relative perturbation of that block on the preset design,
whose module gains dwarf the block.  A suite samples the designs of the
cascade and sandwich checks once, and both read as they do alone on that
sample.  The environment sampler returns the bytes of a sampler that
builds a full preexisting loop per halving, and the robust-stability check
builds one preexisting loop per environment.
"""

import dataclasses
from itertools import islice

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
    check_robust_stability,
)

N_CASES = 3
N_ENV = 10


def _sample(seed=0, n=N_CASES):
    """The first ``n`` designs of ``seed``, as a suite samples them."""
    return list(islice(verification._designs(seed), n))


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


class TestCascadeEquivalence:
    def test_passes(self):
        assert check_cascade_equivalence(0, _sample()).passed

    @pytest.mark.parametrize("seed", [10, 70])
    def test_passes_on_gain_tie_at_zero_frequency(self, seed):
        # These seeds once sampled a cascade gap whose H-infinity norm had a
        # gain tie at w = 0.  The check takes no norm now;
        # tests/test_numerics.py::test_gain_tie_at_zero_frequency covers the
        # tie.
        designs = _sample(seed, verification.DESIGN_CASES)
        assert check_cascade_equivalence(seed, designs).passed

    def test_fails_on_perturbed_coupling(self, monkeypatch):
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda G, env, apx, module: _scaled_coupling(
                real(G, env, apx, module), G.A.shape[0] + env.n_states
            ),
        )
        res = check_cascade_equivalence(0, _sample())
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
        res = check_cascade_equivalence(0, _sample())
        assert res.passed
        assert 0.5e-9 <= res.worst <= 2e-9

    def test_fails_on_relative_perturbation_of_coupling_on_preset_design(
        self, monkeypatch, preset_design
    ):
        # B_dn scaled by 1 + 1e-3 on a design whose module entries reach
        # 1e4: the gap is measured against B_dn itself, so it reads
        # 1e-3 / (1 + 1e-3) instead of vanishing under the module's scale.
        assert check_cascade_equivalence(0, [preset_design]).passed
        real = verification.cascade_realization
        monkeypatch.setattr(
            verification, "cascade_realization",
            lambda G, env, apx, module: _scaled_coupling(
                real(G, env, apx, module), G.A.shape[0] + env.n_states, 1 + 1e-3
            ),
        )
        res = check_cascade_equivalence(0, [preset_design])
        assert not res.passed
        assert res.worst == pytest.approx(1e-3 / (1 + 1e-3), rel=1e-6)

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
        res = check_cascade_equivalence(0, _sample())
        assert not res.passed
        assert res.worst > 1e3 * res.tol


class TestBoundSandwich:
    def test_passes(self):
        assert check_bound_sandwich(0, _sample()).passed

    def test_fails_without_gap_term(self, monkeypatch):
        real = verification.performance_bounds
        monkeypatch.setattr(
            verification, "performance_bounds",
            lambda *args: dataclasses.replace(real(*args), gamma_check=0.0),
        )
        res = check_bound_sandwich(0, _sample())
        assert not res.passed
        assert res.worst > 1e3 * res.tol

    def test_early_stop_counts_evaluated_cases(self, monkeypatch):
        monkeypatch.setattr(
            verification, "performance_bounds",
            lambda *args: PerformanceReport(np.nan, np.nan, np.nan, False, 0.0),
        )
        res = check_bound_sandwich(0, _sample())
        assert not res.passed
        assert res.cases == 1
        assert "over 1 cases" in res.line()
        # A check that evaluated no case fails.
        res = check_bound_sandwich(0, [])
        assert not res.passed
        assert res.cases == 0
        assert res.detail == "no case evaluated"


class TestSharedDesigns:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_designs_sampled_once_per_suite(self, monkeypatch, seed):
        # The cascade and sandwich checks of a suite share one sample, and
        # read as they do alone.
        real, calls = verification._designs, []

        def counted(seed):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(verification, "_designs", counted)
        shared = verification.run_all_checks(seed=seed)[2:]
        assert calls == [seed]
        designs = list(islice(real(seed), verification.DESIGN_CASES))
        alone = [check_cascade_equivalence(seed, designs), check_bound_sandwich(seed, designs)]
        for got, want in zip(shared, alone, strict=True):
            assert got.line() == want.line()
            assert repr(got.worst) == repr(want.worst)


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

    @pytest.mark.parametrize("n_env", [1, N_ENV])
    def test_one_preexisting_loop_per_environment(self, monkeypatch, n_env):
        # The sampler tests admissibility on the state matrix alone, so the
        # check's own builds are the only preexisting loops of its environments.
        real, calls = verification.assemble_preexisting, []

        def counted(G, env):
            calls.append(env)
            return real(G, env)

        monkeypatch.setattr(verification, "assemble_preexisting", counted)
        assert check_robust_stability(seed=0, n_env=n_env).passed
        assert len(calls) == n_env


def _admissible_env_by_full_loops(rng, G):
    """The sampler as a full preexisting loop per halving (reference copy)."""
    nv, nw = G.L.shape[1], G.Gamma.shape[0]
    cand = verification.random_statespace(rng, 2, nw, nv, stable=True)
    scale = 1.0
    for _ in range(60):
        env = StateSpace(cand.A, cand.B, scale * cand.C, scale * cand.D)
        pre = verification.assemble_preexisting(G, env)
        if verification.spectral_abscissa(pre.A) < verification.STABILITY_TOL:
            return env
        scale *= 0.5
    return StateSpace.zero(nv, nw)


class TestAdmissibleEnvironment:
    def _compare(self, seed):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        G = verification.random_partitioned_plant(got_rng)
        verification.random_partitioned_plant(ref_rng)
        got = verification.random_admissible_env(got_rng, G)
        ref = _admissible_env_by_full_loops(ref_rng, G)
        for name in "ABCD":
            g, r = getattr(got, name), getattr(ref, name)
            assert g.shape == r.shape
            assert g.tobytes() == r.tobytes()
        # The same draws: both generators continue alike.
        assert got_rng.random() == ref_rng.random()
        return got

    def test_same_environment_as_full_loops(self):
        states = {self._compare(seed).n_states for seed in range(200)}
        assert states == {2}

    def test_zero_environment_when_nothing_is_admissible(self, monkeypatch):
        # Every loop refused: 60 halvings, then the zero environment.
        real, loops = verification.spectral_abscissa, []

        def refusing(A):
            if A.shape[0] == 6:  # a preexisting loop: 4 plant, 2 environment states
                loops.append(A.shape)
                return np.inf
            return real(A)

        monkeypatch.setattr(verification, "spectral_abscissa", refusing)
        for seed in range(3):
            env = self._compare(seed)
            assert env.n_states == 0 and not env.D.any()
        assert len(loops) == 3 * 2 * 60
