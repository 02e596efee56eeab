"""Randomized invariant checks for the retrofit construction.

Samples plants, admissible environments and (possibly unstable) approximate
models, then exercises the defining properties of the construction: the
rectifier kernel identity, robust closed-loop stability under every
admissible environment, equivalence of the direct and cascade closed-loop
realizations, the performance-bound sandwich, and the pointwise matrix
identities used throughout the interconnection algebra.
"""

from dataclasses import dataclass, field

import numpy as np

from .lti import StateSpace, add, freq_response, minreal, negate
from .numerics import NumericsError, hinf_norm, spectral_abscissa
from .retrofit import (
    PartitionedPlant,
    EnvironmentModel,
    Rectifier,
    STABILITY_TOL,
    assemble_preexisting,
    cascade_realization,
    check_admissible,
    closed_loop_direct,
    compose_retrofit,
    deflated_abscissa,
    extended_rectifier,
    kernel_residual,
    new_subsystem,
    performance_bounds,
)
from .synthesis import lqg_module

__all__ = [
    "CheckResult",
    "random_statespace",
    "random_partitioned_plant",
    "random_admissible_env",
    "random_apx",
    "sabotage_rectifier",
    "check_kernel_identity",
    "check_robust_stability",
    "check_cascade_equivalence",
    "check_bound_sandwich",
    "check_matrix_identities",
    "run_all_checks",
]


@dataclass
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    passed: bool
    worst: float
    tol: float
    cases: int
    detail: str = ""
    replay: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: worst {self.worst:.3e} vs tol {self.tol:.1e} "
            f"over {self.cases} cases{('  [' + self.detail + ']') if self.detail else ''}"
        )


def random_statespace(rng, n, m, p, stable=True, margin=0.3):
    """Random state-space system with a controlled stability margin."""
    A = rng.standard_normal((n, n))
    if n:
        shift = spectral_abscissa(A)
        target = -margin if stable else margin
        A = A + (target - shift) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    return StateSpace(A, B, C, D)


def random_partitioned_plant(rng, n=4, nv=2, nw=2, nd=2, nu=2, nz=2, ny=2):
    """Random stable, strictly proper partitioned plant."""
    core = random_statespace(rng, n, 1, 1, stable=True)
    return PartitionedPlant.from_blocks(
        core.A,
        rng.standard_normal((n, nu)),
        rng.standard_normal((n, nv)),
        rng.standard_normal((n, nd)),
        rng.standard_normal((nw, n)),
        rng.standard_normal((nz, n)),
        rng.standard_normal((ny, n)),
    )


def random_admissible_env(rng, G, n_states=2, max_tries=60):
    """Random stable environment scaled until the interconnection is admissible."""
    nv = len(G.cmap.inputs["v"])
    nw = len(G.cmap.outputs["w"])
    cand = random_statespace(rng, n_states, nw, nv, stable=True)
    scale = 1.0
    for _ in range(max_tries):
        env = EnvironmentModel(
            StateSpace(cand.A, cand.B, scale * cand.C, scale * cand.D)
        )
        # Admissibility must hold on the full interconnection state, not just
        # the deflated evaluation map, for a meaningful stress test.
        if check_admissible(G, env) and _full_loop_stable(G, env):
            return env
        scale *= 0.5
    return EnvironmentModel.zero(nv, nw)


def _full_loop_stable(G, env):
    return spectral_abscissa(assemble_preexisting(G, env).A) < 0.0


def random_apx(rng, G, n_states=2):
    """Random approximate environment model: static, stable, or unstable."""
    nv = len(G.cmap.inputs["v"])
    nw = len(G.cmap.outputs["w"])
    kind = rng.integers(0, 4)
    if kind == 0:
        return EnvironmentModel.from_gain(0.5 * rng.standard_normal((nv, nw)))
    if kind == 1:
        return EnvironmentModel.zero(nv, nw)
    stable = kind == 2
    return EnvironmentModel(random_statespace(rng, n_states, nw, nv, stable=stable))


def _verified_module(rng, G, apx, max_tries=5):
    """Stabilizing module for the design plant, resampling apx on failure."""
    for _ in range(max_tries):
        try:
            gplus = new_subsystem(G, apx)
            module = lqg_module(gplus)
            return module, apx
        except NumericsError:
            apx = random_apx(rng, G)
    raise NumericsError("could not stabilize any sampled design plant")


def sabotage_rectifier(rect):
    """Sign-flip the rectifier feedthrough (mutation hook for self-testing)."""
    s = rect.sys
    return Rectifier(StateSpace(s.A, s.B, s.C, -s.D), rect.plant, rect.apx)


def check_kernel_identity(seed=0, n_plants=20, n_apx=20, tol=1e-8, mangle=None):
    """Rectified outputs are annihilated along the environment channel.

    Max over plants, models and the frequency grid of
    ``||(XR)(jw) G_(y,w,v)v(jw)||``; half the sampled models are unstable.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = {}
    cases = 0
    for ip in range(n_plants):
        G = random_partitioned_plant(rng)
        for ia in range(max(1, n_apx // n_plants)):
            apx = random_apx(rng, G)
            rect = extended_rectifier(G, apx)
            if mangle is not None:
                rect = mangle(rect)
            val = kernel_residual(G, rect)
            cases += 1
            if val > worst:
                worst = val
                worst_case = {"seed": seed, "plant": ip, "apx": ia}
    return CheckResult("kernel identity", worst <= tol, worst, tol, cases,
                       replay=worst_case)


def check_robust_stability(seed=0, n_env=50, n_apx=10, tol=STABILITY_TOL):
    """Every verified module keeps every admissible environment stable."""
    rng = np.random.default_rng(seed)
    G = random_partitioned_plant(rng)
    envs = [random_admissible_env(rng, G) for _ in range(n_env)]
    worst = -np.inf
    failures = 0
    cases = 0
    worst_case = {}
    for ia in range(n_apx):
        apx = random_apx(rng, G)
        module, apx = _verified_module(rng, G, apx)
        K = compose_retrofit(module, extended_rectifier(G, apx))
        for ie, env in enumerate(envs):
            absc = deflated_abscissa(closed_loop_direct(G, env, K))
            cases += 1
            if absc > worst:
                worst = absc
                worst_case = {"seed": seed, "apx": ia, "env": ie}
            if not absc < tol:
                failures += 1
    return CheckResult(
        "robust stability", failures == 0, worst, tol, cases,
        detail=f"{cases - failures}/{cases} stable", replay=worst_case,
    )


def _relative_gap(sys_a, sys_b):
    diff = minreal(add(sys_a, negate(sys_b)))
    ref = hinf_norm(minreal(sys_a))
    gap = hinf_norm(diff)
    return gap / max(ref, 1e-300)


def check_cascade_equivalence(seed=0, n_cases=10, tol=1e-6):
    """Direct interconnection and cascade realization share the same T_zd."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = {}
    for ic in range(n_cases):
        G = random_partitioned_plant(rng)
        env = random_admissible_env(rng, G)
        module, apx = _verified_module(rng, G, random_apx(rng, G))
        K = compose_retrofit(module, extended_rectifier(G, apx))
        direct = closed_loop_direct(G, env, K)
        casc = cascade_realization(G, env, apx, module)
        val = _relative_gap(direct, casc.T_zd)
        if val > worst:
            worst = val
            worst_case = {"seed": seed, "case": ic}
    return CheckResult("cascade equivalence", worst <= tol, worst, tol, n_cases,
                       replay=worst_case)


def check_bound_sandwich(seed=0, n_cases=10, slack=1e-9):
    """|gamma_check - gamma_hat| <= ||T_zd|| <= gamma_hat + gamma_check."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_case = {}
    for ic in range(n_cases):
        G = random_partitioned_plant(rng)
        env = random_admissible_env(rng, G)
        module, apx = _verified_module(rng, G, random_apx(rng, G))
        report = performance_bounds(G, env, apx, module)
        if not report.stable:
            return CheckResult(
                "bound sandwich", False, np.inf, slack, n_cases,
                detail="unstable closed loop", replay={"seed": seed, "case": ic},
            )
        violation = max(
            report.lower - report.gamma_actual, report.gamma_actual - report.upper
        )
        if violation > worst:
            worst = violation
            worst_case = {"seed": seed, "case": ic}
    return CheckResult("bound sandwich", worst <= slack, worst, slack, n_cases,
                       replay=worst_case)


def check_matrix_identities(seed=0, n_cases=20, tol=1e-9):
    """Pointwise loop-algebra identities for random square transfer matrices.

    Checks ``(I+PK)^{-1} = I + PK(I-PK)^{-1}`` and
    ``(I-PK)^{-1}P = P(I-KP)^{-1}`` at random frequencies.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = {}
    for ic in range(n_cases):
        m = int(rng.integers(1, 4))
        P = random_statespace(rng, 3, m, m, stable=True)
        K = random_statespace(rng, 2, m, m, stable=True)
        w = float(10.0 ** rng.uniform(-2, 2))
        Pw = freq_response(P, w)
        Kw = freq_response(K, w)
        eye = np.eye(m)
        if min(
            np.linalg.cond(eye - Pw @ Kw),
            np.linalg.cond(eye + Pw @ Kw),
            np.linalg.cond(eye - Kw @ Pw),
        ) > 1e10:
            continue
        lhs1 = np.linalg.inv(eye + Pw @ Kw)
        rhs1 = eye - Pw @ Kw @ np.linalg.inv(eye + Pw @ Kw)
        lhs2 = np.linalg.inv(eye - Pw @ Kw) @ Pw
        rhs2 = Pw @ np.linalg.inv(eye - Kw @ Pw)
        scale = max(1.0, np.linalg.norm(Pw), np.linalg.norm(Kw))
        val = max(
            np.linalg.norm(lhs1 - rhs1) / scale, np.linalg.norm(lhs2 - rhs2) / scale
        )
        if val > worst:
            worst = val
            worst_case = {"seed": seed, "case": ic}
    return CheckResult("matrix identities", worst <= tol, worst, tol, n_cases,
                       replay=worst_case)


def run_all_checks(seed=0, fuzz_count=None, mangle_rectifier=None):
    """Run the full invariant suite; returns the list of results.

    ``fuzz_count`` scales the randomized sample sizes (0 keeps only the
    deterministic matrix-identity checks; negative counts are rejected);
    ``mangle_rectifier`` is a mutation hook applied inside the kernel check.
    """
    if fuzz_count is None:
        fuzz_count = 50
    if fuzz_count < 0:
        raise ValueError(f"fuzz_count must be nonnegative, got {fuzz_count}")
    results = [check_matrix_identities(seed=seed)]
    if fuzz_count > 0:
        n_env = max(1, fuzz_count)
        results.append(
            check_kernel_identity(seed=seed, mangle=mangle_rectifier)
        )
        results.append(check_robust_stability(seed=seed, n_env=n_env, n_apx=10))
        results.append(check_cascade_equivalence(seed=seed))
        results.append(check_bound_sandwich(seed=seed))
    return results
