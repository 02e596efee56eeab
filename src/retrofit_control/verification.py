"""Randomized invariant checks for the retrofit construction.

Samples plants, admissible environments and (possibly unstable) approximate
models, then exercises the defining properties of the construction: the
rectifier kernel identity and the direct/cascade equivalence, both certified
exactly in the paper's change of coordinates, robust stability under every
admissible environment, and the performance-bound sandwich.  Thresholds and
fixed sample sizes are constants.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lti import StateSpace, select
# hinf_norm is unused: perfbench/tests/test_tracer.py pins it (ROADMAP item 9).
from .numerics import NumericsError, hinf_norm, spectral_abscissa
from .retrofit import (
    PartitionedPlant,
    STABILITY_TOL,
    _direct_state,
    _entry_ratio,
    _plain_abscissa,
    _preexisting_state,
    assemble_preexisting,
    cascade_realization,
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
    "check_kernel_identity",
    "check_robust_stability",
    "check_cascade_equivalence",
    "check_bound_sandwich",
    "run_all_checks",
]

# Pass thresholds on a check's worst case; robust stability uses STABILITY_TOL.
KERNEL_TOL = 1e-8
CASCADE_TOL = 1e-6
SANDWICH_SLACK = 1e-9
# Sample sizes: cases of the kernel check, approximate models of robust
# stability, and the designs the cascade and sandwich checks share.
KERNEL_CASES = 20
ROBUST_APX = 10
DESIGN_CASES = 10


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


def _verdict(name, tol, cases, passed=None, detail=""):
    """Reduce ``(value, replay)`` cases to a result: the largest value and its case.

    The check passes when that value is at most ``tol``, or as ``passed``
    says when given.  A NaN value counts as the largest, so it fails; a
    check that evaluated no case fails.
    """
    if not cases:
        return CheckResult(name, False, 0.0, tol, 0, "no case evaluated")
    values = [value for value, _ in cases]
    i = int(np.argmax(values))
    worst = float(values[i])
    passed = worst <= tol if passed is None else passed
    return CheckResult(name, bool(passed), worst, tol, len(cases), detail, cases[i][1])


def random_statespace(rng, n, m, p, stable=True):
    """Random state-space system with spectral abscissa -0.3 (stable) or 0.3."""
    A = rng.standard_normal((n, n))
    if n:
        shift = spectral_abscissa(A)
        target = -0.3 if stable else 0.3
        A = A + (target - shift) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    return StateSpace(A, B, C, D)


def random_partitioned_plant(rng):
    """Random stable, strictly proper partitioned plant: 4 states, channels 2 wide."""
    core = random_statespace(rng, 4, 1, 1, stable=True)
    return PartitionedPlant(
        core.A,
        rng.standard_normal((4, 2)),
        rng.standard_normal((4, 2)),
        rng.standard_normal((4, 2)),
        rng.standard_normal((2, 4)),
        rng.standard_normal((2, 4)),
        rng.standard_normal((2, 4)),
    )


def random_admissible_env(rng, G):
    """Random stable environment scaled until the interconnection is admissible.

    A random stable 2-state ``w -> v`` system has its ``C`` and ``D`` halved
    until the state matrix of its preexisting loop with ``G`` has spectral
    abscissa below ``STABILITY_TOL``; only that matrix is built per halving,
    and the environment once, at the accepted scale.  After 60 halvings
    without one, the zero environment is returned.
    """
    nv, nw = G.L.shape[1], G.Gamma.shape[0]
    cand = random_statespace(rng, 2, nw, nv, stable=True)
    scale = 1.0
    for _ in range(60):
        C, D = scale * cand.C, scale * cand.D
        # Admissibility must hold on the full interconnection state, not just
        # the deflated evaluation map, for a meaningful stress test.
        A = _preexisting_state(G, cand.A, cand.B, C, D)
        if spectral_abscissa(A) < STABILITY_TOL:
            return StateSpace(cand.A, cand.B, C, D)
        scale *= 0.5
    return StateSpace.zero(nv, nw)


def random_apx(rng, G):
    """Random approximate environment model: static, or 2-state stable or unstable."""
    nv, nw = G.L.shape[1], G.Gamma.shape[0]
    kind = rng.integers(0, 4)
    if kind == 0:
        return StateSpace.from_gain(0.5 * rng.standard_normal((nv, nw)))
    if kind == 1:
        return StateSpace.zero(nv, nw)
    stable = kind == 2
    return random_statespace(rng, 2, nw, nv, stable=stable)


def _verified_module(rng, G, apx):
    """Stabilizing module for the design plant, resampling apx on failure."""
    for _ in range(5):
        try:
            gplus = new_subsystem(G, apx)
            module = lqg_module(gplus)
            return module, apx
        except NumericsError:
            apx = random_apx(rng, G)
    raise NumericsError("could not stabilize any sampled design plant")


def check_kernel_identity(seed=0):
    """Rectified outputs are annihilated along the environment channel.

    Max over sampled (plant, model) pairs of the exact certificate
    :func:`kernel_residual`; half the sampled models are unstable.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for ic in range(KERNEL_CASES):
        G = random_partitioned_plant(rng)
        rect = extended_rectifier(G, random_apx(rng, G))
        cases.append((kernel_residual(G, rect), {"seed": seed, "case": ic}))
    return _verdict("kernel identity", KERNEL_TOL, cases)


def check_robust_stability(seed=0, n_env=50):
    """Every verified module keeps every admissible environment stable.

    A case's verdict is ``deflated_abscissa(closed_loop_direct(G, pre, K))``.
    It is read from the closed-loop state matrix alone, through one Schur
    form without vectors, when no mode lies in the marginal band, where
    nothing could split off; a case with such a mode, or without a Schur
    form, closes the full loop and takes the full split.
    """
    rng = np.random.default_rng(seed)
    G = random_partitioned_plant(rng)
    # Each environment's preexisting loop is built once and closed with every K.
    loops = [assemble_preexisting(G, random_admissible_env(rng, G)) for _ in range(n_env)]
    cases = []
    for ia in range(ROBUST_APX):
        module, apx = _verified_module(rng, G, random_apx(rng, G))
        K = compose_retrofit(G, apx, module)
        for ie, pre in enumerate(loops):
            absc = _plain_abscissa(_direct_state(G, pre, K))
            if absc is None:
                absc = deflated_abscissa(closed_loop_direct(G, pre, K))
            cases.append((absc, {"seed": seed, "apx": ia, "env": ie}))
    stable = sum(absc < STABILITY_TOL for absc, _ in cases)
    return _verdict(
        "robust stability", STABILITY_TOL, cases, passed=stable == len(cases),
        detail=f"{stable}/{len(cases)} stable",
    )


def _designs(seed):
    """Endless sampled ``(G, env, apx, module)`` designs, each module verified."""
    rng = np.random.default_rng(seed)
    while True:
        G = random_partitioned_plant(rng)
        env = random_admissible_env(rng, G)
        module, apx = _verified_module(rng, G, random_apx(rng, G))
        yield G, env, apx, module


def check_cascade_equivalence(seed, designs):
    """The direct loop, in the cascade's coordinates ``T``, is the cascade.

    Over ``designs``, ``(G, env, apx, module)`` tuples; ``seed`` labels the
    replay data.  Each of ``T A_d - A_c T``, ``T B_d - B_c``, ``C_d - C_c T``
    and ``D_d - D_c``, split into upstream and downstream states, is measured
    against the cascade's block at its position (``_entry_ratio``), so a
    defect of the coupling ``B_dn`` reads its size relative to ``B_dn``;
    another state order fails.
    """
    cases = []
    for ic, (G, env, apx, module) in enumerate(designs):
        K = compose_retrofit(G, apx, module)
        d = closed_loop_direct(G, assemble_preexisting(G, env), K)
        c = select(cascade_realization(G, env, apx, module), np.arange(G.S.shape[0]))
        sizes = np.cumsum([G.A.shape[0], env.n_states, G.A.shape[0], apx.n_states])
        x, x_env, x_hat, x_apx, x_mod = np.split(np.eye(d.n_states), sizes)
        T = np.vstack([x - x_hat, x_apx, x_mod, x_hat, x_env])
        n_up = d.n_states - sizes[1]
        halves = (np.s_[:n_up], np.s_[n_up:])  # upstream, downstream states
        gap_A, gap_B, gap_C = T @ d.A - c.A @ T, T @ d.B - c.B, d.C - c.C @ T
        pairs = [(gap_A[i, j], c.A[i, j]) for i in halves for j in halves]
        pairs += [(gap_B[i], c.B[i]) for i in halves]
        pairs += [(gap_C[:, j], c.C[:, j]) for j in halves]
        pairs.append((d.D - c.D, c.D))
        val = _entry_ratio(pairs, (d.A, d.B, d.C, d.D, c.A, c.B, c.C, c.D))
        cases.append((val, {"seed": seed, "case": ic}))
    return _verdict("cascade equivalence", CASCADE_TOL, cases)


def check_bound_sandwich(seed, designs):
    """|gamma_check - gamma_hat| <= ||T_zd|| <= gamma_hat + gamma_check over ``designs``."""
    cases = []
    for ic, (G, env, apx, module) in enumerate(designs):
        report = performance_bounds(G, env, apx, module)
        replay = {"seed": seed, "case": ic}
        if not report.stable:
            return CheckResult(
                "bound sandwich", False, np.inf, SANDWICH_SLACK, ic + 1,
                detail="unstable closed loop", replay=replay,
            )
        violation = max(
            report.lower - report.gamma_actual, report.gamma_actual - report.upper
        )
        cases.append((violation, replay))
    return _verdict("bound sandwich", SANDWICH_SLACK, cases)


def run_all_checks(seed=0, fuzz_count=50):
    """Run the full invariant suite; returns the list of results.

    ``fuzz_count`` is the number of admissible environments in the
    robust-stability check; the other checks keep their own sample sizes.
    0 skips the robust-stability check, and negative counts are rejected.
    The cascade and sandwich checks share one sample of their designs.
    """
    if fuzz_count < 0:
        raise ValueError(f"fuzz_count must be nonnegative, got {fuzz_count}")
    results = [check_kernel_identity(seed=seed)]
    if fuzz_count > 0:
        results.append(check_robust_stability(seed=seed, n_env=fuzz_count))
    designs = list(itertools.islice(_designs(seed), DESIGN_CASES))
    results.append(check_cascade_equivalence(seed, designs))
    results.append(check_bound_sandwich(seed, designs))
    return results
