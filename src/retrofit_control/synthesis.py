"""Module-controller design for the rectified design plant.

Output-feedback H-infinity synthesis (the two-Riccati central controller of
Doyle, Glover, Khargonekar and Francis, with bisection over the attenuation
level) and an observer-based stabilizing module.  ``hinf_synthesize`` takes
the design plant and stacks its generalized plant itself: exogenous inputs
``(d, noise)``, performance rows ``(z, alpha * u)`` and measurement rows
``(y_hat, w_hat)`` corrupted by fictitious noise scaled by ``1e-4``, so
the noise-to-measurement feedthrough has full row rank.  Every module
controller is a plain ``(y_hat, w_hat) -> u`` StateSpace.
"""

import numpy as np

from .lti import StateSpace, close_loop, minreal, select
from .numerics import (
    NumericsError, _block, hinf_norm, solve_care, solve_riccati, spectral_abscissa,
)

__all__ = ["SynthesisError", "hinf_synthesize", "lqg_module"]

_NOISE_SCALE = 1e-4
_GAMMA_TOL = 1e-3
_PSD_TOL = 1e-8


class SynthesisError(RuntimeError):
    """Raised when no stabilizing controller meeting the request exists."""


def _level_free_terms(B1, B2, C1, C2, D12, D21):
    """The terms of the Riccati pair that do not depend on the level.

    The control and noise feedthroughs are normalized to identity through
    their Cholesky factors ``T12`` and ``T21``.  Returns ``(B2n, C2n, T12,
    T21)`` followed by the Gram products ``B1 B1'``, ``C1' C1``,
    ``B2n B2n'`` and ``C2n' C2n``.  A feedthrough so large that its own
    product overflows is refused as not finite, one that is rank deficient
    as such, and one so small that a normalized product overflows as not
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        R12, R21 = D12.T @ D12, D21 @ D21.T
    for R, name in ((R12, "control-weight"), (R21, "measurement-noise")):
        if not np.isfinite(R).all():
            raise SynthesisError(f"{name} feedthrough product is not finite")
        if np.linalg.cond(R) > 1e14:
            raise SynthesisError(f"{name} feedthrough is rank deficient")
    T12, T21 = np.linalg.cholesky(R12), np.linalg.cholesky(R21)
    B2n = np.linalg.solve(T12, B2.T).T
    C2n = np.linalg.solve(T21, C2)
    with np.errstate(over="ignore", invalid="ignore"):
        grams = (B1 @ B1.T, C1.T @ C1, B2n @ B2n.T, C2n.T @ C2n)
    if not all(np.isfinite(g).all() for g in grams):
        raise SynthesisError("normalized feedthrough products are not finite")
    return (B2n, C2n, T12, T21) + grams


def _riccati_pair(A, terms, gamma):
    """The two H-infinity Riccati solutions at level ``gamma``, or a failure reason."""
    BB1, CC1, BB2n, CC2n = terms[4:]
    g2 = gamma**-2
    try:
        X = solve_riccati(A, BB2n - g2 * BB1, CC1)
    except NumericsError as exc:
        return None, f"state Riccati: {exc}"
    try:
        Y = solve_riccati(A.T, CC2n - g2 * CC1, BB1)
    except NumericsError as exc:
        return None, f"observer Riccati: {exc}"

    scale_x = max(1.0, float(np.linalg.norm(X, 2)))
    scale_y = max(1.0, float(np.linalg.norm(Y, 2)))
    if np.min(np.linalg.eigvalsh(X)) < -_PSD_TOL * scale_x:
        return None, "state Riccati solution is indefinite"
    if np.min(np.linalg.eigvalsh(Y)) < -_PSD_TOL * scale_y:
        return None, "observer Riccati solution is indefinite"
    rho = float(np.max(np.abs(np.linalg.eigvals(X @ Y))))
    if rho >= gamma**2 * (1.0 - 1e-10):
        return None, f"coupling condition rho(XY) = {rho:.3e} >= gamma^2"
    return (X, Y), None


def _central_controller(A, terms, gamma, XY):
    B2n, C2n, T12, T21, BB1 = terms[:5]
    X, Y = XY
    g2 = gamma**-2
    F = -B2n.T @ X
    Lo = -Y @ C2n.T
    Z = np.linalg.inv(np.eye(X.shape[0]) - g2 * Y @ X)
    Ac = A + g2 * BB1 @ X + B2n @ F + Z @ Lo @ C2n
    Bc = -Z @ Lo
    # Undo the input/output normalization.
    Bk = Bc @ np.linalg.inv(T21)
    Ck = np.linalg.solve(T12.T, F)
    return StateSpace(Ac, Bk, Ck, np.zeros((Ck.shape[0], Bk.shape[1])))


def _design_shift(A):
    """Decay-rate shift making marginal design-plant modes synthesizable.

    Modes on the imaginary axis that the performance output cannot see
    (the network's rigid-body mode) put Hamiltonian eigenvalues exactly on
    the axis at every level.  Designing for ``A + delta*I`` moves them off;
    the resulting controller is validated against the unshifted plant.
    """
    eigs = np.linalg.eigvals(A) if A.size else np.zeros(0)
    if eigs.size == 0 or np.min(np.abs(eigs.real)) > 1e-8:
        return A
    for delta in (1e-3, 2e-3, 5e-3, 1e-2):
        if np.min(np.abs(eigs.real + delta)) > 1e-6:
            return A + delta * np.eye(A.shape[0])
    return A


def hinf_synthesize(design_plant, alpha):
    """Near-optimal H-infinity output-feedback module for a design plant.

    ``design_plant`` is a partitioned plant, typically the subsystem closed
    with its approximate environment model (``new_subsystem(G, apx)``); its
    modeling-error channel ``v`` is left open and ignored.  The generalized
    plant is the one the module docstring describes; ``alpha`` must be
    positive.

    Bisects the attenuation level using the two-Riccati solvability test
    and returns ``(K, gamma)``: the central controller at the last feasible
    level, a ``(y_hat, w_hat) -> u`` StateSpace, together with that level.
    The closed loop is verified internally stable with norm within a
    relative ``1e-3`` of the reported level.
    """
    if alpha <= 0:
        raise ValueError("control weight alpha must be positive")
    A_true = design_plant.A
    W, B2 = design_plant.W, design_plant.B
    S, C, Gamma = design_plant.S, design_plant.C, design_plant.Gamma
    n = A_true.shape[0]
    nd, nu = W.shape[1], B2.shape[1]
    nz, nmeas = S.shape[0], C.shape[0] + Gamma.shape[0]
    nperf, nexo = nz + nu, nd + nmeas

    B1 = np.hstack([W, np.zeros((n, nmeas))])
    C1 = np.vstack([S, np.zeros((nu, n))])
    D12 = np.vstack([np.zeros((nz, nu)), alpha * np.eye(nu)])
    C2 = np.vstack([C, Gamma])
    D21 = np.hstack([np.zeros((nmeas, nd)), _NOISE_SCALE * np.eye(nmeas)])
    terms = _level_free_terms(B1, B2, C1, C2, D12, D21)
    plant = StateSpace(
        A_true,
        np.hstack([B1, B2]),
        np.vstack([C1, C2]),
        _block([[np.zeros((nperf, nexo)), D12], [D21, np.zeros((nmeas, nu))]]),
    )

    A = _design_shift(A_true)
    # Upper seed: open-loop disturbance gain when available, else unity.
    hi = 1.0
    if spectral_abscissa(A) < 0:
        try:
            hi = max(10.0 * hinf_norm(minreal(StateSpace(A, B1, C1)), tol=1e-3), 1e-6)
        except NumericsError:
            hi = 1.0

    data, reason = _riccati_pair(A, terms, hi)
    expansions = 0
    while data is None:
        hi *= 4.0
        expansions += 1
        if expansions > 40:
            raise SynthesisError(f"synthesis infeasible at every probed level: {reason}")
        data, reason = _riccati_pair(A, terms, hi)

    lo = 0.0
    best = (hi, data)
    while hi - lo > _GAMMA_TOL * max(lo, 1e-8):
        mid = 0.5 * (lo + hi)
        cand, _ = _riccati_pair(A, terms, mid)
        if cand is None:
            lo = mid
        else:
            hi = mid
            best = (mid, cand)

    gamma, data = best
    for _ in range(8):
        K = _central_controller(A, terms, gamma, data)
        closed = select(
            close_loop(plant, K, np.arange(nexo, nexo + nu), np.arange(nperf, nperf + nmeas)),
            np.arange(nperf),
        )
        if spectral_abscissa(closed.A) < 0:
            try:
                achieved = hinf_norm(minreal(closed), tol=1e-6)
            except NumericsError:
                achieved = np.inf
            if achieved <= gamma * (1.0 + _GAMMA_TOL) + 1e-9:
                return K, float(gamma)
        gamma *= 1.2
        data, reason = _riccati_pair(A, terms, gamma)
        if data is None:
            raise SynthesisError(f"controller validation failed: {reason}")
    raise SynthesisError("central controller failed closed-loop validation")


def lqg_module(design_plant):
    """Observer-based stabilizing module controller for a design plant.

    LQR state feedback plus a dual-Riccati observer on the rectified
    measurements, both with identity weights, returned as a
    ``(y_hat, w_hat) -> u`` StateSpace; useful as a generic verified module
    when no H-infinity objective is needed (random stability sweeps, tests).
    """
    A, B = design_plant.A, design_plant.B
    C = np.vstack([design_plant.C, design_plant.Gamma])
    n = A.shape[0]
    F = B.T @ solve_care(A, B, np.eye(n), np.eye(B.shape[1]))
    Lo = solve_care(A.T, C.T, np.eye(n), np.eye(C.shape[0])) @ C.T
    Ak = A - B @ F - Lo @ C
    return StateSpace(Ak, Lo, -F, np.zeros((F.shape[0], Lo.shape[1])))
