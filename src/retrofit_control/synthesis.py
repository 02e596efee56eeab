"""Module-controller design for the rectified design plant.

Output-feedback H-infinity synthesis (two-Riccati central controller with
bisection over the attenuation level) on a generalized plant that stacks
the evaluation output with the weighted control effort, and an
observer-based stabilizing module.  Every module controller is a plain
``(y_hat, w_hat) -> u`` StateSpace.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lti import StateSpace, close_loop, minreal, select
from .numerics import NumericsError, hinf_norm, solve_care, solve_riccati, spectral_abscissa

__all__ = [
    "GeneralizedPlant",
    "SynthesisError",
    "build_generalized_plant",
    "hinf_synthesize",
    "lqg_module",
]

DEFAULT_NOISE_SCALE = 1e-4
_PSD_TOL = 1e-8


class SynthesisError(RuntimeError):
    """Raised when no stabilizing controller meeting the request exists."""


@dataclass(frozen=True)
class GeneralizedPlant:
    """Synthesis plant with exogenous inputs ``(d, noise)`` and control ``u``.

    Performance rows stack the evaluation output with ``alpha``-weighted
    control effort; measurement rows are the rectified ``(y_hat, w_hat)``
    corrupted by ``eps``-scaled fictitious noise so the noise-to-measurement
    feedthrough has full row rank.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D12: np.ndarray
    D21: np.ndarray

    @property
    def n_meas(self):
        return self.C2.shape[0]

    @property
    def n_ctrl(self):
        return self.B2.shape[1]


def build_generalized_plant(design_plant, alpha, eps=DEFAULT_NOISE_SCALE):
    """Stack the synthesis plant for a (rectified) design plant.

    ``design_plant`` is a partitioned plant (typically the feedback of the
    subsystem with its approximate environment model); the modeling-error
    channel ``v`` is left open and ignored here.
    """
    if alpha <= 0:
        raise ValueError("control weight alpha must be positive")
    if not eps > 0:
        raise ValueError("noise scale eps must be positive")
    A = design_plant.A
    W, B_u = design_plant.W, design_plant.B
    S, C, Gamma = design_plant.S, design_plant.C, design_plant.Gamma
    n = A.shape[0]
    nd, nu = W.shape[1], B_u.shape[1]
    nz, ny, nw = S.shape[0], C.shape[0], Gamma.shape[0]
    nmeas = ny + nw

    B1 = np.hstack([W, np.zeros((n, nmeas))])
    C1 = np.vstack([S, np.zeros((nu, n))])
    D12 = np.vstack([np.zeros((nz, nu)), alpha * np.eye(nu)])
    C2 = np.vstack([C, Gamma])
    D21 = np.hstack([np.zeros((nmeas, nd)), eps * np.eye(nmeas)])
    return GeneralizedPlant(A, B1, B_u, C1, C2, D12, D21)


def _riccati_pair(gp, gamma):
    """The two H-infinity Riccati solutions at level ``gamma``, or a failure reason."""
    A, B1, C1 = gp.A, gp.B1, gp.C1
    R12 = gp.D12.T @ gp.D12
    R21 = gp.D21 @ gp.D21.T
    if np.linalg.cond(R21) > 1e14:
        raise SynthesisError("measurement-noise feedthrough is rank deficient")
    T12 = np.linalg.cholesky(R12)
    T21 = np.linalg.cholesky(R21)
    B2n = np.linalg.solve(T12, gp.B2.T).T
    C2n = np.linalg.solve(T21, gp.C2)

    g2 = gamma**-2
    try:
        X = solve_riccati(A, B2n @ B2n.T - g2 * (B1 @ B1.T), C1.T @ C1)
    except NumericsError as exc:
        return None, f"state Riccati: {exc}"
    try:
        Y = solve_riccati(A.T, C2n.T @ C2n - g2 * (C1.T @ C1), B1 @ B1.T)
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
    return (X, Y, B2n, C2n, T12, T21), None


def _central_controller(gp, gamma, data):
    X, Y, B2n, C2n, T12, T21 = data
    g2 = gamma**-2
    F = -B2n.T @ X
    Lo = -Y @ C2n.T
    Z = np.linalg.inv(np.eye(X.shape[0]) - g2 * Y @ X)
    Ac = gp.A + g2 * (gp.B1 @ gp.B1.T) @ X + B2n @ F + Z @ Lo @ C2n
    Bc = -Z @ Lo
    # Undo the input/output normalization.
    Bk = Bc @ np.linalg.inv(T21)
    Ck = np.linalg.solve(T12.T, F)
    return StateSpace(Ac, Bk, Ck, np.zeros((Ck.shape[0], Bk.shape[1])))


def _closed_loop(gp, K):
    """Closed loop of the generalized plant with a controller, d+noise -> perf."""
    nperf = gp.C1.shape[0]
    plant = StateSpace(
        gp.A,
        np.hstack([gp.B1, gp.B2]),
        np.vstack([gp.C1, gp.C2]),
        np.block(
            [
                [np.zeros((nperf, gp.B1.shape[1])), gp.D12],
                [gp.D21, np.zeros((gp.C2.shape[0], gp.B2.shape[1]))],
            ]
        ),
    )
    nw_all = gp.B1.shape[1]
    closed = close_loop(
        plant,
        K,
        in_idx=np.arange(nw_all, nw_all + gp.n_ctrl),
        out_idx=np.arange(nperf, nperf + gp.n_meas),
    )
    return select(closed, np.arange(nperf))


def _design_shift(gp):
    """Decay-rate shift making marginal design-plant modes synthesizable.

    Modes on the imaginary axis that the performance output cannot see
    (the network's rigid-body mode) put Hamiltonian eigenvalues exactly on
    the axis at every level.  Designing for ``A + delta*I`` moves them off;
    the resulting controller is validated against the unshifted plant.
    """
    eigs = np.linalg.eigvals(gp.A) if gp.A.size else np.zeros(0)
    if eigs.size == 0 or np.min(np.abs(eigs.real)) > 1e-8:
        return gp
    for delta in (1e-3, 2e-3, 5e-3, 1e-2):
        if np.min(np.abs(eigs.real + delta)) > 1e-6:
            return replace(gp, A=gp.A + delta * np.eye(gp.A.shape[0]))
    return gp


def hinf_synthesize(gp, gamma_tol=1e-3):
    """Near-optimal H-infinity output-feedback controller for ``gp``.

    Bisects the attenuation level using the two-Riccati solvability test
    and returns ``(K, gamma)``: the central controller at the last feasible
    level, a ``(y_hat, w_hat) -> u`` StateSpace, together with that level.
    The closed loop is verified internally stable with norm within
    ``(1 + gamma_tol)`` of the reported level.
    """
    gp_true = gp
    gp = _design_shift(gp)
    # Upper seed: open-loop disturbance gain when available, else unity.
    open_dz = StateSpace(gp.A, gp.B1, gp.C1)
    hi = 1.0
    if spectral_abscissa(gp.A) < 0:
        try:
            hi = max(10.0 * hinf_norm(minreal(open_dz), tol=1e-3), 1e-6)
        except NumericsError:
            hi = 1.0

    data, reason = _riccati_pair(gp, hi)
    expansions = 0
    while data is None:
        hi *= 4.0
        expansions += 1
        if expansions > 40:
            raise SynthesisError(f"synthesis infeasible at every probed level: {reason}")
        data, reason = _riccati_pair(gp, hi)

    lo = 0.0
    best = (hi, data)
    while hi - lo > gamma_tol * max(lo, 1e-8):
        mid = 0.5 * (lo + hi)
        cand, _ = _riccati_pair(gp, mid)
        if cand is None:
            lo = mid
        else:
            hi = mid
            best = (mid, cand)

    gamma, data = best
    for backoff in range(8):
        K = _central_controller(gp, gamma, data)
        closed = _closed_loop(gp_true, K)
        if spectral_abscissa(closed.A) < 0:
            try:
                achieved = hinf_norm(minreal(closed), tol=1e-6)
            except NumericsError:
                achieved = np.inf
            if achieved <= gamma * (1.0 + gamma_tol) + 1e-9:
                return K, float(gamma)
        gamma *= 1.2
        data, reason = _riccati_pair(gp, gamma)
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
