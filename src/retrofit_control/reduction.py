"""Gramian-based balanced truncation of stable state-space models.

Produces approximate environment models of selectable dimension together
with the Hankel singular values and the classical twice-the-tail
L-infinity error bound.  A system is balanced once; truncating it again,
at any order, reuses that balancing.  The modeling error of a reduced
model is the norm of its difference from the system it approximates.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .lti import StateSpace, add, negate
from .numerics import hinf_norm, solve_lyapunov, spectral_abscissa

__all__ = ["BalancedReduction", "gramians", "balanced_truncate", "modeling_error"]

# Hankel values below this relative threshold are dropped unconditionally to
# avoid ill-conditioned balancing transforms.
_HANKEL_FLOOR = 1e-12


@dataclass(frozen=True)
class BalancedReduction:
    """Result of a balanced truncation.

    ``error_bound`` is twice the sum of the truncated Hankel singular
    values, an upper bound on the L-infinity error of the reduction.
    """

    reduced: StateSpace
    hankel_values: np.ndarray
    error_bound: float


def gramians(sys):
    """Controllability and observability Gramians of a stable system.

    ``Wc`` solves ``A Wc + Wc A^T + B B^T = 0`` and ``Wo`` solves
    ``A^T Wo + Wo A + C^T C = 0``; both are symmetric positive
    semidefinite.  Raises if the system is not strictly stable.
    """
    if spectral_abscissa(sys.A) >= 0.0:
        raise ValueError("gramians require a strictly stable system")
    Wc = solve_lyapunov(sys.A, sys.B @ sys.B.T)
    Wo = solve_lyapunov(sys.A.T, sys.C.T @ sys.C)
    return Wc, Wo


def _psd_factor(W):
    """Factor ``W = L L^T`` of a (numerically) PSD matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (W + W.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


@functools.lru_cache(maxsize=1)
def _balancing(sys):
    """Square-root balancing of ``sys``: ``(Lc, Lo, U, hsv, Vt)``.

    With Gramian factors ``Wc = Lc Lc^T`` and ``Wo = Lo Lo^T``, the SVD
    ``Lo^T Lc = U diag(hsv) Vt`` yields the Hankel values and the
    balancing projection of every order (Laub, Heath, Paige & Ward 1987).
    The last system balanced is kept with its factors, so truncating it
    again at any order reuses them; ``StateSpace`` is immutable and hashes
    by identity, the key.  At most that one system is held.
    """
    Wc, Wo = gramians(sys)
    Lc = _psd_factor(Wc)
    Lo = _psd_factor(Wo)
    U, hsv, Vt = np.linalg.svd(Lo.T @ Lc)
    factors = Lc, Lo, U, hsv[: min(Lc.shape[1], Lo.shape[1])], Vt
    for M in factors:
        M.flags.writeable = False  # shared by every truncation of sys
    return factors


def balanced_truncate(sys, r):
    """Balanced truncation retaining the ``r`` largest Hankel singular values.

    Square-root method on the balancing of ``_balancing``, which is
    computed once per system and reused for every order.  ``r = 0``
    returns the static D-only system.  Requested dimensions below the
    numerical Hankel rank floor are clipped.  ``r`` must be an integer
    (a numpy integer will do, a bool will not).
    """
    n = sys.n_states
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValueError(f"requested dimension r must be an integer, got {r!r}")
    if not 0 <= r <= n:
        raise ValueError(f"requested dimension r={r} outside [0, {n}]")
    if n == 0:
        return BalancedReduction(sys, np.zeros(0), 0.0)

    Lc, Lo, U, hsv, Vt = _balancing(sys)

    significant = int(np.sum(hsv > _HANKEL_FLOOR * (hsv[0] if hsv.size else 0.0)))
    r_eff = min(r, significant)
    tail = float(2.0 * np.sum(hsv[r_eff:]))

    if r_eff == 0:
        reduced = StateSpace.from_gain(sys.D)
    else:
        s_half = np.sqrt(hsv[:r_eff])
        T = Lc @ Vt[:r_eff].T / s_half
        Ti = (U[:, :r_eff] / s_half).T @ Lo.T
        reduced = StateSpace(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D)
    return BalancedReduction(reduced, hsv, tail)


def modeling_error(env, apx):
    """H-infinity norm of the modeling error ``env - apx``.

    Taken on the parallel realization as built, with no ``minreal``: an
    environment and its balanced truncation are both stable, so that
    realization has no pole in ``hinf_norm``'s axis band.  An environment
    with a pole there, as an undamped one has, raises ``NumericsError``.
    """
    return hinf_norm(add(env, negate(apx)))
