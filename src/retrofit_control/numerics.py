"""Dense matrix computations shared by the rest of the library.

Eigenvalue-based stability tests, matrix exponentials, the Bartels-Stewart
Lyapunov solver, the Riccati solver, and the L-infinity / H-infinity norm via
Hamiltonian bisection.
All routines operate on plain numpy arrays and are pure functions.
"""

import numpy as np
import scipy.linalg

__all__ = [
    "spectral_abscissa",
    "expm",
    "solve_lyapunov",
    "solve_riccati",
    "solve_care",
    "hinf_norm",
    "NumericsError",
]

# Relative threshold for treating an eigenvalue as lying on the imaginary axis.
_IMAG_AXIS_TOL = 1e-9


class NumericsError(RuntimeError):
    """Raised when a matrix-equation solver cannot produce a valid solution."""


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def spectral_abscissa(A):
    """Maximum real part over the eigenvalues of a square matrix.

    Returns ``-inf`` for the empty (0 x 0) matrix, so that state-free
    systems count as trivially stable.
    """
    A = _as_square(A)
    if A.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def expm(A, t=1.0):
    """Matrix exponential ``e^{A t}`` (scaling-and-squaring with Pade core)."""
    A = _as_square(A)
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(A * float(t))


def solve_lyapunov(A, Q):
    """Solve the continuous Lyapunov equation ``A P + P A^T + Q = 0``.

    Uses the Bartels-Stewart Schur method, O(n^3) at every size.  Requires
    that no two eigenvalues of ``A`` sum to zero (strictly stable ``A``
    suffices); a numerically singular operator raises ``NumericsError``.
    """
    A = _as_square(A)
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise ValueError(f"A and Q dimensions differ: {n} vs {Q.shape[0]}")
    if n == 0:
        return np.zeros((0, 0))

    eigs = np.linalg.eigvals(A)
    sums = eigs[:, None] + eigs[None, :]
    min_sum = np.min(np.abs(sums))
    scale = max(1.0, np.max(np.abs(eigs)))
    if min_sum <= 1e-12 * scale:
        raise NumericsError(
            "singular Lyapunov operator: eigenvalue sum "
            f"lambda_i + lambda_j = {min_sum:.3e} is numerically zero"
        )

    P = scipy.linalg.solve_continuous_lyapunov(A, -Q)
    return 0.5 * (P + P.T)


def solve_riccati(A, S, Q):
    """Stabilizing solution of ``A^T P + P A - P S P + Q = 0``.

    ``S`` and ``Q`` are symmetric but need not be sign definite, which is
    what the H-infinity Riccati equations require.  The solution is taken
    from the stable invariant subspace of the associated 2n x 2n
    Hamiltonian matrix via an ordered real Schur decomposition.
    """
    A = _as_square(A)
    S = _as_square(S, "S")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    H = np.block([[A, -S], [-Q, -A.T]])
    eigs = np.linalg.eigvals(H)
    scale = max(1.0, np.max(np.abs(eigs)))
    if np.min(np.abs(eigs.real)) <= _IMAG_AXIS_TOL * scale:
        raise NumericsError(
            "Hamiltonian matrix has eigenvalues on the imaginary axis; "
            "no stabilizing Riccati solution exists"
        )

    T, Z, sdim = scipy.linalg.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise NumericsError(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = np.linalg.solve(U1.T, U2.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericsError("stable subspace is not a graph subspace") from exc
    return 0.5 * (P + P.T)


def solve_care(A, B, Q, R):
    """Stabilizing solution of ``A^T P + P A - P B R^{-1} B^T P + Q = 0``.

    ``R`` must be symmetric positive definite and ``(A, B)`` stabilizable.
    The closed-loop matrix ``A - B R^{-1} B^T P`` is verified stable.
    """
    A = _as_square(A)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    R = _as_square(R, "R")
    S = B @ np.linalg.solve(R, B.T)
    P = solve_riccati(A, 0.5 * (S + S.T), np.asarray(Q, dtype=float))
    closed = A - S @ P
    if spectral_abscissa(closed) >= 0.0:
        raise NumericsError("Riccati solution is not stabilizing")
    return P


def _freq_gain(A, B, C, D, w):
    """Largest singular value of ``C (jwI - A)^{-1} B + D``."""
    n = A.shape[0]
    if n == 0:
        G = D
    else:
        G = C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D
    if G.size == 0:
        return 0.0
    return float(np.linalg.svd(G, compute_uv=False)[0])


def _imag_axis_crossings(A, B, C, D, gamma):
    """Frequencies where the gamma-level Hamiltonian has imaginary-axis eigenvalues.

    Returns ``None`` when no eigenvalue lies on the axis, meaning
    ``gamma`` is above the L-infinity norm.
    """
    n = A.shape[0]
    m = D.shape[1]
    R = gamma**2 * np.eye(m) - D.T @ D
    # Guard: gamma must exceed the feedthrough gain for the test to make sense.
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        return np.array([0.0])
    Ri = np.linalg.inv(R)
    Ac = A + B @ Ri @ D.T @ C
    H = np.block(
        [
            [Ac, B @ Ri @ B.T],
            [-C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -Ac.T],
        ]
    )
    eigs = np.linalg.eigvals(H)
    scale = 1.0 + np.abs(eigs)
    on_axis = np.abs(eigs.real) <= 1e-10 * scale
    if np.any(on_axis):
        return np.abs(eigs[on_axis].imag)
    # Roundoff on ill-conditioned realizations can push genuine axis
    # eigenvalues out of the strict band.  Near-axis candidates count only
    # when the gain strictly exceeds gamma somewhere among their
    # frequencies and the midpoints between adjacent ones (the gain equals
    # gamma exactly at a crossing, so the peak between a crossing pair is
    # the reliable witness); actual gain evaluations cannot produce false
    # crossings.
    near = np.abs(eigs.real) <= 1e-7 * scale
    if np.any(near):
        freqs = np.sort(np.abs(eigs[near].imag))
        cand = np.concatenate([freqs, 0.5 * (freqs[:-1] + freqs[1:])])
        attained = np.array([_freq_gain(A, B, C, D, w) > gamma for w in cand])
        if np.any(attained):
            return cand[attained]
    return None


def hinf_norm(sys, tol=1e-6):
    """L-infinity norm of an LTI system (H-infinity norm when stable).

    Bisection on the candidate level ``gamma`` using the imaginary-axis
    eigenvalue test on the associated Hamiltonian matrix; the lower bound
    is tightened with direct gain evaluations at the detected crossing
    frequencies, so convergence is fast and the returned level is anchored
    to an actually attained gain.

    Parameters
    ----------
    sys : object with A, B, C, D attributes
        State-space realization.  Must have no imaginary-axis poles
        (run a minimal realization first if needed).
    tol : float
        Relative termination tolerance on the bisection bracket.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    D = np.asarray(sys.D, dtype=float)
    n = A.shape[0]

    if n > 0:
        poles = np.linalg.eigvals(A)
        on_axis = np.abs(poles.real) <= _IMAG_AXIS_TOL * (1.0 + np.abs(poles))
        if np.any(on_axis):
            raise NumericsError(
                "system has a pole on the imaginary axis at "
                f"s = {poles[on_axis][0]:.3e}; the norm is undefined"
            )

    if B.size == 0 or C.size == 0:
        return float(np.linalg.svd(D, compute_uv=False)[0]) if D.size else 0.0
    if n == 0:
        return float(np.linalg.svd(D, compute_uv=False)[0])

    # Seed the lower bound with the feedthrough gain plus a few probe frequencies.
    probes = [0.0]
    probes.extend(np.abs(poles.imag[np.abs(poles.imag) > 1e-12]))
    lo = float(np.linalg.svd(D, compute_uv=False)[0]) if D.size else 0.0
    for w in probes:
        lo = max(lo, _freq_gain(A, B, C, D, w))
    if lo <= 1e-13:
        # Possibly the zero system; confirm with the Hamiltonian test.
        if _imag_axis_crossings(A, B, C, D, 1e-10) is None:
            return 0.0
        lo = 1e-10

    # Find a certified upper bound.
    hi = lo * 2.0
    for _ in range(80):
        freqs = _imag_axis_crossings(A, B, C, D, hi)
        if freqs is None:
            break
        for w in freqs:
            lo = max(lo, _freq_gain(A, B, C, D, w))
        hi = max(hi * 2.0, lo * 2.0)
    else:
        raise NumericsError("failed to bracket the L-infinity norm")

    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        freqs = _imag_axis_crossings(A, B, C, D, mid)
        if freqs is None:
            hi = mid
        else:
            lo = mid
            freqs = np.sort(freqs)
            cand = list(freqs)
            cand.extend(0.5 * (freqs[:-1] + freqs[1:]))
            for w in cand:
                lo = max(lo, _freq_gain(A, B, C, D, w))
            if lo >= hi:
                hi = lo * (1.0 + 1e-14)
    return 0.5 * (lo + hi)
