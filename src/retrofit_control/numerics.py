"""Dense matrix computations shared by the rest of the library.

Eigenvalue-based stability tests, matrix exponentials, the Bartels-Stewart
Lyapunov solver, the Riccati solver (one ordered real Schur form of the
Hamiltonian gives both the stable subspace and the eigenvalues of its
imaginary-axis guard; it refuses, in this order, a form LAPACK cannot find,
an eigenvalue on the axis, a reordering LAPACK cannot complete and a stable
subspace of the wrong dimension), the frequency-response core (batched
LU, or one banded solve per point for a large upper Hessenberg realization),
and the L-infinity / H-infinity norm by a level-set iteration with
gain-witnessed imaginary-axis crossings, whose witness is refined to a
local peak before each Hamiltonian eigensolve; a large realization that
is not upper Hessenberg already is reduced to that form once per norm.
All routines operate on plain numpy arrays and are pure functions.
"""

import functools

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees as _dgees, dtrsen as _dtrsen, zgbsv as _zgbsv

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
_IMAG_TOL = 1e-9
# Relative band, to 1 + |lambda|, for candidate crossings of a level's
# Hamiltonian; candidates count only through evaluated gains.
_CROSSING_BAND = 1e-4
# Cap on the level tests of one norm; each confirmed test raises the bound
# by more than the tolerance and convergence is quadratic.
_MAX_LEVELS = 100
# Cap on the interpolation steps of one witness refinement.
_MAX_REFINE = 12
# Complex entries in the (k, n, n) workspace of one batched solve; larger
# caps raised the peak RSS of a run with no measured speed gain.  An upper
# Hessenberg system whose batch would hold fewer than two points (n >= 46)
# takes one banded solve per point instead.
_FREQ_BATCH = 2**12
# dgees scales a matrix whose largest entry is nonzero and below this
# (sqrt(safe minimum) / precision, 2**-459) or above its inverse.
_SCALE_MIN = 2.0**-459


class NumericsError(RuntimeError):
    """Raised when a matrix-equation solver cannot produce a valid solution."""


def _as_square(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _block(rows):
    """``np.block`` of a grid of 2-D arrays, bit for bit, without its
    recursive checks: each row is joined along the columns, then the rows
    are stacked.  Blocks that do not line up raise ``ValueError``."""
    return np.concatenate([np.concatenate(row, axis=1) for row in rows])


def _unsorted(re, im):
    """``dgees``'s callback when it does not sort; never called."""


@functools.lru_cache(maxsize=None)
def _dgees_lwork(n):
    """Optimal ``dgees`` workspace for order ``n``, which depends on ``n`` only."""
    return int(_dgees(_unsorted, np.zeros((n, n)), lwork=-1)[-2][0])


def _schur(A, select):
    """Real Schur form of ``A`` with the eigenvalues ``select`` takes first.

    ``select(wr, wi)`` is vectorized: it maps the arrays of the real and
    imaginary parts to a boolean array; a complex pair is selected when
    either of its eigenvalues is.  The result is bit for bit that of LAPACK
    ``dgees(select, A, sort_t=1)``, which ``scipy.linalg.schur(A,
    output="real", sort=select)`` calls, built from the routines ``dgees``
    runs itself: ``dgees`` without sorting (workspace cached per order),
    then, only when some eigenvalue is selected, ``dtrsen`` (job ``"N"``)
    and ``dgees``'s test that the selected eigenvalues of the reordered form
    lead.  A matrix that ``dgees`` scales for its range (a largest entry
    below 2**-459 or above 2**459) is sorted by ``dgees`` itself.

    Returns ``(T, Z, sdim, eigs, info)``: ``sdim`` selected eigenvalues
    lead, ``eigs`` is ``wr + i wi`` as LAPACK reports it, and ``info`` is
    ``dgees``'s, left for the caller to check: 1 to n when no Schur form
    was found (nothing is reordered), n + 1 when ``dtrsen`` could not swap
    two blocks, and n + 2 when the selected eigenvalues of the reordered
    form no longer lead.
    """
    n = A.shape[0]
    T, _, wr, wi, Z, _, info = _dgees(_unsorted, A, lwork=_dgees_lwork(n))
    chosen = select(wr, wi)
    if info or not chosen.any():
        return T, Z, 0, wr + 1j * wi, info
    largest = np.abs(A).max()
    if 0.0 < largest < _SCALE_MIN or largest > 1.0 / _SCALE_MIN:
        T, sdim, wr, wi, Z, _, info = _dgees(
            lambda re, im: select(np.float64(re), np.float64(im)), A,
            lwork=_dgees_lwork(n), sort_t=1,
        )
        return T, Z, sdim, wr + 1j * wi, info
    T, Z, wr, wi, sdim, _, _, info = _dtrsen(
        chosen, T, Z, job="N", overwrite_t=1, overwrite_q=1
    )
    if info:
        return T, Z, sdim, wr + 1j * wi, n + 1
    # dgees's own loop: a 2 x 2 block (wi != 0, two entries) is selected when
    # either eigenvalue is, and no selected block may follow one that is not.
    sdim, pair, last, before = 0, False, True, True
    for cur, im in zip(select(wr, wi).tolist(), wi.tolist()):
        if im == 0.0:
            sdim += cur
            pair = False
            info = n + 2 if cur and not last else info
        elif pair:
            cur = last = cur or last
            sdim += 2 * cur
            pair = False
            info = n + 2 if cur and not before else info
        else:
            pair = True
        before, last = last, cur
    return T, Z, sdim, wr + 1j * wi, info


def _schur_diagonal(A):
    """Diagonal of ``A``'s real Schur form, without Schur vectors.

    One ``dgees`` call without sorting and without vectors, on ``_schur``'s
    cached workspace, since the blocking of the Hessenberg reduction
    depends on it.  Returns ``(diag, eigs, info)``: bit for bit ``T``'s
    diagonal, ``eigs`` and ``info`` of ``_schur(A, select)`` when
    ``select`` takes no eigenvalue.
    """
    T, _, wr, wi, _, _, info = _dgees(
        _unsorted, A, compute_v=0, lwork=_dgees_lwork(A.shape[0])
    )
    return T.diagonal(), wr + 1j * wi, info


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
    Hamiltonian matrix via one ordered real Schur decomposition, the stable
    eigenvalues first (Laub 1979).  Its refusals, in order: a Schur form
    LAPACK could not find raises ``LinAlgError``; an eigenvalue of that
    form within ``1e-9`` of the imaginary axis, relative to the largest,
    raises ``NumericsError``; a reordering LAPACK could not complete raises
    ``LinAlgError`` with ``scipy.linalg.schur``'s message; a stable
    subspace of the wrong dimension, or one that is not a graph, raises
    ``NumericsError``.
    """
    A = _as_square(A)
    S = _as_square(S, "S")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    H = _block([[A, -S], [-Q, -A.T]])
    _, Z, sdim, eigs, info = _schur(H, lambda re, im: re < 0.0)
    if info not in (0, 2 * n + 1, 2 * n + 2):
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    scale = max(1.0, np.max(np.abs(eigs)))
    if np.min(np.abs(eigs.real)) <= _IMAG_TOL * scale:
        raise NumericsError(
            "Hamiltonian matrix has eigenvalues on the imaginary axis; "
            "no stabilizing Riccati solution exists"
        )
    if info == 2 * n + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == 2 * n + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
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


def _banded(n):
    """Whether ``n`` states are many enough for the Hessenberg path: a
    batch of ``_FREQ_BATCH`` entries would hold fewer than two points."""
    return n * n > _FREQ_BATCH // 2


def _freq_eval(A, B, C, D, w):
    """``(k, p, m)`` stack of ``C (jwI - A)^{-1} B + D`` over the 1-D grid ``w``.

    Each point is bit-equal to its own evaluation.  When ``A`` is upper
    Hessenberg and large enough for ``_banded``, each point is one banded
    LU solve with partial pivoting (LAPACK ``zgbsv``, one subdiagonal),
    O(n^2) where a dense LU is O(n^3) (Laub 1981); ``hinf_norm`` brings
    its realization to that form once.  Every other system gets batched
    LU solves of at most ``_FREQ_BATCH`` complex entries.  No pole guard:
    an exactly singular point raises ``LinAlgError`` on either path.
    """
    n = A.shape[0]
    if _banded(n) and not np.any(np.tril(A, -2)):
        # zgbsv band storage: entry (i, j) sits in row n + i - j of column
        # j; the first row is workspace for the fill-in of the pivoting.
        band = np.zeros((n + 2, n), dtype=complex, order="F")
        i, j = np.triu_indices(n, -1)
        band[n + i - j, j] = -A[i, j]
        Bc = B.astype(complex)
        X = np.empty((w.size,) + B.shape, dtype=complex)
        for k, x in enumerate(w):
            ab = band.copy(order="F")
            ab[n] += 1j * x
            _, _, X[k], info = _zgbsv(1, n - 1, ab, Bc, overwrite_ab=1)
            if info > 0:
                raise np.linalg.LinAlgError("Singular matrix")
        return C @ X + D
    H = np.empty((w.size,) + D.shape, dtype=complex)
    if n == 0:
        H[:] = D
        return H
    step = max(1, _FREQ_BATCH // (n * n))
    for lo in range(0, w.size, step):
        g = w[lo:lo + step]
        M = 1j * g[:, None, None] * np.eye(n) - A
        X = np.linalg.solve(M, np.broadcast_to(B, (g.size,) + B.shape))
        H[lo:lo + step] = C @ X + D
    return H


def _freq_gain(A, B, C, D, w):
    """Largest singular value of ``C (jwI - A)^{-1} B + D`` at each point of ``w``."""
    return np.linalg.svd(_freq_eval(A, B, C, D, w), compute_uv=False)[:, 0]


def _refine_witness(A, B, C, D, w, g, tol, width=0.0):
    """Largest gain found near the best of the gains ``g`` at the sorted ``w``.

    Successive parabolic interpolation on ``1 / g**2``, which is exact for
    a single lightly damped mode, through the three best points so far.
    Each vertex must fall between the best point's nearest evaluated
    neighbours, at first its neighbours in ``w``; otherwise the larger side
    is bisected, as it is when the first vertex predicts no rise (a
    midpoint between a crossing pair is such a vertex).  The gain is even
    in ``w``, so a best point at 0 is bracketed by the mirror of its right
    neighbour; a best last point gets the mirror of its left neighbour
    evaluated.  A positive ``width`` (the damping of the mode at a pole
    frequency) adds a point on each side at that distance.  The steps stop
    at ``_MAX_REFINE``, or once a step has raised the gain by less than
    ``tol / 4`` and the next vertex predicts less than that.  The result
    is a gain evaluated by ``_freq_gain``.
    """
    def evaluate(u):
        u = np.atleast_1d(u)
        return list(zip(_freq_gain(A, B, C, D, u), u))

    i = int(np.argmax(g))
    if w.size == 1 or not g[i] > 0.0:
        return float(g[i])
    pts = list(zip(g[max(i - 1, 0):i + 2], w[max(i - 1, 0):i + 2]))
    new = []
    if i + 1 == w.size:
        new += evaluate(2.0 * w[i] - w[i - 1])
    if width > 0.0:
        near = min(abs(x - w[i]) for _, x in pts + new if x != w[i])
        new += evaluate(w[i] + np.array([-1.0, 1.0]) * min(width, 0.5 * near))
    # Relative rise of the best gain by the last evaluation; none made yet.
    rise = max(new)[0] / g[i] - 1.0 if new else np.inf
    pts += new
    for _ in range(_MAX_REFINE):
        pts.sort(reverse=True)
        (g0, x0), (g1, x1) = pts[:2]
        right = [x for _, x in pts if x > x0]
        if not right:
            break
        g2, x2 = (g1, -x1) if x0 == 0.0 else pts[2]
        hi = min(right)
        lo = max([x for _, x in pts if x < x0], default=-hi)
        # 1/g**2 = f0 + slope * d + curv * d**2 at x0 + d through the three points.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f0, f1, f2 = g0**-2.0, g1**-2.0, g2**-2.0
            s1, s2 = (f1 - f0) / (x1 - x0), (f2 - f0) / (x2 - x0)
            curv = (s1 - s2) / (x1 - x2)
            slope = s1 - curv * (x1 - x0)
            u = x0 - 0.5 * slope / curv
            # The vertex value f0 - slope**2 / (4 curv) within tol / 4 in gain.
            flat = curv > 0.0 and f0 <= (f0 - 0.25 * slope**2 / curv) * (1.0 + 0.5 * tol)
        if lo < u < hi and flat and rise < 0.25 * tol:
            break
        if not lo < u < hi or flat and rise == np.inf:
            u = 0.5 * (lo + x0) if x0 - lo > hi - x0 else 0.5 * (x0 + hi)
        pts += evaluate(u)
        rise = pts[-1][0] / g0 - 1.0
    return float(max(pts)[0])


def _gain_above(A, B, C, D, gamma, tol):
    """Largest gain found above ``gamma``, or ``None``.

    Eigenvalues of the gamma-level Hamiltonian near the imaginary axis
    mark the candidate frequencies where the gain crosses ``gamma``.  The
    gain is evaluated at each candidate, at ``w = 0`` (the gain is even in
    ``w``, so 0 closes the first interval) and at the midpoint between
    adjacent ones: the peak between a crossing pair is the witness, since
    the gain equals ``gamma`` at a crossing.  An evaluated gain cannot
    produce a false crossing, so one wide band catches axis eigenvalues
    that roundoff pushed off the axis.  A witness above ``gamma`` is moved
    to a local peak by ``_refine_witness``, bracketed by its neighbouring
    candidates (for a midpoint, its crossing pair).  ``None`` means
    ``gamma`` is above the L-infinity norm.
    """
    m = D.shape[1]
    R = gamma**2 * np.eye(m) - D.T @ D
    # Guard: gamma must exceed the feedthrough gain for the test to make sense.
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        raise NumericsError(
            f"level {gamma:.3e} does not exceed the feedthrough gain"
        )
    Ri = np.linalg.inv(R)
    Ac = A + B @ Ri @ D.T @ C
    H = _block(
        [
            [Ac, B @ Ri @ B.T],
            [-C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -Ac.T],
        ]
    )
    eigs = np.linalg.eigvals(H)
    near = np.abs(eigs.real) <= _CROSSING_BAND * (1.0 + np.abs(eigs))
    freqs = np.unique(np.append(np.abs(eigs[near].imag), 0.0))
    cand = np.sort(np.concatenate([freqs, 0.5 * (freqs[:-1] + freqs[1:])]))
    gains = _freq_gain(A, B, C, D, cand)
    if np.max(gains) <= gamma:
        return None
    return _refine_witness(A, B, C, D, cand, gains, tol)


def hinf_norm(sys, tol=1e-6):
    """L-infinity norm of an LTI system (H-infinity norm when stable).

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd & Balakrishnan
    1990) with a refined witness (Benner & Mitchell 2018): the lower bound
    ``lo`` is always an attained gain, seeded by the feedthrough and by one
    batched evaluation at 0 and at each distinct pole frequency, so each
    probe frequency is evaluated once.  Before each level test ``lo`` is
    moved to a local peak by a few guarded steps of successive parabolic
    interpolation on ``1 / sigma_max(G(jw))**2``, first from the best probe,
    then from the best gain a test finds between its crossings.  Each test
    checks the level ``lo * (1 + tol)`` on its Hamiltonian matrix, so one
    test usually certifies the result; a gain above it becomes the new
    ``lo``.  When no gain exceeds the level, the norm lies in
    ``[lo, lo * (1 + tol)]`` and the midpoint is returned.  A realization
    large enough for ``_freq_eval``'s banded path is reduced to upper
    Hessenberg form once on entry, unless ``A`` is upper Hessenberg
    already (a block of a real Schur form is), so the poles, the probes,
    the Hamiltonians and every gain of the norm use that one form, and
    each gain costs O(n^2).

    Parameters
    ----------
    sys : object with A, B, C, D attributes
        State-space realization.  Must have no imaginary-axis poles: one
        as built with no pole in the band, or a deflated one whose marginal
        modes were split off, such as ``retrofit._deflate`` returns.
    tol : float
        Relative width of the final bracket.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    D = np.asarray(sys.D, dtype=float)
    n = A.shape[0]
    if _banded(n) and np.any(np.tril(A, -2)):
        # One Hessenberg form serves every frequency point of this norm.
        A, Q = scipy.linalg.hessenberg(A, calc_q=True)
        B, C = Q.T @ B, C @ Q

    if n > 0:
        poles = np.linalg.eigvals(A)
        on_axis = np.abs(poles.real) <= _IMAG_TOL * (1.0 + np.abs(poles))
        if np.any(on_axis):
            raise NumericsError(
                "system has a pole on the imaginary axis at "
                f"s = {poles[on_axis][0]:.3e}; the norm is undefined"
            )

    if B.size == 0 or C.size == 0:
        return float(np.linalg.svd(D, compute_uv=False)[0]) if D.size else 0.0

    probes = np.unique(np.append(np.abs(poles.imag[np.abs(poles.imag) > 1e-12]), 0))
    gains = _freq_gain(A, B, C, D, probes)
    best = probes[np.argmax(gains)]
    # The damping of the mode at the best pole frequency sets the first step.
    width = np.min(np.abs(poles.real[np.abs(poles.imag) == best])) if best > 0 else 0.0
    lo = max(float(np.linalg.svd(D, compute_uv=False)[0]),
             _refine_witness(A, B, C, D, probes, gains, tol, width))
    if lo <= 1e-13:
        # Possibly the zero system; test a tiny level.
        lo = _gain_above(A, B, C, D, 1e-10, tol)
        if lo is None:
            return 0.0

    for _ in range(_MAX_LEVELS):
        witness = _gain_above(A, B, C, D, lo * (1.0 + tol), tol)
        if witness is None:
            return lo * (1.0 + 0.5 * tol)
        lo = witness
    raise NumericsError("level-set iteration for the L-infinity norm did not converge")
