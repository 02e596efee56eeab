"""Continuous-time LTI state-space systems and their interconnection algebra.

The positive-feedback sign convention ``(I - P K)^{-1}`` is fixed globally:
:func:`close_loop` injects the loop signal *additively* into the plant
input.  All operations return new :class:`StateSpace` values;
instances are immutable after construction.
"""

import numpy as np
import scipy.linalg

from .numerics import _block, _freq_eval, expm

__all__ = [
    "StateSpace",
    "select",
    "series",
    "add",
    "negate",
    "close_loop",
    "freq_response",
    "simulate",
    "minreal",
]

_MINREAL_TOL = 1e-8
# Relative pole distance below which ``freq_response`` also tests the
# conditioning of ``jwI - A``; far above the 9e-7 by which roundoff moves
# the computed eigenvalues of a defective imaginary-axis pair.
_POLE_BAND = 1e-4


class StateSpace:
    """Real state-space quadruple ``(A, B, C, D)``.

    ``D`` defaults to zero.  Dimension consistency and finiteness are
    checked at construction; the stored arrays are read-only copies.
    """

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A, B, C, D=None):
        A = np.array(A, dtype=float, ndmin=2)
        B = np.array(B, dtype=float, ndmin=2)
        C = np.array(C, dtype=float, ndmin=2)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        else:
            D = np.array(D, dtype=float, ndmin=2)
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            # Counting the finite entries is cheaper than .all() on small blocks.
            if np.count_nonzero(np.isfinite(M)) != M.size:
                raise ValueError(f"{name} contains non-finite entries")
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @classmethod
    def _trusted(cls, A, B, C, D):
        """Wrap read-only blocks of checked systems, without a copy or a check."""
        sys = object.__new__(cls)
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(sys, name, M)
        return sys

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @classmethod
    def from_gain(cls, D):
        """Static (state-free) system ``y = D u``."""
        D = np.atleast_2d(np.asarray(D, dtype=float))
        return cls(
            np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D
        )

    @classmethod
    def zero(cls, n_outputs, n_inputs):
        """The zero system of the given shape."""
        return cls.from_gain(np.zeros((n_outputs, n_inputs)))

    def __repr__(self):
        return (
            f"StateSpace(states={self.n_states}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs})"
        )


def _indices(spec, limit, name):
    """``spec`` as a flat integer index array into ``range(limit)``.

    A boolean mask or a float is refused rather than read as positions;
    an empty spec is accepted whatever its dtype.
    """
    idx = np.asarray(spec).ravel()
    if not idx.size:
        return idx.astype(int)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer indices, got dtype {idx.dtype}")
    # Python's min and max of the list are cheaper than numpy's reductions
    # at the few indices of a loop or a selection.
    listed = idx.tolist()
    if min(listed) < 0 or max(listed) >= limit:
        raise ValueError(f"{name} indices {idx} out of range [0, {limit})")
    return idx


def select(sys, rows=None, cols=None):
    """Subsystem keeping the output ``rows`` and input ``cols`` (all when ``None``).

    The result shares ``sys.A``; its other blocks are read-only copies.
    """
    B, C, D = sys.B, sys.C, sys.D
    if rows is not None:
        rows = _indices(rows, sys.n_outputs, "rows")
        C, D = C.take(rows, axis=0), D.take(rows, axis=0)
    if cols is not None:
        cols = _indices(cols, sys.n_inputs, "cols")
        B, D = B[:, cols], D[:, cols]
    for M in (B, C, D):
        M.setflags(write=False)
    return StateSpace._trusted(sys.A, B, C, D)


def series(g1, g2):
    """Cascade ``g2 o g1``; transfer matrix ``G2(s) G1(s)``."""
    if g1.n_outputs != g2.n_inputs:
        raise ValueError(
            f"series: g1 has {g1.n_outputs} outputs, g2 expects {g2.n_inputs} inputs"
        )
    n1, n2 = g1.n_states, g2.n_states
    A = _block([[g1.A, np.zeros((n1, n2))], [g2.B @ g1.C, g2.A]])
    B = np.vstack([g1.B, g2.B @ g1.D])
    C = np.hstack([g2.D @ g1.C, g2.C])
    D = g2.D @ g1.D
    return StateSpace(A, B, C, D)


def add(g1, g2):
    """Parallel sum: same input into both, outputs added."""
    if g1.n_inputs != g2.n_inputs or g1.n_outputs != g2.n_outputs:
        raise ValueError("add: dimension mismatch")
    A = scipy.linalg.block_diag(g1.A, g2.A)
    B = np.vstack([g1.B, g2.B])
    C = np.hstack([g1.C, g2.C])
    return StateSpace(A, B, C, g1.D + g2.D)


def negate(sys):
    """Flip the sign of the output."""
    return StateSpace(sys.A, sys.B, -sys.C, -sys.D)


def _loop_state(A, Bl, Cs, ctrl):
    """State matrix of :func:`close_loop` for a loop without feedthrough.

    ``A`` is the plant's state matrix, ``Bl`` its looped input columns and
    ``Cs`` its looped output rows, indexed as ``close_loop`` indexes them.
    This is the general formula without its products by ``Mi = I`` and
    through ``Dsl = 0``, bit for bit.  Those products only turn -0.0 into
    +0.0, which a matrix product does not see (``Ak + 0.0`` does the same
    where a sum would), and leave ``Bk`` and ``Ck`` in C order, which picks
    the BLAS routine of a product.  Returns ``(A_cl, Bk, Ck, Bl Dk)``, the
    last three for the rest of the loop.
    """
    Bk, Ck = np.ascontiguousarray(ctrl.B), np.ascontiguousarray(ctrl.C)
    BlDk = Bl @ ctrl.D
    A_cl = _block([[A + BlDk @ Cs, Bl @ Ck], [Bk @ Cs, ctrl.A + 0.0]])
    return A_cl, Bk, Ck, BlDk


def close_loop(sys, ctrl, in_idx, out_idx):
    """Close the loop ``u[in_idx] = ctrl(y[out_idx])``.

    All outputs of ``sys`` are retained and the looped input columns are
    removed from the input list.  The closed-loop state is the plant state
    stacked over the controller state.  Raises on an algebraic loop
    (singular ``I - D_loop D_ctrl``).  A loop without feedthrough
    (``D_loop = 0``, as in every retrofit closure) is closed without that
    inverse and without the products through ``D_loop``, to the same bits.
    """
    in_idx = _indices(in_idx, sys.n_inputs, "in_idx")
    out_idx = _indices(out_idx, sys.n_outputs, "out_idx")
    other = np.ones(sys.n_inputs, dtype=bool)
    other[in_idx] = False
    if ctrl.n_inputs != len(out_idx) or ctrl.n_outputs != len(in_idx):
        raise ValueError(
            f"controller maps {ctrl.n_inputs} -> {ctrl.n_outputs}, loop needs "
            f"{len(out_idx)} -> {len(in_idx)}"
        )

    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Bl, Bo = B[:, in_idx], B[:, other]
    Cs, Ds = C.take(out_idx, axis=0), D.take(out_idx, axis=0)
    Dsl, Dso = Ds[:, in_idx], Ds[:, other]
    Ak, Bk, Ck, Dk = ctrl.A, ctrl.B, ctrl.C, ctrl.D
    Dl = D[:, in_idx]

    if not Dsl.any():
        # M = I exactly; the rest of the loop follows _loop_state's rules.
        A_cl, Bk, Ck, BlDk = _loop_state(A, Bl, Cs, ctrl)
        DlDk = Dl @ Dk
        B_cl = np.concatenate([Bo + BlDk @ Dso, Bk @ Dso])
        C_cl = np.concatenate([C + DlDk @ Cs, Dl @ Ck], axis=1)
        return StateSpace(A_cl, B_cl, C_cl, D[:, other] + DlDk @ Dso)

    M = np.eye(len(out_idx)) - Dsl @ Dk
    if np.linalg.cond(M) > 1e12:
        raise ValueError("algebraic loop: I - D_loop D_ctrl is singular")
    Mi = np.linalg.inv(M)

    # y_s = Mi (Cs x + Dsl Ck xk + Dso u_o); u_l = Ck xk + Dk y_s.  Shared
    # products are formed once; every chain associates left to right
    # (Bl Dk Mi is (Bl Dk) Mi, not Bl (Dk Mi)), which fixes the rounding.
    DkMi, BkMi = Dk @ Mi, Bk @ Mi
    BlDkMi = Bl @ Dk @ Mi
    Ckl = Ck + DkMi @ Dsl @ Ck
    A_cl = _block([[A + BlDkMi @ Cs, Bl @ Ckl], [BkMi @ Cs, Ak + BkMi @ Dsl @ Ck]])
    B_cl = np.vstack([Bo + BlDkMi @ Dso, BkMi @ Dso])

    # Full output map: y = C x + D_l u_l + D_o u_o with u_l resolved.
    DlDkMi = Dl @ Dk @ Mi
    C_cl = np.hstack([C + DlDkMi @ Cs, Dl @ Ckl])
    D_cl = D[:, other] + DlDkMi @ Dso
    return StateSpace(A_cl, B_cl, C_cl, D_cl)


def freq_response(sys, w):
    """Transfer-matrix value ``C (jwI - A)^{-1} B + D`` at frequency ``w``.

    ``w`` is a scalar or a 1-D grid; a grid of ``k`` points gives a
    ``(k, p, m)`` stack from batched solves, equal to the per-point values
    bit for bit.  Raises ``ValueError`` when any frequency sits on a pole.
    The guard takes ``eigvals(A)`` once; a point with ``min |jw - lambda_i|
    / (1 + |lambda_i|) <= _POLE_BAND`` is refused if ``cond(jwI - A) >
    1e14``, and every other point is evaluated.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim > 1:
        raise ValueError(f"frequency grid must be 1-D, got shape {w.shape}")
    grid = np.atleast_1d(w)
    if sys.n_states:
        poles = np.linalg.eigvals(sys.A)
        dist = np.abs(1j * grid[:, None] - poles) / (1.0 + np.abs(poles))
        near = grid[np.min(dist, axis=1) <= _POLE_BAND]
        M = 1j * near[:, None, None] * np.eye(sys.n_states) - sys.A
        on_pole = np.linalg.cond(M) > 1e14
        if np.any(on_pole):
            raise ValueError(f"system has a pole at s = {1j * near[on_pole][0]:.3e}")
    H = _freq_eval(sys.A, sys.B, sys.C, sys.D, grid)
    return H if w.ndim else H[0]


def simulate(sys, u, dt, x0=None):
    """Sampled output under zero-order-hold discretization.

    ``u`` is ``(samples, inputs)``; no other shape is taken.  ``(A_d, B_d)``
    is the exact ZOH discretization, from an augmented matrix exponential.
    An impulse is represented as a first-sample pulse of height ``1/dt``;
    ``dt`` must be a finite number > 0.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != sys.n_inputs:
        raise ValueError(f"u has shape {u.shape}, expected (samples, {sys.n_inputs})")
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")
    n, m = sys.n_states, sys.n_inputs
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(x0, dtype=float).ravel()
        if x.shape != (n,):
            raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")

    if n:
        aug = np.zeros((n + m, n + m))
        aug[:n, :n] = sys.A
        aug[:n, n:] = sys.B
        E = expm(aug, dt)
        Ad, Bd = E[:n, :n], E[:n, n:]
    else:
        Ad, Bd = np.zeros((0, 0)), np.zeros((0, m))

    y = np.empty((u.shape[0], sys.n_outputs))
    for k in range(u.shape[0]):
        y[k] = sys.C @ x + sys.D @ u[k]
        x = Ad @ x + Bd @ u[k]
    return y


def _controllable_basis(A, B, floor):
    """Orthonormal basis of the controllable subspace (SVD rank decisions
    relative to ``_MINREAL_TOL``).

    ``floor`` is an absolute singular-value cutoff; without it a block that
    is numerically zero but nonvanishing (e.g. after an exact pole-zero
    cancellation) would count as full rank under the block-relative test.
    """
    n = A.shape[0]
    basis = np.zeros((n, 0))
    frontier = B
    while frontier.shape[1]:
        # Two-pass Gram-Schmidt keeps the basis orthonormal to machine
        # precision as it grows; a single pass drifts on large systems.
        resid = frontier - basis @ (basis.T @ frontier)
        resid = resid - basis @ (basis.T @ resid)
        if resid.size == 0:
            break
        U, s, _ = np.linalg.svd(resid, full_matrices=False)
        # ||frontier||_2 from its k x k Gram matrix, not a second SVD; the
        # break above leaves the frontier nonempty.
        top = np.sqrt(np.linalg.eigvalsh(frontier.T @ frontier)[-1])
        ref = max(s[0], top, 1e-300)
        keep = s > max(_MINREAL_TOL * ref, floor)
        if not np.any(keep):
            break
        new = U[:, keep]
        basis = np.hstack([basis, new])
        if basis.shape[1] >= n:
            basis = basis[:, :n]
            break
        frontier = A @ new
    return basis


def minreal(sys):
    """Minimal realization via staircase (Kalman) decomposition.

    Removes the uncontrollable subspace, then the unobservable subspace of
    the remainder, using orthogonal projections with relative rank
    tolerance ``_MINREAL_TOL``.  The frequency response is preserved.
    """
    # Absolute cutoff tied to the input/output coupling scale, so blocks
    # left numerically zero by exact cancellations are dropped.
    floor = _MINREAL_TOL * max(
        np.linalg.norm(sys.B, 2) if sys.B.size else 0.0,
        np.linalg.norm(sys.C, 2) if sys.C.size else 0.0,
    )
    # Controllable part.
    V = _controllable_basis(sys.A, sys.B, floor)
    A = V.T @ sys.A @ V
    B = V.T @ sys.B
    C = sys.C @ V
    # Observable part (dual).
    W = _controllable_basis(A.T, C.T, floor)
    A = W.T @ A @ W
    B = W.T @ B
    C = C @ W
    return StateSpace(A, B, C, sys.D)
