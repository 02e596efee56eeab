"""Retrofit controller construction and analysis for partitioned plants.

A plant is split into a subsystem of interest and an environment acting
through interconnection channels ``(v, w)``; the environment and the
designer's approximate model of it are ``w -> v`` StateSpaces.  This
module builds the preexisting interconnection, embeds the approximate
model into an extended output rectifier, and composes a verified module
controller with it into a retrofit controller: a plain ``(y, w, v) -> u``
StateSpace.
The closed loop is evaluated directly and as a cascade: the upstream block
(the module-controlled design loop, output ``z_hat``) drives the downstream
block (the preexisting dynamics under the modeling error, output
``z_check``), ``z = z_hat + z_check``, and the norms of the two parts
sandwich the achieved norm.  The kernel and invariance residuals are exact
certificates in the paper's coordinates ``e = x - x_hat``.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dtrsyl

from .lti import StateSpace, close_loop, minreal, select, series
from .numerics import _IMAG_TOL, _block, _schur, hinf_norm, spectral_abscissa

__all__ = [
    "PartitionedPlant",
    "PerformanceReport",
    "assemble_preexisting",
    "check_admissible",
    "new_subsystem",
    "extended_rectifier",
    "compose_retrofit",
    "closed_loop_direct",
    "direct_controller",
    "cascade_realization",
    "performance_bounds",
    "invariance_residual",
    "kernel_residual",
    "deflated_abscissa",
    "STABILITY_TOL",
]

# Deflated spectral abscissa must fall below this value for a "stable" verdict.
STABILITY_TOL = -1e-9
# Relative width of the bracket of each norm that performance_bounds reports.
_NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PartitionedPlant:
    """Strictly proper subsystem with inputs ``(v, d, u)`` and outputs ``(w, z, y)``.

    ``x' = A x + L v + W d + B u``, ``w = Gamma x``, ``z = S x``, ``y = C x``:
    ``L`` and ``W`` are the interconnection and disturbance input maps,
    ``Gamma``, ``S`` and ``C`` the interconnection, evaluation and
    measurement output maps.  The blocks are stored as read-only float
    arrays; inconsistent sizes are refused, naming the block.
    """

    A: np.ndarray
    B: np.ndarray
    L: np.ndarray
    W: np.ndarray
    Gamma: np.ndarray
    S: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            M = np.array(getattr(self, f.name), dtype=float, ndmin=2)
            if not np.isfinite(M).all():
                raise ValueError(f"{f.name} contains non-finite entries")
            M.flags.writeable = False
            object.__setattr__(self, f.name, M)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        for name, axis in (("B", 0), ("L", 0), ("W", 0), ("Gamma", 1), ("S", 1), ("C", 1)):
            size = getattr(self, name).shape[axis]
            if size != n:
                what = ("rows", "columns")[axis]
                raise ValueError(f"{name} has {size} {what}, expected {n}")


@dataclass(frozen=True)
class PerformanceReport:
    """Achieved norm, bound components and stability verdict for one design."""

    gamma_actual: float
    gamma_hat: float
    gamma_check: float
    stable: bool
    invariance_residual: float

    @property
    def lower(self):
        return abs(self.gamma_check - self.gamma_hat)

    @property
    def upper(self):
        return self.gamma_hat + self.gamma_check


def _preexisting_state(G, Ae, Be, Ce, De):
    """State matrix of the preexisting loop of ``G`` and the environment
    ``(Ae, Be, Ce, De)``, states ``(x, x_env)``; sizes are not checked."""
    L, Gamma = G.L, G.Gamma
    return _block([[G.A + L @ De @ Gamma, L @ Ce], [Be @ Gamma, Ae]])


def assemble_preexisting(G, env):
    """The preexisting loop: ``G`` with the environment closed, ``v = env(w)``.

    States ``(x, x_env)``, inputs ``(d, u)``, outputs ``(z, y, w, v)``: the
    network before retrofit control, which the paper requires stable, and
    the loop :func:`closed_loop_direct` closes.  Written by hand, since
    through ``close_loop`` it costs about four times as much.
    """
    B_u, L, W, Gamma, S, C = G.B, G.L, G.W, G.Gamma, G.S, G.C
    Ae, Be, Ce, De = env.A, env.B, env.C, env.D
    ne = Ae.shape[0]
    nd, nu, nv, nw = W.shape[1], B_u.shape[1], L.shape[1], Gamma.shape[0]
    if env.n_inputs != nw or env.n_outputs != nv:
        raise ValueError(
            f"environment maps {env.n_inputs} -> {env.n_outputs}, "
            f"plant expects {nw} -> {nv}"
        )

    Afull = _preexisting_state(G, Ae, Be, Ce, De)
    Bfull = _block([[W, B_u], [np.zeros((ne, nd)), np.zeros((ne, nu))]])
    Cfull = _block(
        [
            [S, np.zeros((S.shape[0], ne))],
            [C, np.zeros((C.shape[0], ne))],
            [Gamma, np.zeros((Gamma.shape[0], ne))],
            [De @ Gamma, Ce],
        ]
    )
    return StateSpace(Afull, Bfull, Cfull)


_HIDE_TOL = 1e-7


def _ordered_schur(A):
    """``scipy.linalg.schur(A, output="real", sort=...)`` with the marginal
    modes first, through ``numerics._schur``: real part >= -1e-9 (1 +
    |lambda|), every mode ``hinf_norm`` counts as on the axis or right of it.

    Returns ``(T, Z, k)``, ``k`` the number of marginal modes.
    """
    T, Z, k, _, info = _schur(
        A, lambda wr, wi: wr >= -_IMAG_TOL * (1.0 + np.hypot(wr, wi))
    )
    if info:
        raise np.linalg.LinAlgError(f"ordered real Schur form failed (dgees info {info})")
    return T, Z, k


def _deflate(sys):
    """Deflated spectral abscissa and the system without its hidden marginal modes.

    The marginal modes (``_ordered_schur``'s band, which holds every real
    part >= STABILITY_TOL) are decoupled from the strictly stable rest by
    an exact similarity: an ordered real Schur form and a Sylvester solve
    on its two diagonal blocks, which LAPACK ``trsyl`` takes as they are
    (Bartels & Stewart 1972), with no second factorization.
    A split-off mode is visible when it is both controllable and
    observable, relative to the input/output coupling scale, above
    ``_HIDE_TOL``.  Returns the largest of the remainder's abscissa and the
    visible modes' real parts, together with the remainder as a system, or
    ``sys`` itself when no mode splits off or some split-off mode is
    visible.  A remainder's state matrix is its block of the Schur form,
    upper quasi-triangular and with no pole ``hinf_norm`` refuses; its
    abscissa is the largest diagonal entry, since LAPACK standardizes a
    2 x 2 block to hold the real part on its diagonal.
    """
    n = sys.n_states
    if n == 0:
        return -np.inf, sys
    T, Z, k = _ordered_schur(sys.A)
    abscissa = float(T.diagonal()[k:].max()) if k < n else -np.inf
    if k == 0:
        return abscissa, sys
    Bt = Z.T @ sys.B
    Ct = sys.C @ Z
    if k == n:
        reduced = StateSpace(
            np.zeros((0, 0)), np.zeros((0, sys.n_inputs)),
            np.zeros((sys.n_outputs, 0)), sys.D,
        )
        A11, B1, C1 = T, Bt, Ct
    else:
        A11, A12, A22 = T[:k, :k], T[:k, k:], T[k:, k:]
        # A11 X - X A22 = -A12; trsyl returns X times its scale <= 1.
        Y, scale, info = dtrsyl(A11, A22, -A12, isgn=-1)
        if info < 0:
            raise np.linalg.LinAlgError(f"Illegal value encountered in the {-info} term")
        X = Y / scale
        B1 = Bt[:k] - X @ Bt[k:]
        C1 = Ct[:, :k]
        reduced = StateSpace(A22, Bt[k:], C1 @ X + Ct[:, k:], sys.D)

    scale_b = max(1.0, np.linalg.norm(sys.B, 2)) if sys.B.size else 1.0
    scale_c = max(1.0, np.linalg.norm(sys.C, 2)) if sys.C.size else 1.0
    evals, V = np.linalg.eig(A11)
    Wl = np.linalg.inv(V)
    visible = []
    for i in range(len(evals)):
        v = V[:, i] / np.linalg.norm(V[:, i])
        w = Wl[i, :] / np.linalg.norm(Wl[i, :])
        obs = np.linalg.norm(C1 @ v) / scale_c
        ctr = np.linalg.norm(w @ B1) / scale_b
        if obs > _HIDE_TOL and ctr > _HIDE_TOL:
            visible.append(float(evals[i].real))
    return max([abscissa] + visible), (sys if visible else reduced)


def deflated_abscissa(sys):
    """Spectral abscissa after excusing modes hidden from the i/o behavior.

    Modes with real part >= ``-1e-9 (1 + |lambda|)`` are decoupled exactly
    and excused when they are uncontrollable from the inputs or unobservable
    from the outputs (relative measure below ``1e-7``); the remaining
    visible dynamics determine the verdict.
    """
    return _deflate(sys)[0]


def check_admissible(G, env):
    """Whether the preexisting interconnection of ``G`` and ``env`` is stable.

    The verdict is taken on the ``(d, u) -> z`` map after deflating modes
    that are uncontrollable from every external input or unobservable from
    the evaluation output, which excuses rigid-body modes that the
    evaluation output cannot see.
    """
    dz = select(assemble_preexisting(G, env), np.arange(G.S.shape[0]))
    return bool(deflated_abscissa(dz) < STABILITY_TOL)


def new_subsystem(G, apx):
    """Feedback of ``G`` with the approximate environment model over ``(v, w)``.

    ``v`` is retained as an external input (the modeling-error channel) and
    all outputs remain exposed; the state is the plant state stacked over
    the model state.  With a zero model this is ``G`` itself.
    """
    na = apx.n_states
    below, right = ((0, na), (0, 0)), ((0, 0), (0, na))
    return PartitionedPlant(
        assemble_preexisting(G, apx).A,
        *(np.pad(M, below) for M in (G.B, G.L, G.W)),
        *(np.pad(M, right) for M in (G.Gamma, G.S, G.C)),
    )


def extended_rectifier(G, apx):
    """Realize the extended output rectifier embedding the environment model.

    Returns the ``(y, w, v) -> (y_hat, w_hat)`` StateSpace with internal
    dynamics ``x_hat' = A x_hat + L (v - apx(w - Gamma x_hat))`` and
    rectified outputs ``y_hat = y - C x_hat`` and ``w_hat = w - Gamma x_hat``:
    the subsystem copy ``(y, w, v, v_apx) -> (y_hat, w_hat)`` closed with
    ``v_apx = apx(w_hat)``.  Its state is the plant state stacked over the
    model state.
    """
    L, Gamma, C = G.L, G.Gamma, G.C
    ny, nw, nv = C.shape[0], Gamma.shape[0], L.shape[1]
    copy = StateSpace(
        G.A,
        np.hstack([np.zeros((L.shape[0], ny + nw)), L, -L]),
        np.vstack([-C, -Gamma]),
        np.eye(ny + nw, ny + nw + 2 * nv),
    )
    v_apx = np.arange(ny + nw + nv, ny + nw + 2 * nv)
    return close_loop(copy, apx, v_apx, np.arange(ny, ny + nw))


def _design_loop(G, apx, mod):
    """The module-controlled design plant: the cascade's upstream block.

    States ``(xi_hat, x_apx, x_mod)``, input ``d``, outputs ``(z, w)``:
    the subsystem in feedback with the approximate environment model and
    with ``u = mod(y, w)``.
    """
    nz, ny, nw = G.S.shape[0], G.C.shape[0], G.Gamma.shape[0]
    nd, nu = G.W.shape[1], G.B.shape[1]
    if mod.n_inputs != ny + nw or mod.n_outputs != nu:
        raise ValueError(
            f"module maps {mod.n_inputs} -> {mod.n_outputs}, design plant "
            f"needs (y, w) -> u = {ny + nw} -> {nu}"
        )
    closed = close_loop(
        assemble_preexisting(G, apx), mod,
        np.arange(nd, nd + nu), np.arange(nz, nz + ny + nw),
    )
    return select(closed, np.r_[:nz, nz + ny:nz + ny + nw])


def compose_retrofit(G, apx, module):
    """Compose a verified module controller with the extended rectifier.

    The ``(y, w) -> u`` module is verified against the rectified design
    plant (internal stability of the loop with the embedded environment
    model ``apx``); composition is refused otherwise.  Returns the retrofit
    controller, the module in series with ``extended_rectifier(G, apx)``, as
    a ``(y, w, v) -> u`` :class:`StateSpace`.
    """
    abscissa = spectral_abscissa(_design_loop(G, apx, module).A)
    if not abscissa < 0.0:
        raise ValueError(
            f"module controller does not stabilize the design plant "
            f"(abscissa {abscissa:.3e})"
        )
    return series(extended_rectifier(G, apx), module)


def closed_loop_direct(G, pre, K):
    """Close ``K`` around the preexisting loop ``pre``; returns ``T_zd``.

    ``pre`` is :func:`assemble_preexisting`'s loop of ``G`` and the true
    environment, and ``K`` any state-space controller mapping
    ``(y, w, v) -> u``, such as the result of :func:`compose_retrofit` or
    :func:`direct_controller`; either of the wrong size is refused.  The
    returned system keeps the full closed-loop state, hidden modes
    included: take a stability verdict with :func:`deflated_abscissa`; a
    norm needs the hidden marginal modes removed first, as
    :func:`performance_bounds` does with that verdict's split.  The state is
    ``(x, x_env)`` then ``K``'s, ``(x_hat, x_apx, x_mod)`` for a retrofit ``K``.
    """
    nz, nd, nu = G.S.shape[0], G.W.shape[1], G.B.shape[1]
    n_meas = G.C.shape[0] + G.Gamma.shape[0] + G.L.shape[1]  # (y, w, v) rows
    if pre.n_inputs != nd + nu or pre.n_outputs != nz + n_meas:
        raise ValueError(
            f"preexisting loop maps {pre.n_inputs} -> {pre.n_outputs}, expected "
            f"(d, u) -> (z, y, w, v) = {nd + nu} -> {nz + n_meas}"
        )
    if K.n_inputs != n_meas or K.n_outputs != nu:
        raise ValueError(
            f"controller maps {K.n_inputs} -> {K.n_outputs}, expected "
            f"{n_meas} -> {nu}"
        )
    closed = close_loop(
        pre,
        K,
        in_idx=np.arange(nd, nd + nu),
        out_idx=np.arange(nz, nz + n_meas),
    )
    return select(closed, np.arange(nz))


def direct_controller(G, module):
    """Naive implementation ``u = module(y, w)`` without any rectifier.

    Returns a ``(y, w, v) -> u`` controller that ignores ``v``; used as the
    destabilization baseline against the retrofit composition.
    """
    ny, nw, nv = G.C.shape[0], G.Gamma.shape[0], G.L.shape[1]
    sel = np.hstack([np.eye(ny + nw), np.zeros((ny + nw, nv))])
    return series(StateSpace.from_gain(sel), module)


def cascade_realization(G, env, apx, module):
    """Equivalent cascade form of the closed loop under the retrofit controller.

    Returns the ``d -> (z, z_hat, z_check)`` StateSpace, ``nz`` rows per
    block.  The upstream block is the module-controlled design plant driven
    by ``d``, with output ``z_hat``.  The downstream block carries the
    preexisting dynamics (plant and true environment), driven from the
    upstream state through the modeling-error coupling, with output
    ``z_check``; ``z = z_hat + z_check``.  The state is the upstream states
    ``(xi_hat, x_apx, x_mod)`` followed by the downstream states
    ``(xi_check, x_env)``, with ``xi_hat = x - x_hat`` and ``xi_check = x_hat``
    in the direct loop's state, as the cascade check relies on.  The module is
    not checked here: :func:`compose_retrofit` refuses one that does not
    stabilize the design plant.
    """
    upstream = _design_loop(G, apx, module)
    pre = assemble_preexisting(G, env)
    L, Gamma = G.L, G.Gamma
    Ca, Da, na = apx.C, apx.D, apx.n_states
    Be, De, ne = env.B, env.D, env.n_states
    n, nm = G.A.shape[0], module.n_states
    nz, nd = G.S.shape[0], G.W.shape[1]
    n_up, n_dn = n + na + nm, n + ne

    # The downstream block is driven by (xi_hat, x_apx); x_mod does not enter.
    B_dn = _block(
        [
            [L @ (De - Da) @ Gamma, -L @ Ca, np.zeros((n, nm))],
            [Be @ Gamma, np.zeros((ne, na + nm))],
        ]
    )
    A_all = _block([[upstream.A, np.zeros((n_up, n_dn))], [B_dn, pre.A]])
    B_all = np.vstack([upstream.B, np.zeros((n_dn, nd))])
    Sz_up, Sz_dn = upstream.C[:nz, :], pre.C[:nz, :]
    C_all = _block(
        [
            [Sz_up, Sz_dn],
            [Sz_up, np.zeros((nz, n_dn))],
            [np.zeros((nz, n_up)), Sz_dn],
        ]
    )
    return StateSpace(A_all, B_all, C_all)


def _measured(G):
    """``G`` with inputs ``(v, u)`` and outputs ``(y, w, v)``.

    ``v`` is measured through a feedthrough copy.
    """
    B = np.hstack([G.L, G.B])
    n, n_in = B.shape
    n_yw, nv = G.C.shape[0] + G.Gamma.shape[0], G.L.shape[1]
    C = np.vstack([G.C, G.Gamma, np.zeros((nv, n))])
    return StateSpace(G.A, B, C, np.vstack([np.zeros((n_yw, n_in)), np.eye(nv, n_in)]))


def _error_coordinates(n_states, n):
    """Rows to ``(e, rest)``, ``e = x - x_hat``, rows of ``x_hat``, columns along it."""
    x, x_hat, rest = np.split(np.eye(n_states), [n, 2 * n])
    return np.vstack([x - x_hat, rest]), x_hat, (x + x_hat).T


def invariance_residual(G, K):
    """Exact certificate that ``K`` leaves the ``v -> w`` map ``Gamma (sI - A)^-1 L``.

    In ``G``'s ``v -> w`` map closed with ``K`` over ``u``, state
    ``(x, x_hat, x_apx, x_mod)``, ``e = x - x_hat``: the largest entry of the
    ``(e, x_apx, x_mod)`` rows of B, of their coupling from ``x_hat``, of the
    ``x_hat`` block minus ``(A, L)``, of the output along ``x_hat`` minus
    ``Gamma`` and of D, each over the largest entry of the plant block it is
    compared with (``A``, ``L``, ``Gamma``, and ``max|Gamma| max|L|`` for D);
    0 for a retrofit ``K``.
    """
    n, nv, nu = G.A.shape[0], G.L.shape[1], G.B.shape[1]
    if K.n_states < n:
        raise ValueError(f"controller has {K.n_states} states, fewer than the plant's {n}")
    meas, ny, nw = _measured(G), G.C.shape[0], G.Gamma.shape[0]
    closed = close_loop(meas, K, np.arange(nv, nv + nu), np.arange(meas.n_outputs))
    loop = select(closed, np.arange(ny, ny + nw), np.arange(nv))
    up, x_hat, along = _error_coordinates(loop.n_states, n)
    pairs = ((up @ loop.B, G.L), (up @ loop.A @ along, G.A),
             (x_hat @ loop.A @ along - G.A, G.A), (x_hat @ loop.B - G.L, G.L),
             (loop.C @ along - G.Gamma, G.Gamma),
             (loop.D, _largest(G.Gamma) * _largest(G.L)))
    return _entry_ratio(pairs, (loop.A, loop.B, loop.C, loop.D))


def kernel_residual(G, rect):
    """Exact certificate of the kernel identity; 0 for a correct rectifier.

    In ``G``'s ``v -> (y, w, v)`` map in series with ``rect``, state
    ``(x, x_hat, x_apx)``, ``e = x - x_hat``: the largest entry of the
    ``(e, x_apx)`` rows of B, of ``C [I; I; 0]`` (output along ``x_hat``), of
    the ``x_hat`` to ``(e, x_apx)`` coupling and of D, each over the largest
    entry of the plant block it is compared with (``L``, ``[C; Gamma]``,
    ``A``, and ``max|[C; Gamma]| max|L|`` for D).
    """
    loop = series(select(_measured(G), cols=np.arange(G.L.shape[1])), rect)
    up, _, along = _error_coordinates(loop.n_states, G.A.shape[0])
    outputs = np.vstack([G.C, G.Gamma])
    pairs = ((up @ loop.B, G.L), (loop.C @ along, outputs), (up @ loop.A @ along, G.A),
             (loop.D, _largest(outputs) * _largest(G.L)))
    return _entry_ratio(pairs, (loop.A, loop.B, loop.C, loop.D))


def _largest(M):
    """Largest absolute entry of ``M``; 0 when it has none."""
    return np.abs(M).max(initial=0.0)


def _entry_ratio(pairs, mats):
    """Largest ratio of a gap's largest entry to its reference's.

    ``pairs`` holds ``(gap, reference)`` pairs; a reference that is
    identically zero is replaced by the largest entry of ``mats``, the
    realization the gaps come from.
    """
    fallback = max(_largest(M) for M in mats)
    return float(max(
        _largest(gap) / max(_largest(ref) or fallback, 1e-300) for gap, ref in pairs
    ))


def performance_bounds(G, env, apx, module):
    """Achieved norm and its cascade bound components for one design.

    Returns a report with the achieved ``||T_zd||``, the assumed level
    (upstream ``d -> z_hat`` norm), the gap term (cascade ``d -> z_check``
    norm) and the stability verdict; when the deflated closed loop is not
    stable the norms are reported as ``nan``.  Each norm is the midpoint
    of a bracket of relative width ``1e-8`` whose lower end is an attained
    gain.  The cascade is deflated once, for all its rows: a marginal mode
    is excused only when it is hidden from ``z``, ``z_hat`` and ``z_check``
    alike.  The achieved norm and the gap term are the norms of its ``z``
    and ``z_check`` rows as deflated, the assumed level that of a minimal
    realization of the design loop.  The controller is
    :func:`compose_retrofit`'s, so a module that it refuses is refused here
    with the same ``ValueError``.
    """
    residual = invariance_residual(G, compose_retrofit(G, apx, module))
    abscissa, casc = _deflate(cascade_realization(G, env, apx, module))
    if not abscissa < STABILITY_TOL:
        return PerformanceReport(np.nan, np.nan, np.nan, False, residual)

    nz = G.S.shape[0]
    tz = select(casc, np.arange(nz))
    up_hat = select(_design_loop(G, apx, module), np.arange(nz))
    down_check = select(casc, np.arange(2 * nz, 3 * nz))
    return PerformanceReport(
        hinf_norm(tz, tol=_NORM_TOL),
        hinf_norm(minreal(up_hat), tol=_NORM_TOL),
        hinf_norm(down_check, tol=_NORM_TOL),
        True,
        residual,
    )
