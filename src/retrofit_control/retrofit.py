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
sandwich the achieved norm.
"""

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .lti import StateSpace, close_loop, freq_response, minreal, select, series
from .numerics import hinf_norm, spectral_abscissa

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
    "deflate_hidden",
    "STABILITY_TOL",
]

# Deflated spectral abscissa must fall below this value for a "stable" verdict.
STABILITY_TOL = -1e-9


# The invariance residual's log-spaced grid, covering the benchmark dynamics.
_GRID = np.logspace(-3.0, 3.0, 200)
_GRID.flags.writeable = False


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
            if M.size and not np.all(np.isfinite(M)):
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


def _plant_with_env(G, env):
    """States ``(x, x_env)``, inputs ``(d, u)``, outputs ``(z, y, w, v)``.

    The one loop closed by hand: built through ``close_loop`` it costs
    about three times as much, and it is built for every sampled
    environment.
    """
    A, B_u, L, W, Gamma, S, C = G.A, G.B, G.L, G.W, G.Gamma, G.S, G.C
    Ae, Be, Ce, De = env.A, env.B, env.C, env.D
    n, ne = A.shape[0], Ae.shape[0]
    nd, nu, nv, nw = W.shape[1], B_u.shape[1], L.shape[1], Gamma.shape[0]
    if env.n_inputs != nw or env.n_outputs != nv:
        raise ValueError(
            f"environment maps {env.n_inputs} -> {env.n_outputs}, "
            f"plant expects {nw} -> {nv}"
        )

    Afull = np.block(
        [[A + L @ De @ Gamma, L @ Ce], [Be @ Gamma, Ae]]
    ) if n + ne else np.zeros((0, 0))
    Bfull = np.block([[W, B_u], [np.zeros((ne, nd)), np.zeros((ne, nu))]])
    Cfull = np.block(
        [
            [S, np.zeros((S.shape[0], ne))],
            [C, np.zeros((C.shape[0], ne))],
            [Gamma, np.zeros((Gamma.shape[0], ne))],
            [De @ Gamma, Ce],
        ]
    )
    return StateSpace(Afull, Bfull, Cfull)


def assemble_preexisting(G, env):
    """Close the environment loop ``v = env(w)``; inputs ``(d, u)``, outputs ``(z, y)``."""
    full = _plant_with_env(G, env)
    return select(full, np.arange(G.S.shape[0] + G.C.shape[0]))


_HIDE_TOL = 1e-7


def _split_marginal(sys):
    """Decouple the modes with real part >= STABILITY_TOL from the stable rest.

    Returns the spectral abscissa of the strictly stable remainder, that
    remainder as a system, and the real parts of the split-off modes that
    are both controllable and observable, relative to the input/output
    coupling scale, above ``_HIDE_TOL``.  An ordered real Schur form and a
    Sylvester solve make the split an exact similarity; the abscissa is the
    largest diagonal entry of the remainder's block of that form, since
    LAPACK standardizes a 2 x 2 block to hold the real part on its
    diagonal.  With no such mode the remainder is ``sys`` itself.
    """
    n = sys.n_states
    if n == 0:
        return -np.inf, sys, []
    T, Z, k = scipy.linalg.schur(
        sys.A, output="real", sort=lambda re, im: re >= STABILITY_TOL
    )
    abscissa = float(np.max(np.diag(T)[k:])) if k < n else -np.inf
    if k == 0:
        return abscissa, sys, []
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
        X = scipy.linalg.solve_sylvester(A11, -A22, -A12)
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
    return abscissa, reduced, visible


def _deflate(sys):
    """Deflated abscissa and hidden-mode-free system from one marginal split."""
    abscissa, reduced, visible = _split_marginal(sys)
    return max([abscissa] + visible), (sys if visible else reduced)


def deflated_abscissa(sys):
    """Spectral abscissa after excusing modes hidden from the i/o behavior.

    Modes with real part >= ``-1e-9`` are decoupled exactly and excused
    when they are uncontrollable from the inputs or unobservable from the
    outputs (relative measure below ``1e-7``); the remaining visible
    dynamics determine the verdict.
    """
    return _deflate(sys)[0]


def deflate_hidden(sys):
    """Remove the marginal/unstable block when all its modes are hidden.

    Returns the input unchanged when some such mode genuinely appears in
    the i/o behavior (the system is then not norm-bounded anyway).
    """
    return _deflate(sys)[1]


def check_admissible(G, env):
    """Whether the preexisting interconnection of ``G`` and ``env`` is stable.

    The verdict is taken on the ``(d, u) -> z`` map after deflating modes
    that are uncontrollable from every external input or unobservable from
    the evaluation output, which excuses rigid-body modes that the
    evaluation output cannot see.
    """
    full = _plant_with_env(G, env)
    dz = select(full, np.arange(G.S.shape[0]))
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
        _plant_with_env(G, apx).A,
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
        _plant_with_env(G, apx), mod,
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


def closed_loop_direct(G, env, K):
    """Interconnect plant, environment and controller; returns ``T_zd``.

    ``K`` is any state-space controller mapping ``(y, w, v) -> u``, such
    as the result of :func:`compose_retrofit` or :func:`direct_controller`.
    The returned system keeps the full closed-loop state, hidden modes
    included: take a stability verdict with :func:`deflated_abscissa`, and
    deflate with :func:`lti.minreal` before a norm query.  The state is
    ``(x, x_env)`` then ``K``'s, ``(x_hat, x_apx, x_mod)`` for a retrofit ``K``.
    """
    plantE = _plant_with_env(G, env)
    nz, nd, nu = G.S.shape[0], G.W.shape[1], G.B.shape[1]
    n_meas = plantE.n_outputs - nz  # (y, w, v) rows
    if K.n_inputs != n_meas or K.n_outputs != nu:
        raise ValueError(
            f"controller maps {K.n_inputs} -> {K.n_outputs}, expected "
            f"{n_meas} -> {nu}"
        )
    closed = close_loop(
        plantE,
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
    plantE = _plant_with_env(G, env)
    L, Gamma = G.L, G.Gamma
    Ca, Da, na = apx.C, apx.D, apx.n_states
    Be, De, ne = env.B, env.D, env.n_states
    n, nm = G.A.shape[0], module.n_states
    nz, nd = G.S.shape[0], G.W.shape[1]
    n_up, n_dn = n + na + nm, n + ne

    # The downstream block is driven by (xi_hat, x_apx); x_mod does not enter.
    B_dn = np.block(
        [
            [L @ (De - Da) @ Gamma, -L @ Ca, np.zeros((n, nm))],
            [Be @ Gamma, np.zeros((ne, na + nm))],
        ]
    )
    A_all = np.block(
        [[upstream.A, np.zeros((n_up, n_dn))], [B_dn, plantE.A]]
    ) if n_up + n_dn else np.zeros((0, 0))
    B_all = np.vstack([upstream.B, np.zeros((n_dn, nd))])
    Sz_up, Sz_dn = upstream.C[:nz, :], plantE.C[:nz, :]
    C_all = np.block(
        [
            [Sz_up, Sz_dn],
            [Sz_up, np.zeros((nz, n_dn))],
            [np.zeros((nz, n_up)), Sz_dn],
        ]
    )
    return StateSpace(A_all, B_all, C_all)


def _measured(G):
    """``G`` with inputs ``(v, d, u)`` and outputs ``(y, w, v)``.

    ``v`` is measured through a feedthrough copy.
    """
    B = np.hstack([G.L, G.W, G.B])
    n, n_in = B.shape
    n_yw, nv = G.C.shape[0] + G.Gamma.shape[0], G.L.shape[1]
    return StateSpace(
        G.A,
        B,
        np.vstack([G.C, G.Gamma, np.zeros((nv, n))]),
        np.vstack([np.zeros((n_yw, n_in)), np.eye(nv, n_in)]),
    )


def invariance_residual(G, K):
    """Deviation of the controller-closed ``v -> w`` map from the open one.

    With the environment removed, a retrofit controller leaves the
    interconnection transfer matrix untouched; the residual is the maximum
    spectral-norm deviation over the frequency grid, normalized at each
    frequency by the open map's gain so strongly coupled networks are not
    penalized for sheer scale.
    """
    meas = _measured(G)
    nv, nd, nu = G.L.shape[1], G.W.shape[1], G.B.shape[1]
    ny, nw = G.C.shape[0], G.Gamma.shape[0]
    closed = close_loop(
        meas, K, np.arange(nv + nd, nv + nd + nu), np.arange(meas.n_outputs)
    )
    gwv_closed = select(closed, np.arange(ny, ny + nw), np.arange(nv))
    gwv_open = StateSpace(G.A, G.L, G.Gamma)

    ref = freq_response(gwv_open, _GRID)
    delta = freq_response(gwv_closed, _GRID) - ref
    if not delta.size:
        return 0.0
    scale = np.maximum(1.0, np.linalg.svd(ref, compute_uv=False)[:, 0])
    return float(np.max(np.linalg.svd(delta, compute_uv=False)[:, 0] / scale))


def kernel_residual(G, rect):
    """Exact certificate of the kernel identity; 0 for a correct rectifier.

    In ``G``'s ``v -> (y, w, v)`` map in series with ``rect``, state
    ``(x, x_hat, x_apx)``, ``e = x - x_hat``: the largest entry of the
    ``(e, x_apx)`` rows of B, of ``C [I; I; 0]`` (output along ``x_hat``), of
    the ``x_hat`` to ``(e, x_apx)`` coupling and of D, over the series' largest.
    """
    loop = series(select(_measured(G), cols=np.arange(G.L.shape[1])), rect)
    x, x_hat, x_apx = np.split(np.eye(loop.n_states), [G.A.shape[0], 2 * G.A.shape[0]])
    up, along = np.vstack([x - x_hat, x_apx]), (x + x_hat).T
    gaps = (up @ loop.B, loop.C @ along, up @ loop.A @ along, loop.D)
    return _entry_ratio(gaps, (loop.A, loop.B, loop.C, loop.D))


def _entry_ratio(gaps, mats):
    """Largest absolute entry of ``gaps`` over the largest of ``mats``."""
    big = [max(np.abs(M).max(initial=0.0) for M in Ms) for Ms in (gaps, mats)]
    return float(big[0] / max(big[1], 1e-300))


def performance_bounds(G, env, apx, module, norm_tol=1e-8):
    """Achieved norm and its cascade bound components for one design.

    Returns a report with the achieved ``||T_zd||``, the assumed level
    (upstream ``d -> z_hat`` norm), the gap term (cascade ``d -> z_check``
    norm) and the stability verdict; when the deflated closed loop is not
    stable the norms are reported as ``nan``.  Each norm is the midpoint
    of a bracket of relative width ``norm_tol`` whose lower end is an
    attained gain.  The controller is :func:`compose_retrofit`'s, so a
    module that it refuses is refused here with the same ``ValueError``.
    """
    residual = invariance_residual(G, compose_retrofit(G, apx, module))
    casc = cascade_realization(G, env, apx, module)

    nz = G.S.shape[0]
    abscissa, tz = _deflate(select(casc, np.arange(nz)))
    if not abscissa < STABILITY_TOL:
        return PerformanceReport(np.nan, np.nan, np.nan, False, residual)

    up_hat = select(_design_loop(G, apx, module), np.arange(nz))
    down_check = deflate_hidden(select(casc, np.arange(2 * nz, 3 * nz)))
    return PerformanceReport(
        hinf_norm(minreal(tz), tol=norm_tol),
        hinf_norm(minreal(up_hat), tol=norm_tol),
        hinf_norm(minreal(down_check), tol=norm_tol),
        True,
        residual,
    )
