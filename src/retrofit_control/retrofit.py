"""Retrofit controller construction and analysis for partitioned plants.

A plant is split into a subsystem of interest and an environment acting
through interconnection channels ``(v, w)``.  This module builds the
preexisting interconnection, embeds an approximate environment model into
an extended output rectifier, composes verified module controllers into
retrofit controllers, and evaluates the resulting closed loop both
directly and through its upstream/downstream cascade realization,
including the performance bounds that sandwich the achieved norm.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lti import (
    ChannelMap,
    StateSpace,
    close_loop,
    freq_response,
    minreal,
    select_channels,
    series,
)
from .numerics import hinf_norm, spectral_abscissa

__all__ = [
    "PartitionedPlant",
    "EnvironmentModel",
    "Rectifier",
    "RetrofitController",
    "PerformanceReport",
    "CascadeRealization",
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
    "default_frequency_grid",
    "deflated_abscissa",
    "deflate_hidden",
    "STABILITY_TOL",
]

# Deflated spectral abscissa must fall below this value for a "stable" verdict.
STABILITY_TOL = -1e-9


def default_frequency_grid(count=200):
    """Log-spaced frequency grid covering the benchmark dynamics."""
    return np.logspace(-3.0, 3.0, count)


class PartitionedPlant:
    """Strictly proper subsystem with inputs ``(v, d, u)`` and outputs ``(w, z, y)``.

    The state-space blocks carry their usual roles: ``L`` and ``W`` are the
    interconnection and disturbance input maps, ``Gamma``, ``S`` and ``C``
    the interconnection, evaluation and measurement output maps.
    """

    __slots__ = ("sys", "cmap")

    def __init__(self, sys, cmap):
        for g in ("v", "d", "u"):
            if g not in cmap.inputs:
                raise ValueError(f"missing input group {g!r}")
        for g in ("w", "z", "y"):
            if g not in cmap.outputs:
                raise ValueError(f"missing output group {g!r}")
        cmap.validate_cover(sys)
        if np.any(sys.D != 0.0):
            raise ValueError("partitioned plants must be strictly proper (D = 0)")
        object.__setattr__(self, "sys", sys)
        object.__setattr__(self, "cmap", cmap)

    def __setattr__(self, name, value):
        raise AttributeError("PartitionedPlant is immutable")

    @classmethod
    def from_blocks(cls, A, B, L, W, Gamma, S, C):
        """Assemble from the individual state-space blocks."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        blocks_in = [np.atleast_2d(np.asarray(M, dtype=float)) for M in (L, W, B)]
        blocks_out = [np.atleast_2d(np.asarray(M, dtype=float)) for M in (Gamma, S, C)]
        Bfull = np.hstack(blocks_in)
        Cfull = np.vstack(blocks_out)
        widths = [M.shape[1] for M in blocks_in]
        heights = [M.shape[0] for M in blocks_out]
        edges_in = np.cumsum([0] + widths)
        edges_out = np.cumsum([0] + heights)
        cmap = ChannelMap(
            inputs={
                "v": np.arange(edges_in[0], edges_in[1]),
                "d": np.arange(edges_in[1], edges_in[2]),
                "u": np.arange(edges_in[2], edges_in[3]),
            },
            outputs={
                "w": np.arange(edges_out[0], edges_out[1]),
                "z": np.arange(edges_out[1], edges_out[2]),
                "y": np.arange(edges_out[2], edges_out[3]),
            },
        )
        return cls(StateSpace(A, Bfull, Cfull), cmap)

    # Named blocks.
    @property
    def A(self):
        return self.sys.A

    @property
    def B(self):
        return self.sys.B[:, self.cmap.inputs["u"]]

    @property
    def L(self):
        return self.sys.B[:, self.cmap.inputs["v"]]

    @property
    def W(self):
        return self.sys.B[:, self.cmap.inputs["d"]]

    @property
    def Gamma(self):
        return self.sys.C[self.cmap.outputs["w"], :]

    @property
    def S(self):
        return self.sys.C[self.cmap.outputs["z"], :]

    @property
    def C(self):
        return self.sys.C[self.cmap.outputs["y"], :]

    def dims(self):
        c = self.cmap
        return {
            "x": self.sys.n_states,
            **{k: len(v) for k, v in c.inputs.items()},
            **{k: len(v) for k, v in c.outputs.items()},
        }


@dataclass(frozen=True)
class EnvironmentModel:
    """State-space model mapping the interconnection output ``w`` to ``v``."""

    sys: StateSpace

    @classmethod
    def from_gain(cls, D):
        return cls(StateSpace.from_gain(D))

    @classmethod
    def zero(cls, n_v, n_w):
        return cls(StateSpace.zero(n_v, n_w))

    def check_dims(self, plant):
        nv = len(plant.cmap.inputs["v"])
        nw = len(plant.cmap.outputs["w"])
        if self.sys.n_inputs != nw or self.sys.n_outputs != nv:
            raise ValueError(
                f"environment maps {self.sys.n_inputs} -> {self.sys.n_outputs}, "
                f"plant expects {nw} -> {nv}"
            )


@dataclass(frozen=True)
class Rectifier:
    """Extended output rectifier ``(y, w, v) -> (y_hat, w_hat)``.

    The internal model state mirrors the plant state plus the approximate
    environment state; with a zero model the rectified outputs reduce to
    ``y - G_yv v`` and ``w - G_wv v``.
    """

    sys: StateSpace
    plant: PartitionedPlant
    apx: EnvironmentModel


@dataclass(frozen=True)
class RetrofitController:
    """A module controller composed with its rectifier; maps ``(y, w, v) -> u``."""

    rectifier: Rectifier
    module: object
    realized: StateSpace


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


@dataclass(frozen=True)
class CascadeRealization:
    """Upstream/downstream cascade equivalent of the closed loop.

    ``upstream`` maps ``d`` to ``(z_hat, w_hat)`` and carries the module
    controller; ``downstream`` maps the upstream state to ``z_check``;
    ``tapped`` stacks outputs ``(z, z_hat, z_check, w_hat)`` and ``T_zd``
    is the plain ``d -> z`` closed loop.
    """

    upstream: StateSpace
    downstream: StateSpace
    tapped: StateSpace
    T_zd: StateSpace
    n_z: int
    n_w: int

    def taps(self):
        nz, nw = self.n_z, self.n_w
        return {
            "z": np.arange(0, nz),
            "z_hat": np.arange(nz, 2 * nz),
            "z_check": np.arange(2 * nz, 3 * nz),
            "w_hat": np.arange(3 * nz, 3 * nz + nw),
        }


def _env_blocks(env):
    s = env.sys
    return s.A, s.B, s.C, s.D


def _plant_with_env(G, env):
    """States ``(x, x_env)``, inputs ``(d, u)``, outputs ``(z, y, w, v)``."""
    env.check_dims(G)
    A, B_u, L, W, Gamma, S, C = G.A, G.B, G.L, G.W, G.Gamma, G.S, G.C
    Ae, Be, Ce, De = _env_blocks(env)
    n, ne = A.shape[0], Ae.shape[0]
    nd, nu = W.shape[1], B_u.shape[1]

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
    nzy = len(G.cmap.outputs["z"]) + len(G.cmap.outputs["y"])
    return StateSpace(full.A, full.B, full.C[:nzy, :], full.D[:nzy, :])


_AXIS_TOL = 1e-9
_HIDE_TOL = 1e-7


def _split_marginal(sys, axis_tol, hide_tol):
    """Decouple the modes with real part >= -axis_tol from the stable rest.

    Returns ``None`` when no such mode exists, otherwise the strictly
    stable remainder system (an ordered Schur form and a Sylvester solve
    make the split an exact similarity) and the real parts of the
    split-off modes that are both controllable and observable, relative
    to the input/output coupling scale, above ``hide_tol``.
    """
    n = sys.n_states
    if n == 0:
        return None
    T, Z, k = scipy.linalg.schur(
        sys.A, output="real", sort=lambda re, im: re >= -axis_tol
    )
    if k == 0:
        return None
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
        if obs > hide_tol and ctr > hide_tol:
            visible.append(float(evals[i].real))
    return reduced, visible


def deflated_abscissa(sys, axis_tol=_AXIS_TOL, hide_tol=_HIDE_TOL):
    """Spectral abscissa after excusing modes hidden from the i/o behavior.

    Modes with real part >= ``-axis_tol`` are decoupled exactly and
    excused when they are uncontrollable from the inputs or unobservable
    from the outputs (relative measure below ``hide_tol``); the remaining
    visible dynamics determine the verdict.
    """
    split = _split_marginal(sys, axis_tol, hide_tol)
    if split is None:
        return spectral_abscissa(sys.A)
    reduced, visible = split
    return max([spectral_abscissa(reduced.A)] + visible)


def deflate_hidden(sys, axis_tol=_AXIS_TOL, hide_tol=_HIDE_TOL):
    """Remove the marginal/unstable block when all its modes are hidden.

    Returns the input unchanged when some such mode genuinely appears in
    the i/o behavior (the system is then not norm-bounded anyway).
    """
    split = _split_marginal(sys, axis_tol, hide_tol)
    if split is None or split[1]:
        return sys
    return split[0]


def check_admissible(G, env, tol=STABILITY_TOL):
    """Whether the preexisting interconnection of ``G`` and ``env`` is stable.

    The verdict is taken on the ``(d, u) -> z`` map after deflating modes
    that are uncontrollable from every external input or unobservable from
    the evaluation output, which excuses rigid-body modes that the
    evaluation output cannot see.
    """
    full = _plant_with_env(G, env)
    nz = len(G.cmap.outputs["z"])
    dz = StateSpace(full.A, full.B, full.C[:nz, :], full.D[:nz, :])
    return bool(deflated_abscissa(dz) < tol)


def new_subsystem(G, apx):
    """Feedback of ``G`` with the approximate environment model over ``(v, w)``.

    ``v`` is retained as an external input (the modeling-error channel) and
    all outputs remain exposed; the state is the plant state stacked over
    the model state.  With a zero model this is ``G`` itself.
    """
    apx.check_dims(G)
    closed = close_loop(
        G.sys,
        apx.sys,
        G.cmap.inputs["v"],
        G.cmap.outputs["w"],
        keep_external=True,
    )
    return PartitionedPlant(closed, G.cmap)


def extended_rectifier(G, apx):
    """Realize the extended output rectifier embedding the environment model.

    Internal dynamics ``x_hat' = A x_hat + L (v - apx(w - Gamma x_hat))``
    with rectified outputs ``y_hat = y - C x_hat`` and
    ``w_hat = w - Gamma x_hat``.
    """
    apx.check_dims(G)
    A, B_u, L, Gamma, S, C = G.A, G.B, G.L, G.Gamma, G.S, G.C
    Aa, Ba, Ca, Da = _env_blocks(apx)
    n, na = A.shape[0], Aa.shape[0]
    ny, nw, nv = C.shape[0], Gamma.shape[0], L.shape[1]

    Ar = np.block(
        [[A + L @ Da @ Gamma, -L @ Ca], [-Ba @ Gamma, Aa]]
    ) if n + na else np.zeros((0, 0))
    Br = np.block(
        [
            [np.zeros((n, ny)), -L @ Da, L],
            [np.zeros((na, ny)), Ba, np.zeros((na, nv))],
        ]
    )
    Cr = np.block([[-C, np.zeros((ny, na))], [-Gamma, np.zeros((nw, na))]])
    Dr = np.block(
        [
            [np.eye(ny), np.zeros((ny, nw)), np.zeros((ny, nv))],
            [np.zeros((nw, ny)), np.eye(nw), np.zeros((nw, nv))],
        ]
    )
    return Rectifier(StateSpace(Ar, Br, Cr, Dr), G, apx)


def _require_stabilizing(G, apx, module):
    """Refuse a module that does not stabilize the rectified design plant."""
    gplus = new_subsystem(G, apx)
    design = select_channels(gplus.sys, gplus.cmap, ("u",), ("y", "w"))
    closed = close_loop(
        design,
        module.sys,
        np.arange(design.n_inputs),
        np.arange(design.n_outputs),
        keep_external=False,
    )
    abscissa = spectral_abscissa(closed.A)
    if not abscissa < 0.0:
        raise ValueError(
            f"module controller does not stabilize the design plant "
            f"(abscissa {abscissa:.3e})"
        )


def compose_retrofit(module, rect):
    """Compose a verified module controller with its rectifier.

    The module is verified against the rectified design plant (internal
    stability of the loop with the embedded environment model); composition
    is refused otherwise.  The realized controller maps ``(y, w, v) -> u``.
    """
    _require_stabilizing(rect.plant, rect.apx, module)
    realized = series(rect.sys, module.sys)
    return RetrofitController(rect, module, realized)


def closed_loop_direct(G, env, K):
    """Interconnect plant, environment and controller; returns ``T_zd``.

    ``K`` is a :class:`RetrofitController` or any state-space controller
    mapping ``(y, w, v) -> u``.  The returned system keeps the full closed
    loop state; deflate with :func:`lti.minreal` before stability or norm
    queries.
    """
    K_ss = K.realized if isinstance(K, RetrofitController) else K
    plantE = _plant_with_env(G, env)
    nz = len(G.cmap.outputs["z"])
    nd = len(G.cmap.inputs["d"])
    nu = len(G.cmap.inputs["u"])
    n_meas = plantE.n_outputs - nz  # (y, w, v) rows
    if K_ss.n_inputs != n_meas or K_ss.n_outputs != nu:
        raise ValueError(
            f"controller maps {K_ss.n_inputs} -> {K_ss.n_outputs}, expected "
            f"{n_meas} -> {nu}"
        )
    closed = close_loop(
        plantE,
        K_ss,
        in_idx=np.arange(nd, nd + nu),
        out_idx=np.arange(nz, nz + n_meas),
        keep_external=False,
    )
    return StateSpace(closed.A, closed.B, closed.C[:nz, :], closed.D[:nz, :])


def direct_controller(G, module):
    """Naive implementation ``u = module(y, w)`` without any rectifier.

    Returns a ``(y, w, v) -> u`` controller that ignores ``v``; used as the
    destabilization baseline against the retrofit composition.
    """
    ny = len(G.cmap.outputs["y"])
    nw = len(G.cmap.outputs["w"])
    nv = len(G.cmap.inputs["v"])
    sel = np.hstack([np.eye(ny + nw), np.zeros((ny + nw, nv))])
    return series(StateSpace.from_gain(sel), module.sys)


def cascade_realization(G, env, apx, module, check=True):
    """Equivalent cascade (upstream, downstream) form of the closed loop.

    The upstream block carries the module-controlled design plant driven by
    ``d``; the downstream block carries the preexisting dynamics driven by
    the modeling-error coupling from the upstream state.  The evaluation
    output decomposes as ``z = z_hat + z_check``.
    """
    apx.check_dims(G)
    plantE = _plant_with_env(G, env)
    mod = module.sys
    if check:
        _require_stabilizing(G, apx, module)

    A, B_u, L, W, Gamma, S, C = G.A, G.B, G.L, G.W, G.Gamma, G.S, G.C
    Aa, Ba, Ca, Da = _env_blocks(apx)
    Be, De, ne = env.sys.B, env.sys.D, env.sys.n_states
    n, na, nm = A.shape[0], Aa.shape[0], mod.n_states
    nz, nw, ny = S.shape[0], Gamma.shape[0], C.shape[0]
    nd = W.shape[1]

    Dmy, Dmw = mod.D[:, :ny], mod.D[:, ny:]
    Bmy, Bmw = mod.B[:, :ny], mod.B[:, ny:]

    # Upstream states (xi_hat, x_apx, x_mod), input d.
    A_up = np.block(
        [
            [
                A + L @ Da @ Gamma + B_u @ (Dmy @ C + Dmw @ Gamma),
                L @ Ca,
                B_u @ mod.C,
            ],
            [Ba @ Gamma, Aa, np.zeros((na, nm))],
            [Bmy @ C + Bmw @ Gamma, np.zeros((nm, na)), mod.A],
        ]
    ) if n + na + nm else np.zeros((0, 0))
    B_up = np.vstack([W, np.zeros((na + nm, nd))])
    C_up = np.block(
        [
            [S, np.zeros((nz, na + nm))],
            [Gamma, np.zeros((nw, na + nm))],
        ]
    )
    upstream = StateSpace(A_up, B_up, C_up)

    # Downstream states (xi_check, x_env), inputs (xi_hat, x_apx).
    A_dn = plantE.A
    B_dn = np.block(
        [[L @ (De - Da) @ Gamma, -L @ Ca], [Be @ Gamma, np.zeros((ne, na))]]
    )
    Sz_dn = plantE.C[:nz, :]
    downstream = StateSpace(A_dn, B_dn, Sz_dn)

    # Combined realization with taps (z, z_hat, z_check, w_hat).
    n_up = n + na + nm
    n_dn = n + ne
    A_all = np.block(
        [
            [A_up, np.zeros((n_up, n_dn))],
            [B_dn @ np.hstack([np.eye(n + na), np.zeros((n + na, nm))]), A_dn],
        ]
    ) if n_up + n_dn else np.zeros((0, 0))
    B_all = np.vstack([B_up, np.zeros((n_dn, nd))])
    Sz_up = C_up[:nz, :]
    C_all = np.block(
        [
            [Sz_up, Sz_dn],
            [Sz_up, np.zeros((nz, n_dn))],
            [np.zeros((nz, n_up)), Sz_dn],
            [C_up[nz:, :], np.zeros((nw, n_dn))],
        ]
    )
    tapped = StateSpace(A_all, B_all, C_all)
    T_zd = StateSpace(A_all, B_all, C_all[:nz, :])
    return CascadeRealization(upstream, downstream, tapped, T_zd, nz, nw)


def invariance_residual(G, K, grid=None):
    """Deviation of the controller-closed ``v -> w`` map from the open one.

    With the environment removed, a retrofit controller leaves the
    interconnection transfer matrix untouched; the residual is the maximum
    spectral-norm deviation over the frequency grid, normalized at each
    frequency by the open map's gain so strongly coupled networks are not
    penalized for sheer scale.
    """
    K_ss = K.realized if isinstance(K, RetrofitController) else K
    if grid is None:
        grid = default_frequency_grid()
    nv = len(G.cmap.inputs["v"])
    nu = len(G.cmap.inputs["u"])

    # Augment with a feedthrough copy of v so the controller can measure it.
    sysa = StateSpace(
        G.sys.A,
        G.sys.B,
        np.vstack([G.sys.C, np.zeros((nv, G.sys.n_states))]),
        np.vstack(
            [
                G.sys.D,
                np.eye(G.sys.n_inputs)[G.cmap.inputs["v"], :],
            ]
        ),
    )
    v_copy = np.arange(G.sys.n_outputs, G.sys.n_outputs + nv)
    meas = np.concatenate(
        [G.cmap.outputs["y"], G.cmap.outputs["w"], v_copy]
    )
    if K_ss.n_inputs != len(meas) or K_ss.n_outputs != nu:
        raise ValueError("controller must map (y, w, v) -> u")
    closed = close_loop(sysa, K_ss, G.cmap.inputs["u"], meas, keep_external=False)

    other = np.setdiff1d(np.arange(G.sys.n_inputs), G.cmap.inputs["u"])
    pos = {orig: k for k, orig in enumerate(other)}
    v_cols = [pos[i] for i in G.cmap.inputs["v"]]
    gwv_closed = StateSpace(
        closed.A,
        closed.B[:, v_cols],
        closed.C[G.cmap.outputs["w"], :],
        closed.D[np.ix_(G.cmap.outputs["w"], v_cols)],
    )
    gwv_open = select_channels(G.sys, G.cmap, ("v",), ("w",))

    ref = freq_response(gwv_open, grid)
    delta = freq_response(gwv_closed, grid) - ref
    if not delta.size:
        return 0.0
    scale = np.maximum(1.0, np.linalg.svd(ref, compute_uv=False)[:, 0])
    return float(np.max(np.linalg.svd(delta, compute_uv=False)[:, 0] / scale))


def kernel_residual(G, rect, grid=None):
    """Max over the grid of ``||(XR)(jw) G_(y,w,v)v(jw)||``.

    The rectifier annihilates every environment-induced component of the
    measurements, so this is zero for any correctly built rectifier.
    """
    if grid is None:
        grid = default_frequency_grid()
    nv = len(G.cmap.inputs["v"])
    # v -> (y, w, v): shared dynamics driven by v, identity feedthrough on v.
    rows_y = G.cmap.outputs["y"]
    rows_w = G.cmap.outputs["w"]
    gy = StateSpace(
        G.sys.A,
        G.sys.B[:, G.cmap.inputs["v"]],
        np.vstack(
            [G.sys.C[rows_y, :], G.sys.C[rows_w, :], np.zeros((nv, G.sys.n_states))]
        ),
        np.vstack(
            [
                np.zeros((len(rows_y) + len(rows_w), nv)),
                np.eye(nv),
            ]
        ),
    )
    val = freq_response(rect.sys, grid) @ freq_response(gy, grid)
    return float(np.max(np.linalg.svd(val, compute_uv=False)[:, 0]))


def performance_bounds(G, env, apx, module, norm_tol=1e-8):
    """Achieved norm and its cascade bound components for one design.

    Returns a report with the achieved ``||T_zd||``, the assumed level
    (upstream ``d -> z_hat`` norm), the gap term (cascade ``d -> z_check``
    norm) and the stability verdict; when the deflated closed loop is not
    stable the norms are reported as ``nan``.  Each norm is the midpoint
    of a bracket of relative width ``norm_tol`` whose lower end is an
    attained gain.
    """
    casc = cascade_realization(G, env, apx, module, check=False)
    rect = extended_rectifier(G, apx)
    K = series(rect.sys, module.sys)
    residual = invariance_residual(G, K)

    if not deflated_abscissa(casc.T_zd) < STABILITY_TOL:
        return PerformanceReport(np.nan, np.nan, np.nan, False, residual)
    tz_min = minreal(deflate_hidden(casc.T_zd))

    taps = casc.taps()
    nz = casc.n_z
    up_hat = minreal(
        StateSpace(casc.upstream.A, casc.upstream.B, casc.upstream.C[:nz, :])
    )
    zc = casc.tapped
    down_check = minreal(
        deflate_hidden(StateSpace(zc.A, zc.B, zc.C[taps["z_check"], :]))
    )

    return PerformanceReport(
        hinf_norm(tz_min, tol=norm_tol),
        hinf_norm(up_hat, tol=norm_tol),
        hinf_norm(down_check, tol=norm_tol),
        True,
        residual,
    )
