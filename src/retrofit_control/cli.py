"""Command-line harness: parameter sweeps, impulse simulations, verification.

Subcommands:

``retrofit-ctl sweep --config cfg.json --out dir``
    Designs a controller at every (k_c, model dimension, alpha) grid point
    and writes ``errors.csv`` plus ``performance.csv``.

``retrofit-ctl simulate --config cfg.json --kc 10 --napx 8 --alpha 0.2
--mode retrofit --out dir``
    Impulse response at the first disturbance channel, with the evaluation
    output split into its designer-visible and error-induced components.

``retrofit-ctl verify --config cfg.json [--fuzz-count N] [--seed S]``
    Runs the randomized invariant suite; nonzero exit on any failure.

Configuration is a single versioned JSON document whose unknown keys are
rejected; the ``"paper-benchmark"`` network preset encodes the 36-node
oscillator benchmark.  The environment variable ``RETROFIT_CTL_THREADS``
caps sweep parallelism.  Bad input is refused, before any output, with
one ``retrofit-ctl: error:`` line and exit status 2.  Outputs are
byte-identical across reruns of the same config and seed.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys

import numpy as np

from .lti import StateSpace, minreal, select, simulate
# hinf_norm is unused: perfbench/tests/test_tracer.py pins it (ROADMAP item 9).
from .numerics import NumericsError, hinf_norm
from .oscnet import (
    BENCHMARK_SEED,
    ChannelAssignment,
    NetworkSpec,
    build_network,
    paper_benchmark,
    partition,
)
from .reduction import balanced_truncate, modeling_error
from .retrofit import (
    STABILITY_TOL,
    assemble_preexisting,
    cascade_realization,
    closed_loop_direct,
    compose_retrofit,
    deflated_abscissa,
    direct_controller,
    new_subsystem,
    performance_bounds,
)
from .synthesis import SynthesisError, hinf_synthesize
from .verification import run_all_checks

CONFIG_SCHEMA = 1

DEFAULT_CONFIG = {
    "schema": CONFIG_SCHEMA,
    "seed": BENCHMARK_SEED,
    "network": "paper-benchmark",
    "kc_grid": list(range(11)),
    "napx_grid": [0, 2, 8, 12],
    "alpha_grid": [0.2, 0.01],
    "simulate": {"t_final": 30.0, "dt": 0.02},
}
# Most samples ``round(t_final / dt) + 1`` that a simulate config may ask for.
_MAX_SAMPLES = 10**6


def _reject_unknown(keys, known, where):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _is_number(x):
    """A finite int or float; JSON's ``Infinity`` and ``NaN`` are not."""
    ok = isinstance(x, (int, float)) and not isinstance(x, bool)
    return ok and abs(x) <= sys.float_info.max


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x, item):
    return isinstance(x, list) and all(map(item, x))


def _is_edge(e):
    return _is_list(e, _is_number) and len(e) == 3 and _is_list(e[:2], _is_int)


# Grid key -> (check of one entry, its form), also applied to simulate's flags.
_GRID_RULES = {
    "kc_grid": (lambda x: x >= 0, "a number >= 0"),
    "napx_grid": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    "alpha_grid": (lambda x: x > 0, "a number > 0"),
}


# Key -> (check, expected form) of a custom ``network`` object (``k_c``
# comes from the grid) and of its ``channels`` object, one key per
# ``ChannelAssignment`` field; ``_network_at`` reads every one of them.
_NETWORK_KEYS = {
    "node_count": (_is_int, "an integer"),
    "edges": (lambda x: _is_list(x, _is_edge), "a list of [i, j, stiffness]"),
    "inertia": (lambda x: _is_list(x, _is_number), "a list of numbers"),
    "damping": (lambda x: _is_list(x, _is_number), "a list of numbers"),
    "subsystem_nodes": (lambda x: _is_list(x, _is_int), "a list of integers"),
    "channels": (lambda x: isinstance(x, dict), "an object"),
}
_CHANNEL_KEYS = dict.fromkeys(
    (f.name for f in dataclasses.fields(ChannelAssignment)),
    (lambda x: _is_list(x, _is_int), "a list of integers"),
)


def _check_keys(obj, checks, where):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    _reject_unknown(obj, checks, where)
    missing = [k for k in checks if k not in obj]
    if missing:
        raise ValueError(f"{where} lacks key(s): {', '.join(map(repr, missing))}")
    for key, (ok, form) in checks.items():
        if not ok(obj[key]):
            raise ValueError(f"{where} {key} must be {form}")


def _check_network(cfg):
    """Refuse a ``network`` that is neither the preset nor a network that partitions."""
    net = cfg["network"]
    if net == "paper-benchmark":
        return
    if not isinstance(net, dict):
        raise ValueError(f'network must be "paper-benchmark" or an object, got {net!r}')
    _check_keys(net, _NETWORK_KEYS, "network")
    _check_keys(net["channels"], _CHANNEL_KEYS, "network channels")
    try:
        # Which networks are valid does not depend on k_c >= 0.
        spec, assign = _network_at(cfg, 0.0)
        partition(build_network(spec), spec, assign)
    except ValueError as exc:
        raise ValueError(f"network: {exc}") from exc


def load_config(path):
    """Read a JSON config, filling unspecified fields with defaults.

    The document must be an object; its ``schema``, when given, must be
    the integer ``CONFIG_SCHEMA`` (``true`` and ``1.0`` are not).  Unknown
    keys, at the top level or under ``simulate``, are rejected, and so are
    grids that are not nonempty lists of finite numbers, a ``kc_grid``
    entry below 0, a ``napx_grid`` entry that is not an integer >= 0, an
    ``alpha_grid`` entry not above 0, a ``simulate`` that is not an object
    with finite ``dt`` and ``t_final`` > 0 giving at most ``_MAX_SAMPLES``
    samples, a ``seed`` that is not an integer >= 0, and a ``network`` that
    is neither ``"paper-benchmark"`` nor an object with exactly the keys a
    custom network is read from, each of the right type (its numbers
    finite), that builds and partitions; each error names the key.
    """
    cfg = dict(DEFAULT_CONFIG)
    cfg["simulate"] = dict(DEFAULT_CONFIG["simulate"])
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"config must be a JSON object, got {user!r}")
        schema = user.get("schema", CONFIG_SCHEMA)
        if not (_is_int(schema) and schema == CONFIG_SCHEMA):
            raise ValueError(f"unsupported config schema {schema!r}")
        _reject_unknown(user, DEFAULT_CONFIG, "config")
        sim = user.pop("simulate", {})
        if not isinstance(sim, dict):
            raise ValueError(f"simulate must be an object, got {sim!r}")
        _reject_unknown(sim, DEFAULT_CONFIG["simulate"], "simulate")
        cfg.update(user)
        cfg["simulate"].update(sim)
    for key, (ok, form) in _GRID_RULES.items():
        grid = cfg[key]
        if not (isinstance(grid, list) and grid and all(map(_is_number, grid))):
            raise ValueError(f"{key} must be a nonempty list of numbers, got {grid!r}")
        if not all(map(ok, grid)):
            raise ValueError(f"each {key} entry must be {form}, got {grid!r}")
    sim = cfg["simulate"]
    for key in ("dt", "t_final"):
        if not (_is_number(sim[key]) and sim[key] > 0):
            raise ValueError(f"simulate {key} must be a number > 0, got {sim[key]!r}")
    steps = sim["t_final"] / sim["dt"]  # inf when the quotient overflows
    if not (np.isfinite(steps) and round(steps) + 1 <= _MAX_SAMPLES):
        raise ValueError(
            f"simulate dt {sim['dt']!r} gives more than {_MAX_SAMPLES} samples "
            f"over t_final {sim['t_final']!r}"
        )
    if not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    _check_network(cfg)
    return cfg


def _network_at(cfg, k_c):
    """Network spec and channel assignment for one coupling value."""
    net = cfg["network"]
    if net == "paper-benchmark":
        return paper_benchmark(k_c, seed=cfg["seed"])
    # Both constructors turn the JSON lists into tuples of checked numbers.
    spec_fields = {k: v for k, v in net.items() if k != "channels"}
    spec = NetworkSpec(k_c=float(k_c), **spec_fields)
    return spec, ChannelAssignment(**net["channels"])


def _thread_count():
    """Sweep workers: ``RETROFIT_CTL_THREADS`` when set, else up to 8 cores."""
    raw = os.environ.get("RETROFIT_CTL_THREADS", "").strip()
    if not raw:
        return min(8, os.cpu_count() or 1)
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"RETROFIT_CTL_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _environment_setup(cfg, k_c):
    """Partitioned plant, minimal true environment and their preexisting loop."""
    spec, assign = _network_at(cfg, k_c)
    G, env = partition(build_network(spec), spec, assign)
    env_min = minreal(env.sys)
    return G, env_min, assemble_preexisting(G, env_min)


def _apx_for(env_min, napx):
    if napx == 0:
        return StateSpace.zero(env_min.n_outputs, env_min.n_inputs)
    return balanced_truncate(env_min, min(napx, env_min.n_states)).reduced


# The Gramians of an environment that is not strictly stable refuse it as
# unstable (ValueError) or as a singular Lyapunov operator (NumericsError).
_MODEL_FAILURES = (ValueError, NumericsError, np.linalg.LinAlgError)


def _model_point(env_min, k_c, napx):
    """Model and modeling error of a (k_c, n_apx) point, and a warning; a
    failed stage gives ``None`` or ``nan`` and a warning that names it."""
    where = f"kc={k_c} napx={napx}"
    try:
        apx = _apx_for(env_min, napx)
    except _MODEL_FAILURES as exc:
        return None, np.nan, f"model failed at {where}: {exc}"
    try:
        return apx, modeling_error(env_min, apx), None
    except (NumericsError, np.linalg.LinAlgError) as exc:
        return apx, np.nan, f"modeling error failed at {where}: {exc}"


def _deflated_stable(T_zd):
    return bool(deflated_abscissa(T_zd) < STABILITY_TOL)


def _sweep_point(G, env_min, pre, apx, merr, k_c, napx, alpha):
    """One performance row; a failed synthesis or analysis gives a flagged
    row, and so does no model (``apx`` None, which ``_model_point`` warned of)."""
    flagged = [k_c, napx, alpha, merr, np.nan, np.nan, np.nan, False, False, np.nan]
    if apx is None:
        return flagged, None
    where = f"kc={k_c} napx={napx} alpha={alpha}"
    try:
        module, _ = hinf_synthesize(new_subsystem(G, apx), alpha)
    except (SynthesisError, NumericsError, np.linalg.LinAlgError) as exc:
        return flagged, f"synthesis failed at {where}: {exc}"
    direct = closed_loop_direct(G, pre, direct_controller(G, module))
    stage = "performance bounds"
    try:
        report = performance_bounds(G, env_min, apx, module)
        stage = "direct-loop stability"
        stable_direct = _deflated_stable(direct)
    except (np.linalg.LinAlgError, NumericsError) as exc:
        return flagged, f"{stage} failed at {where}: {exc}"
    row = [
        k_c,
        napx,
        alpha,
        merr,
        report.gamma_actual,
        report.gamma_hat,
        report.gamma_check,
        report.stable,
        stable_direct,
        report.invariance_residual,
    ]
    return row, None


def cmd_sweep(cfg, out_dir, workers):
    os.makedirs(out_dir, exist_ok=True)
    kc_grid = cfg["kc_grid"]
    napx_grid = cfg["napx_grid"]
    alpha_grid = cfg["alpha_grid"]

    setups = {k_c: _environment_setup(cfg, k_c) for k_c in kc_grid}
    error_rows = []
    tasks = []
    warnings = []
    for k_c in kc_grid:
        G, env_min, pre = setups[k_c]
        for napx in napx_grid:
            apx, merr, warning = _model_point(env_min, k_c, napx)
            if warning:
                warnings.append(warning)
            error_rows.append([k_c, napx, merr])
            for alpha in alpha_grid:
                tasks.append((G, env_min, pre, apx, merr, k_c, napx, alpha))

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(lambda task: _sweep_point(*task), tasks))

    perf_rows = [row for row, _ in results]
    warnings += [warning for _, warning in results if warning]

    _write_csv(
        os.path.join(out_dir, "errors.csv"),
        ["k_c", "n_apx", "modeling_error"],
        error_rows,
    )
    _write_csv(
        os.path.join(out_dir, "performance.csv"),
        [
            "k_c",
            "n_apx",
            "alpha",
            "modeling_error",
            "gamma_actual",
            "gamma_hat",
            "gamma_check",
            "stable_retrofit",
            "stable_direct",
            "invariance_residual",
        ],
        perf_rows,
    )
    meta = {
        "schema": CONFIG_SCHEMA,
        "config": {k: v for k, v in cfg.items()},
        "rows": len(perf_rows),
        "warnings": warnings,
    }
    with open(os.path.join(out_dir, "sweep_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"sweep: {len(perf_rows)} rows -> {out_dir} ({len(warnings)} warnings)")
    return 0


def cmd_simulate(cfg, k_c, napx, alpha, mode, out_dir):
    G, env_min, pre = _environment_setup(cfg, k_c)
    try:
        apx = _apx_for(env_min, napx)
    except _MODEL_FAILURES as exc:
        print(f"model failed at kc={k_c} napx={napx}: {exc}", file=sys.stderr)
        return 1
    nz, ny, nw = G.S.shape[0], G.C.shape[0], G.Gamma.shape[0]
    dt = float(cfg["simulate"]["dt"])
    t_final = float(cfg["simulate"]["t_final"])
    n_samples = int(round(t_final / dt)) + 1
    t = np.arange(n_samples) * dt

    meta = {"mode": mode, "k_c": k_c, "n_apx": napx, "alpha": alpha, "dt": dt}
    if mode in ("retrofit", "direct"):
        try:
            module, meta["achieved_gamma"] = hinf_synthesize(new_subsystem(G, apx), alpha)
        except (SynthesisError, NumericsError, np.linalg.LinAlgError) as exc:
            print(f"synthesis failed at kc={k_c} napx={napx} alpha={alpha}: {exc}",
                  file=sys.stderr)
            return 1
    else:  # "none"; argparse's choices refuse any other mode
        module = StateSpace.zero(G.B.shape[1], ny + nw)

    d = np.zeros((n_samples, G.W.shape[1]))
    d[0, 0] = 1.0 / dt  # impulse at the first disturbance channel

    if mode == "direct":
        sys_out = closed_loop_direct(G, pre, direct_controller(G, module))
        names = ("z",)
    else:
        if mode == "retrofit":
            compose_retrofit(G, apx, module)
        sys_out = cascade_realization(G, env_min, apx, module)
        names = ("z", "zhat", "zcheck")
    meta["stable"] = _deflated_stable(select(sys_out, np.arange(nz)))
    header = ["t"] + [f"{name}_{i + 1}" for name in names for i in range(nz)]
    rows = np.column_stack([t, simulate(sys_out, d, dt)])

    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "timeseries.csv"), header, rows)
    with open(os.path.join(out_dir, "simulate_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not meta["stable"]:
        print("warning: closed loop unstable; divergent series emitted",
              file=sys.stderr)
    print(f"simulate: {n_samples} samples -> {out_dir}")
    return 0


def cmd_verify(cfg, fuzz_count, seed, out_dir):
    results = run_all_checks(
        seed=seed if seed is not None else cfg["seed"], fuzz_count=fuzz_count
    )
    failures = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failures:
        os.makedirs(out_dir, exist_ok=True)
        payload = [dataclasses.asdict(r) for r in failures]
        path = os.path.join(out_dir, "verify_failures.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        print(f"{len(failures)} check(s) failed; replay data in {path}",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="retrofit-ctl",
        description="Retrofit controller design sweeps, simulations and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the (k_c, n_apx, alpha) grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="impulse response at one grid point")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--kc", type=float, required=True)
    p_sim.add_argument("--napx", type=int, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--mode", choices=("retrofit", "direct", "none"),
                       default="retrofit")
    p_sim.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--fuzz-count", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=".")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # simulate's flags follow the rules of the matching grid.
        for flag in ("kc", "napx", "alpha") if args.command == "simulate" else ():
            ok, form = _GRID_RULES[f"{flag}_grid"]
            value = getattr(args, flag)
            if not (_is_number(value) and ok(value)):
                raise ValueError(f"argument --{flag}: must be {form}, got {value!r}")
        for flag in ("fuzz-count", "seed") if args.command == "verify" else ():
            if (value := getattr(args, flag.replace("-", "_"))) is not None and value < 0:
                raise ValueError(f"argument --{flag}: must be an integer >= 0, got {value}")
        if not args.out:
            raise ValueError("argument --out: must not be empty")
        out = os.path.abspath(args.out)  # its nearest existing ancestor
        while not os.path.lexists(out):
            out = os.path.dirname(out)
        if not os.path.isdir(out):
            raise ValueError(f"argument --out: {out} is not a directory")
        cfg = load_config(args.config)
        if args.command == "sweep":
            workers = _thread_count()
    except (OSError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if args.command == "sweep":
        return cmd_sweep(cfg, args.out, workers)
    if args.command == "simulate":
        return cmd_simulate(cfg, args.kc, args.napx, args.alpha, args.mode, args.out)
    return cmd_verify(cfg, args.fuzz_count, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
