#!/usr/bin/env python3
"""Benchmark of the retrofit-control toolkit.

Run from the root of the repository:

    python3 perfbench/run.py --workload design-sweep --seed 6 --seconds 36 --trace 0
    python3 perfbench/run.py                         # every workload, one process each
    python3 perfbench/run.py --steady 5 --workload verify-fuzz
    python3 perfbench/run.py --record-reference      # rewrite perfbench/reference/

A single-workload run prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits nonzero when an output check fails.  A timed run repeats one unit of
work for about ``--seconds`` and reports its throughput from the median
unit time, leaving out the first unit as warm-up.  BLAS and the sweep's
worker pool (``RETROFIT_CTL_THREADS``) are pinned to one thread before
numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("design-sweep", "model-reduction", "verify-fuzz")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 6  # oscnet.BENCHMARK_SEED, the paper's network
SETUP_SAMPLES = 5  # set-ups per timed run: its own and four in fresh processes
CHILD_TIMEOUT_S = 900

END_TO_END = (("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS thread and one sweep worker: a single compute thread per process.

    More sweep workers gain little on the GIL-bound rows, and threads that
    contend for the GIL time the host's scheduler more than the library.
    """
    for var in BLAS_THREAD_VARS + ("RETROFIT_CTL_THREADS",):
        os.environ[var] = "1"


def load_workloads():
    """Import the library from this checkout's ``src``; returns (module, seconds)."""
    if not os.path.isdir(os.path.join(SRC, "retrofit_control")):
        sys.exit(f"perfbench: no retrofit_control package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - t0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_environment():
    """Machine, library versions, thread settings and commit of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    threads["RETROFIT_CTL_THREADS"] = os.environ.get("RETROFIT_CTL_THREADS")
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "commit": _git_commit(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(result, out_path):
    """Print the human-readable lines and the final JSON line; write ``out_path``."""
    for name, m in result["metrics"].items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({**result, "env": run_environment()}, fh, indent=2)
            fh.write("\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def _run_units(wl, state, count=None, seconds=None):
    """Run ``count`` units, or whole units for about ``seconds``; (outcome, walls).

    ``walls`` holds the wall time of each unit.  With ``seconds``, another
    unit starts only while the run would end nearer to ``seconds`` with it
    than without it.
    """
    from workloads import Outcome

    total = Outcome()
    walls = []
    while True:
        t0 = time.perf_counter()
        out = wl.run_unit(state)
        walls.append(time.perf_counter() - t0)
        total.units += out.units
        total.attempted += out.attempted
        total.failures.extend(out.failures)
        if count is not None and len(walls) >= count:
            return total, walls
        wall = sum(walls)
        if seconds is not None and wall + 0.5 * wall / len(walls) >= seconds:
            return total, walls


def _child(args):
    return [sys.executable, os.path.abspath(__file__)] + [str(a) for a in args]


def _child_setup_s(name, seed):
    proc = subprocess.run(
        _child(["--setup-only", "--workload", name, "--seed", seed]),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _failures(outcome):
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if len(outcome.failures) > 20:
        print(f"perfbench: ... {len(outcome.failures) - 20} more failures", file=sys.stderr)


def run_workload(name, seed, seconds, trace, out_path):
    """One workload in this process, timed (trace 0) or traced (trace 1)."""
    wmod, import_s = load_workloads()
    wl = wmod.WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setup_s = import_s + time.perf_counter() - t0
        print(f"perfbench: workload {name}, seed {seed}", flush=True)
        if trace:
            return _traced(wmod, wl, seed, state, work, out_path)
        samples = [setup_s] + [_child_setup_s(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        outcome, walls = _run_units(wl, state, seconds=seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _failures(outcome)
    unit_s = statistics.median(walls[1:] or walls)  # the first unit warms up
    per_s = outcome.units / len(walls) / unit_s
    share = len(outcome.failures) / outcome.attempted
    print(f"perfbench: {len(walls)} units, {outcome.units} {wl.unit} in {sum(walls):.3f} s, "
          f"median unit {unit_s:.3f} s: {wl.unit}_per_s = {per_s:.6g} 1/s, "
          f"failed_share = {share:.6g} ratio")
    metrics = {
        "ops_per_s": _metric(per_s, "1/s"),
        "setup_s": _metric(statistics.median(samples), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    result = {
        "workload": name, "seed": seed, "trace": 0,
        "correct": not outcome.failures, "attempted": outcome.attempted,
        "failed": len(outcome.failures), "metrics": metrics,
        "setup_samples_s": samples, "units": outcome.units, "unit_walls_s": walls,
    }
    return _report(result, out_path)


def _traced(wmod, wl, seed, state, work, out_path):
    """One traced round: a warm-up unit, an untraced unit, then set-up and a traced unit."""
    from tracer import LAYER_METRICS, Tracer, layer_metrics, top_self_times

    plain, walls = _run_units(wl, state, count=2)
    untraced_s = walls[-1]  # the first unit warms up
    tracer = Tracer()
    with tracer:
        state = wl.setup(seed, work)
        traced, (traced_s,) = _run_units(wl, state, count=1)
    spans_path = os.path.join(WORK_ROOT, f"spans_{wl.name}_seed{seed}.jsonl")
    tracer.dump(spans_path)
    outcome = plain
    outcome.attempted += traced.attempted
    outcome.failures.extend(traced.failures)
    _failures(outcome)
    print(f"perfbench: traced round of one unit: "
          f"{untraced_s:.3f} s untraced, {traced_s:.3f} s traced; spans in {spans_path}")
    for span, self_s, share, calls in top_self_times(tracer):
        print(f"perfbench:   self {span:40s} {self_s:9.3f} s {100 * share:5.1f} % {calls:7d} calls")
    workers = int(os.environ["RETROFIT_CTL_THREADS"])
    values = layer_metrics(tracer, workers, untraced_s, traced_s)
    result = {
        "workload": wl.name, "seed": seed, "trace": 1,
        "correct": not outcome.failures, "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: _metric(values[name], unit) for name, unit in LAYER_METRICS},
    }
    return _report(result, out_path)


def setup_only(name, seed):
    """Time imports plus input generation in this fresh process."""
    wmod, import_s = load_workloads()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=WORK_ROOT)
    try:
        t0 = time.perf_counter()
        wmod.WORKLOADS[name].setup(seed, work)
        print(import_s + time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _run_child(name, seed, seconds, trace):
    """One workload in a fresh process; returns its parsed final line or None."""
    proc = subprocess.run(
        _child(["--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace]),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def run_all(names, seed, seconds, trace, out_path):
    """Each workload in its own process; prints every metric by workload."""
    results = {name: _run_child(name, seed, seconds, trace) for name in names}
    ok = True
    print("perfbench: summary")
    for name, res in results.items():
        if res is None:
            print(f"perfbench:   {name}: no result")
            ok = False
            continue
        ok &= res["correct"]
        print(f"perfbench:   {name}: correct={res['correct']} "
              f"failed_share={res['failed'] / res['attempted']:.6g}")
        for metric, m in res["metrics"].items():
            print(f"perfbench:   {name:16s} {metric:44s} {m['value']:.6g} {m['unit']}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"seed": seed, "seconds": seconds, "trace": trace,
                       "results": results, "env": run_environment()}, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def steady(names, first_seed, runs, seconds, out_path):
    """Run each workload ``runs`` times on consecutive seeds; quartiles per metric."""
    report = {}
    ok = True
    for name in names:
        values = {metric: [] for metric, _ in END_TO_END}
        for k in range(runs):
            res = _run_child(name, first_seed + k, seconds, 0)
            if res is None or not res["correct"]:
                ok = False
                continue
            for metric in values:
                values[metric].append(res["metrics"][metric]["value"])
        report[name] = {}
        for metric, unit in END_TO_END:
            vals = values[metric]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            report[name][metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "values": vals,
            }
    print("perfbench: steadiness (spread = (q3 - q1) / median)")
    for name, metrics in report.items():
        for metric, s in metrics.items():
            print(f"perfbench:   {name:16s} {metric:12s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"({len(s['values'])} runs)")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"first_seed": first_seed, "runs": runs, "seconds": seconds,
                       "steadiness": report, "env": run_environment()}, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def record_reference():
    """Rewrite the reference outputs for every network seed of the pool."""
    wmod, _ = load_workloads()
    os.makedirs(wmod.REFERENCE_DIR, exist_ok=True)
    os.makedirs(WORK_ROOT, exist_ok=True)
    status = 0
    for net_seed in wmod.NETWORK_SEEDS:
        work = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
        try:
            config = os.path.join(work, "sweep_config.json")
            wmod.write_sweep_config(config, net_seed)
            sweep = wmod.run_sweep(config, os.path.join(work, "sweep"), None)
            failures = list(sweep.failures)
            errors = {}
            for k_c in wmod.REDUCTION_KC:
                env = wmod.minimal_environment(net_seed, k_c)
                reduction = wmod.reduce_environment(k_c, env, None)
                failures.extend(reduction.failures)
                errors[str(k_c)] = reduction.values
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if failures:
            print(f"perfbench: network seed {net_seed} fails its checks: {failures}",
                  file=sys.stderr)
            status = 1
            continue
        docs = {
            "design-sweep": {"network_seed": net_seed, "grid": wmod.SWEEP_GRID,
                             "rows": sweep.values["rows"]},
            "model-reduction": {"network_seed": net_seed, "kc": list(wmod.REDUCTION_KC),
                                "orders": list(wmod.REDUCTION_ORDERS),
                                "errors": errors},
        }
        for workload, doc in docs.items():
            with open(wmod.reference_path(workload, net_seed), "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        print(f"perfbench: recorded network seed {net_seed}", flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results, with the run environment, here")
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run each workload RUNS times on consecutive seeds and "
                             "print median and quartiles of every end-to-end metric")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only and not args.workload:
        parser.error("--setup-only needs --workload")
    pin_threads()

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.record_reference:
        return record_reference()
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.steady:
        return steady(names, args.seed, args.steady, args.seconds, args.out)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace, args.out)
    return run_all(names, args.seed, args.seconds, args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
