"""The benchmark's three workloads and the checks on their outputs.

Each workload has a ``setup(seed, work_dir)`` that builds its inputs and a
``run_unit(state)`` that does one unit of work, checks its outputs and
returns an ``Outcome``.  Every unit of a run is the same work of a few
seconds, so a run times many of them and a faster build runs more of the
same units, not different ones.  Workloads go through the public API of
``retrofit_control``; the sweep goes through ``cli.main`` in-process.

* ``design-sweep``: one unit is ``retrofit-ctl sweep`` of the seed's network
  on the sub-grid k_c {10} x n_apx {0, 8} x alpha {0.2} of the
  paper-benchmark preset.  ``hinf_norm`` inside ``performance_bounds``
  dominates; the only workload that runs ``hinf_synthesize`` and the CLI's
  worker pool.
* ``model-reduction``: one unit is balanced truncation of the seed's minimal
  environment at several orders, with the modeling error
  ``hinf_norm(minreal(env - apx))``.  Lyapunov solves dominate; every order
  recomputes the same Gramians.
* ``verify-fuzz``: one unit is ``run_all_checks`` on the seed.  Hundreds of
  calls on 4-8 state systems, no Lyapunov solve and no truncation.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Library functions are looked up on their modules at call time, so the
# tracer's wrappers on those attributes see the benchmark's own calls.
import retrofit_control as rc
from retrofit_control import cli, verification

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Paper-benchmark network seeds whose minimal environment has 52 states,
# like the paper's network (seed 6).  The Lyapunov cost grows as n^6, so a
# seed with 42 or 58 states would change the work of a run several-fold;
# drawing from equal-size networks keeps runs on different seeds comparable.
NETWORK_SEEDS = (0, 5, 6, 8, 12, 32, 35, 48)

SWEEP_GRID = {"kc_grid": [10], "napx_grid": [0, 8], "alpha_grid": [0.2]}
REDUCTION_KC = (2, 4, 6, 8, 10)
REDUCTION_ORDERS = (2, 4, 8, 12)
FUZZ_COUNT = 50

# Relative tolerance against the recorded reference.  Two runs of the same
# code already differ in the last digits: BLAS rounding varies between
# processes, and the norms amplify it up to their bisection tolerance.
# Modeling errors come from Gramians and hinf_norm(tol=1e-6) only.  The design norms also pass
# through hinf_synthesize, whose level bisection (gamma_tol=1e-3) is seeded
# by an hinf_norm at tol=1e-3, so a more accurate norm may shift the
# synthesized level by a bisection step; 1e-2 leaves room for that.
MODEL_RTOL = 1e-5
DESIGN_RTOL = 1e-2
# The invariance residual is roundoff (1e-11 to 1e-8); it is held to an
# absolute bound instead of its reference digits.
RESIDUAL_ATOL = 1e-6
SANDWICH_SLACK = 1e-9
TRUNCATION_SLACK = 1e-8
MONOTONE_SLACK = 1e-10


def network_seed(seed):
    """Network seed for a benchmark seed: itself when in the pool, else folded onto it."""
    return seed if seed in NETWORK_SEEDS else NETWORK_SEEDS[seed % len(NETWORK_SEEDS)]


def reference_path(workload, net_seed):
    return os.path.join(REFERENCE_DIR, f"{workload}_seed{net_seed}.json")


def load_reference(workload, net_seed):
    with open(reference_path(workload, net_seed)) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """One unit of work: units done, output items checked, and the failures."""

    units: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # outputs, for recording a reference


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------- design-sweep

SWEEP_FLOATS = ("modeling_error", "gamma_actual", "gamma_hat", "gamma_check")


def _read_rows(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, text in row.items():
            row[key] = text == "true" if text in ("true", "false") else float(text)
    return rows


def check_sweep_row(row, ref):
    """Problems with one performance row, as strings (empty when it passes)."""
    where = f"kc={row['k_c']:g} napx={row['n_apx']:g} alpha={row['alpha']:g}"
    ga, gh, gc = row["gamma_actual"], row["gamma_hat"], row["gamma_check"]
    if not np.all(np.isfinite([ga, gh, gc])):
        return [f"{where}: synthesis failure"]
    problems = []
    if not row["stable_retrofit"]:
        problems.append(f"{where}: stable_retrofit false")
    violation = max(abs(gc - gh) - ga, ga - (gh + gc))
    if violation > SANDWICH_SLACK:
        problems.append(f"{where}: bound sandwich violated by {violation:.3e}")
    if ref is None:
        return problems
    for key in SWEEP_FLOATS:
        rtol = MODEL_RTOL if key == "modeling_error" else DESIGN_RTOL
        if not _close(row[key], ref[key], rtol):
            problems.append(f"{where}: {key} {row[key]!r} vs reference {ref[key]!r}")
    if row["stable_direct"] != ref["stable_direct"]:
        problems.append(f"{where}: stable_direct {row['stable_direct']} vs reference")
    if abs(row["invariance_residual"]) > RESIDUAL_ATOL:
        problems.append(f"{where}: invariance residual {row['invariance_residual']:.3e}")
    return problems


def _sweep_key(row):
    return (row["k_c"], row["n_apx"], row["alpha"])


def write_sweep_config(path, net_seed):
    with open(path, "w") as fh:
        json.dump({"schema": 1, "seed": net_seed, **SWEEP_GRID}, fh)


def run_sweep(config, out_dir, reference):
    """One ``retrofit-ctl sweep`` through ``cli.main``, each row checked.

    ``reference`` maps (k_c, n_apx, alpha) to the recorded row, or is None.
    """
    status = cli.main(["sweep", "--config", config, "--out", out_dir])
    rows = _read_rows(os.path.join(out_dir, "performance.csv"))
    out = Outcome(units=len(rows), attempted=len(rows), values={"rows": rows})
    if status != 0:
        out.failures.append(f"sweep exited with {status}")
    for row in rows:
        ref = None if reference is None else reference.get(_sweep_key(row))
        problems = check_sweep_row(row, ref)
        if reference is not None and ref is None:
            problems.append(f"{_sweep_key(row)} is not in the reference")
        if problems:
            out.failures.append("; ".join(problems))
    return out


def sweep_setup(seed, work_dir):
    net_seed = network_seed(seed)
    config = os.path.join(work_dir, "sweep_config.json")
    write_sweep_config(config, net_seed)
    rows = load_reference("design-sweep", net_seed)["rows"]
    return {
        "config": config,
        "out": os.path.join(work_dir, "sweep"),
        "reference": {_sweep_key(row): row for row in rows},
    }


def sweep_unit(state):
    return run_sweep(state["config"], state["out"], state["reference"])


# ------------------------------------------------------------- model-reduction

def reduction_kc(seed):
    """Coupling k_c of the environment that a seed reduces."""
    return REDUCTION_KC[seed % len(REDUCTION_KC)]


def minimal_environment(net_seed, k_c):
    spec, assign = rc.paper_benchmark(k_c, seed=net_seed)
    _, env = rc.partition(rc.build_network(spec), spec, assign)
    return rc.minreal(env.sys)


def reduce_environment(k_c, env, reference):
    """One environment reduced at every order; ``values`` maps order to its error.

    ``reference`` maps order to the recorded error, or is None.
    """
    out = Outcome()
    previous = np.inf
    for order in REDUCTION_ORDERS:
        red = rc.balanced_truncate(env, min(order, env.n_states))
        err = rc.hinf_norm(rc.minreal(rc.add(env, rc.negate(red.reduced))))
        out.values[str(order)] = err
        out.units += 1
        out.attempted += 1
        where = f"kc={k_c} order={order}"
        expected = None if reference is None else reference[str(order)]
        if err > red.error_bound + TRUNCATION_SLACK:
            out.failures.append(f"{where}: error {err!r} above bound {red.error_bound!r}")
        elif err > previous + MONOTONE_SLACK:
            out.failures.append(f"{where}: error {err!r} grew from {previous!r}")
        elif expected is not None and not _close(err, expected, MODEL_RTOL):
            out.failures.append(f"{where}: error {err!r} vs reference {expected!r}")
        previous = err
    return out


def reduction_setup(seed, work_dir):
    net_seed, k_c = network_seed(seed), reduction_kc(seed)
    errors = load_reference("model-reduction", net_seed)["errors"]
    return {"k_c": k_c, "env": minimal_environment(net_seed, k_c), "reference": errors[str(k_c)]}


def reduction_unit(state):
    return reduce_environment(state["k_c"], state["env"], state["reference"])


# ----------------------------------------------------------------- verify-fuzz

def fuzz_setup(seed, work_dir):
    return {"seed": seed}


def fuzz_unit(state):
    results = verification.run_all_checks(seed=state["seed"], fuzz_count=FUZZ_COUNT)
    out = Outcome(units=1, attempted=len(results))
    out.failures = [f"seed {state['seed']}: {r.line()}" for r in results if not r.passed]
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one counted unit is, for the human-readable report
    setup: object
    run_unit: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design-sweep", "rows", sweep_setup, sweep_unit),
        Workload("model-reduction", "models", reduction_setup, reduction_unit),
        Workload("verify-fuzz", "suites", fuzz_setup, fuzz_unit),
    )
}
