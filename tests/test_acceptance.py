"""Acceptance gate: one test and one printed pass/fail line per criterion.

Value-level checks run against independent oracles (dense frequency grids,
algebraic residuals); benchmark-level checks run the full preset sweep once
through the command-line interface and read its CSV outputs.  Runtime
limits are measured on the same artifacts.
"""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from retrofit_control import (
    StateSpace,
    add,
    balanced_truncate,
    hinf_norm,
    lqg_module,
    minreal,
    negate,
    new_subsystem,
    performance_bounds,
    solve_care,
    solve_lyapunov,
    spectral_abscissa,
)
from retrofit_control.cli import DEFAULT_CONFIG, _apx_for, _environment_setup
from retrofit_control.verification import (
    check_cascade_equivalence,
    check_kernel_identity,
    check_robust_stability,
    random_admissible_env,
    random_partitioned_plant,
)

CLI = [sys.executable, "-m", "retrofit_control.cli"]


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _report(num, name, passed, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert passed, line


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """Full preset sweep through the CLI; returns (rows, errors, elapsed)."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1}))
    out = base / "sweep"
    t0 = time.monotonic()
    proc = subprocess.run(
        CLI + ["sweep", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows(out / "performance.csv")
    errs = _read_rows(out / "errors.csv")
    return rows, errs, elapsed


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    t0 = time.monotonic()
    proc = subprocess.run(
        CLI + ["verify", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    return proc, elapsed


def test_criterion_01_kernel_identity():
    t0 = time.monotonic()
    res = check_kernel_identity(seed=0, n_cases=20, tol=1e-8)
    elapsed = time.monotonic() - t0
    _report(
        1, "kernel identity", res.passed and elapsed < 30.0,
        f"worst {res.worst:.2e} over {res.cases} cases in {elapsed:.1f}s",
    )


def test_criterion_02_robust_stability():
    t0 = time.monotonic()
    res = check_robust_stability(seed=0, n_env=50, n_apx=10)
    elapsed = time.monotonic() - t0
    _report(
        2, "robust stability", res.passed and elapsed < 120.0,
        f"{res.detail}, worst abscissa {res.worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_03_cascade_equivalence():
    res = check_cascade_equivalence(seed=0, n_cases=10, tol=1e-6)
    _report(
        3, "cascade equivalence", res.passed,
        f"worst relative gap {res.worst:.2e} over {res.cases} configs",
    )


def test_criterion_04_bound_sandwich(sweep):
    rows, _, _ = sweep
    worst = -np.inf
    stable_rows = 0
    for r in rows:
        if r["stable_retrofit"] != "true":
            continue
        stable_rows += 1
        ga = float(r["gamma_actual"])
        gh = float(r["gamma_hat"])
        gc = float(r["gamma_check"])
        worst = max(worst, abs(gc - gh) - ga, ga - gh - gc)
    _report(
        4, "bound sandwich", stable_rows > 0 and worst <= 1e-9,
        f"worst violation {worst:.2e} over {stable_rows} stable rows",
    )


def test_criterion_05_exact_model_collapse():
    rng = np.random.default_rng(3)
    G = random_partitioned_plant(rng)
    env = random_admissible_env(rng, G)
    module = lqg_module(new_subsystem(G, env))
    rep = performance_bounds(G, env, env, module)
    ok = (
        rep.stable
        and rep.gamma_check <= 1e-8
        and abs(rep.gamma_actual - rep.gamma_hat) <= 1e-6 * rep.gamma_hat
    )
    _report(
        5, "exact-model collapse", ok,
        f"gap term {rep.gamma_check:.2e}, "
        f"rel level gap {abs(rep.gamma_actual - rep.gamma_hat) / rep.gamma_hat:.2e}",
    )


def test_criterion_06_truncation_bound(sweep):
    _, errs, _ = sweep
    em = {
        (int(r["k_c"]), int(r["n_apx"])): float(r["modeling_error"])
        for r in errs
    }
    kcs = sorted({k for k, _ in em})
    orders = sorted({n for _, n in em})
    worst_excess = -np.inf
    # At k_c = 0 the error and the bound are both 0 and pin worst_excess at
    # the slack; the margin on the other rows is reported on its own.
    worst_nonzero = -np.inf
    monotone = True
    for kc in kcs:
        G, env_min = _environment_setup(DEFAULT_CONFIG, float(kc))
        for n in orders:
            apx = _apx_for(env_min, n)
            if n == 0:
                bound = 2.0 * balanced_truncate(
                    env_min, 0
                ).hankel_values.sum() + float(
                    np.linalg.svd(env_min.D, compute_uv=False)[0]
                    if env_min.D.size
                    else 0.0
                )
            else:
                red = balanced_truncate(env_min, min(n, env_min.n_states))
                bound = red.error_bound
            worst_excess = max(worst_excess, em[(kc, n)] - bound - 1e-8)
            if bound > 0.0:
                worst_nonzero = max(worst_nonzero, em[(kc, n)] - bound - 1e-8)
        errs_at_kc = [em[(kc, n)] for n in orders]
        monotone &= all(
            errs_at_kc[i + 1] <= errs_at_kc[i] + 1e-10
            for i in range(len(errs_at_kc) - 1)
        )
    _report(
        6, "truncation bound", worst_excess <= 0.0 and monotone,
        f"worst bound excess {worst_excess:.2e} ({worst_nonzero:.2e} over rows "
        f"with a nonzero bound), monotone in order: {monotone}",
    )


def test_criterion_07_error_trends(sweep):
    _, errs, _ = sweep
    em = {
        (int(r["k_c"]), int(r["n_apx"])): float(r["modeling_error"])
        for r in errs
    }
    # Strictly increasing in coupling (1% slack at adjacent points) and
    # strictly decreasing in model order over {0, 2, 8}.
    inc = all(
        em[(k + 1, n)] >= em[(k, n)] * 0.99 for n in (0, 2, 8) for k in range(10)
    ) and all(em[(10, n)] > em[(0, n)] for n in (0, 2, 8))
    dec = all(
        em[(k, 0)] >= em[(k, 2)] * 0.99 and em[(k, 2)] >= em[(k, 8)] * 0.99
        for k in range(1, 11)
    ) and all(em[(k, 0)] > em[(k, 8)] for k in range(1, 11))
    _report(
        7, "modeling-error trends", inc and dec,
        f"increasing in coupling: {inc}, decreasing in order: {dec}",
    )


def test_criterion_08_retrofit_vs_direct(sweep):
    rows, _, _ = sweep
    retrofit_ok = all(r["stable_retrofit"] == "true" for r in rows)
    direct_fails = any(
        r["stable_direct"] == "false"
        for r in rows
        if int(r["n_apx"]) == 0 and int(float(r["k_c"])) in (1, 4, 10)
    )
    gc = {
        (int(float(r["k_c"])), int(r["n_apx"]), round(float(r["alpha"]), 6)):
            float(r["gamma_check"])
        for r in rows
    }
    ratio = gc[(10, 0, 0.2)] / gc[(10, 8, 0.2)]
    _report(
        8, "retrofit vs direct", retrofit_ok and direct_fails and ratio >= 2.0,
        f"retrofit stable on all rows: {retrofit_ok}, direct unstable "
        f"somewhere: {direct_fails}, gap-term ratio {ratio:.2f}",
    )


def test_criterion_09_numerics_oracles():
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 81))
        A = rng.standard_normal((n, n))
        A = A - (spectral_abscissa(A) + 0.5) * np.eye(n)
        sys = StateSpace(
            A, rng.standard_normal((n, 2)), rng.standard_normal((2, n))
        )
        val = hinf_norm(sys, tol=1e-8)
        peak = 0.0
        for w in np.logspace(-3, 3, 10_000):
            H = sys.C @ np.linalg.solve(1j * w * np.eye(n) - A, sys.B)
            peak = max(peak, np.linalg.svd(H, compute_uv=False)[0])
        worst_rel = max(worst_rel, abs(val - peak) / peak)

    worst_res = 0.0
    for _ in range(5):
        n, m = 6, 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        P = solve_care(A, B, np.eye(n), np.eye(m))
        res = A.T @ P + P @ A - P @ B @ B.T @ P + np.eye(n)
        worst_res = max(
            worst_res, np.linalg.norm(res) / max(1.0, np.linalg.norm(P)) ** 2
        )
        As = A - (spectral_abscissa(A) + 1.0) * np.eye(n)
        Q = B @ B.T
        X = solve_lyapunov(As, Q)
        res_l = np.linalg.norm(As @ X + X @ As.T + Q)
        scale = np.linalg.norm(As) * np.linalg.norm(X) + np.linalg.norm(Q)
        worst_res = max(worst_res, res_l / scale)
    ok = worst_rel <= 1e-4 and worst_res <= 1e-8
    _report(
        9, "numerics oracles", ok,
        f"norm vs grid rel {worst_rel:.2e}, eq residuals {worst_res:.2e}",
    )


def test_criterion_10_runtime(sweep, verify_run):
    _, _, sweep_elapsed = sweep
    proc, verify_elapsed = verify_run
    ok = (
        sweep_elapsed < 300.0
        and verify_elapsed < 180.0
        and proc.returncode == 0
    )
    _report(
        10, "desk-scale runtime", ok,
        f"sweep {sweep_elapsed:.0f}s < 300s, verify {verify_elapsed:.0f}s < 180s "
        f"(exit {proc.returncode})",
    )
