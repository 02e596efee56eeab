"""End-to-end tests of the command-line interface.

Small single-point grids keep these fast; determinism is checked by byte
comparison of rerun outputs, and the simulated cascade taps are checked
against the additivity of the evaluation signal.
"""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from retrofit_control import (
    PerformanceReport, StateSpace, build_network, check_admissible, cli, minreal,
    paper_benchmark, partition, verification,
)
from retrofit_control.cli import load_config, main

CLI = [sys.executable, "-m", "retrofit_control.cli"]


def _write_cfg(path, **overrides):
    cfg = {
        "schema": 1,
        "kc_grid": [3],
        "napx_grid": [0],
        "alpha_grid": [0.2],
        "simulate": {"t_final": 5.0, "dt": 0.02},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def _network_object(k_c, seed=6):
    """The preset network at ``k_c`` written out as a config ``network`` object."""
    spec, assign = paper_benchmark(k_c, seed=seed)
    return {
        "node_count": spec.node_count,
        "edges": [[i, j, k] for i, j, k in spec.edges],
        "inertia": list(spec.inertia),
        "damping": list(spec.damping),
        "subsystem_nodes": list(spec.subsystem_nodes),
        "channels": {
            name: list(getattr(assign, name))
            for name in ("actuated", "disturbed", "measured", "evaluated")
        },
    }


# Four nodes in a chain; the environment, nodes 2 and 3, has no damping, so
# its poles lie on the imaginary axis while the whole network is damped.
_UNDAMPED = {
    "node_count": 4,
    "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1]],
    "inertia": [1, 1, 1, 1],
    "damping": [0.2, 0.2, 0, 0],
    "subsystem_nodes": [0, 1],
    "channels": {"actuated": [0], "disturbed": [0], "measured": [0], "evaluated": [0, 1]},
}


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _run(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


@pytest.fixture(scope="module")
def single_point(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = _write_cfg(base / "cfg.json")
    out = base / "sweep"
    _run("sweep", "--config", str(cfg), "--out", str(out))
    return cfg, out


@pytest.fixture(scope="module")
def simulated(single_point, tmp_path_factory):
    """One simulate run per mode at the fixture's grid point."""
    cfg, _ = single_point
    base = tmp_path_factory.mktemp("sim")
    outs = {}
    for mode in ("retrofit", "direct", "none"):
        outs[mode] = base / mode
        _run(
            "simulate", "--config", str(cfg), "--kc", "3", "--napx", "0",
            "--alpha", "0.2", "--mode", mode, "--out", str(outs[mode]),
        )
    return outs


def _metadata(out):
    return json.loads((out / "simulate_metadata.json").read_text())


class TestSweep:
    def test_outputs_exist(self, single_point):
        _, out = single_point
        assert (out / "errors.csv").exists()
        assert (out / "performance.csv").exists()
        assert (out / "sweep_metadata.json").exists()

    def test_row_contents(self, single_point):
        _, out = single_point
        rows = _read_rows(out / "performance.csv")
        assert len(rows) == 1
        r = rows[0]
        assert r["stable_retrofit"] == "true"
        ga = float(r["gamma_actual"])
        gh = float(r["gamma_hat"])
        gc = float(r["gamma_check"])
        assert abs(gc - gh) - 1e-9 <= ga <= gh + gc + 1e-9
        assert float(r["invariance_residual"]) < 1e-8

    def test_rerun_byte_identical(self, single_point, tmp_path):
        cfg, out = single_point
        out2 = tmp_path / "sweep2"
        _run("sweep", "--config", str(cfg), "--out", str(out2))
        for name in ("errors.csv", "performance.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_schema_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema": 99}))
        proc = _run(
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            check=False,
        )
        assert proc.returncode != 0

    @pytest.mark.parametrize("schema", [True, 1.0, "1", 2])
    def test_schema_must_be_the_integer(self, tmp_path, schema):
        # True == 1 == 1.0 in Python; the refusal shows the value's type.
        cfg = tmp_path / "schema.json"
        cfg.write_text(json.dumps({"schema": schema}))
        with pytest.raises(ValueError) as err:
            load_config(str(cfg))
        assert str(err.value) == f"unsupported config schema {schema!r}"

    def test_empty_grid_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[])
        proc = _run(
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            check=False,
        )
        assert proc.returncode != 0

    def test_unknown_key_rejected(self, tmp_path):
        # A misspelled grid must not silently run the default 88-row grid.
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"schema": 1, "kc_gird": [3]}))
        proc = _run(
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            check=False,
        )
        assert proc.returncode != 0
        assert "kc_gird" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_unknown_simulate_key_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json", simulate={"t_fnal": 5.0})
        with pytest.raises(ValueError, match="t_fnal"):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kc_grid", 3),
            ("napx_grid", "0, 8"),
            ("alpha_grid", ["x"]),
            ("alpha_grid", [True]),
            ("napx_grid", [0, None]),
            ("napx_grid", [2.7]),
            ("napx_grid", [0, -2]),
            ("alpha_grid", [0]),
            ("alpha_grid", [0.2, -0.01]),
            ("alpha_grid", [float("inf")]),
            ("kc_grid", [-1]),
            ("kc_grid", [float("inf")]),
            ("kc_grid", [2, float("nan")]),
        ],
    )
    def test_grid_value_types_rejected(self, tmp_path, key, value):
        cfg = _write_cfg(tmp_path / "cfg.json", **{key: value})
        with pytest.raises(ValueError, match=key):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "value, key",
        [
            (3, "simulate"),
            ([0.02, 5.0], "simulate"),
            ({"dt": "0.02"}, "dt"),
            ({"t_final": None}, "t_final"),
            ({"dt": 0}, "dt"),
            ({"dt": -0.02}, "dt"),
            ({"t_final": -1}, "t_final"),
            ({"t_final": float("inf")}, "t_final"),
            ({"dt": float("nan")}, "dt"),
        ],
    )
    def test_simulate_value_types_rejected(self, tmp_path, value, key):
        cfg = _write_cfg(tmp_path / "cfg.json", simulate=value)
        with pytest.raises(ValueError, match=key):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "key, value", [("eps", 1e-4), ("gamma_tol", 1e-3), ("norm_tol", 1e-8)]
    )
    def test_solver_tolerance_keys_refused(self, tmp_path, key, value):
        # The solver tolerances are constants; a config that still sets
        # one, even to the value the solver uses, is refused by name.
        cfg = _write_cfg(tmp_path / "cfg.json", **{key: value})
        with pytest.raises(ValueError, match=f"^unknown config key\\(s\\): '{key}'$"):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "key, value, match",
        [
            # The solver tolerances (here and below) are no config keys: a
            # bad value of one is refused by name, as a valid one is.
            ("gamma_tol", "x", "gamma_tol"),
            ("gamma_tol", -1e-3, "gamma_tol"),
            ("norm_tol", 0, "norm_tol"),
            ("seed", "a", "seed"),
            ("seed", True, "seed"),
            ("seed", 6.5, "seed"),
            ("network", "paper", "network"),
            ("network", ["paper-benchmark"], "network"),
            ("network", _without(_network_object(2), "damping"), "damping"),
            ("network", {**_network_object(2), "stiffness": 5.0}, "stiffness"),
            (
                "network",
                {**_network_object(2),
                 "channels": {**_network_object(2)["channels"], "boundary": [0, 4, 5]}},
                "boundary",
            ),
            ("network", {**_network_object(2), "node_count": "36"}, "node_count"),
            (
                "network",
                {**_network_object(2),
                 "edges": [[0, 1]] + _network_object(2)["edges"][1:]},
                "edges",
            ),
            ("norm_tol", float("inf"), "norm_tol"),
            ("eps", float("nan"), "eps"),
            ("gamma_tol", float("inf"), "gamma_tol"),
            ("network", {**_network_object(2), "damping": [float("nan")] * 36}, "damping"),
            (
                "network",
                {**_network_object(2),
                 "channels": {**_network_object(2)["channels"], "actuated": [1, 30]}},
                "network: actuated nodes must lie inside the subsystem",
            ),
            ("seed", -1, "seed"),
        ],
    )
    def test_scalar_values_rejected(self, tmp_path, key, value, match):
        cfg = _write_cfg(tmp_path / "cfg.json", **{key: value})
        with pytest.raises(ValueError, match=match):
            load_config(str(cfg))

    def test_document_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        with pytest.raises(ValueError, match="config must be a JSON object"):
            load_config(str(cfg))

    def test_custom_network_matches_preset(self, tmp_path):
        # The preset written out as a network object runs the same sweep.
        grid = {"kc_grid": [2], "napx_grid": [0, 8]}
        outs = {}
        for name, network in (("preset", "paper-benchmark"),
                              ("custom", _network_object(2))):
            cfg = _write_cfg(tmp_path / f"{name}.json", network=network, **grid)
            outs[name] = tmp_path / name
            assert main(["sweep", "--config", str(cfg), "--out", str(outs[name])]) == 0
        for name in ("errors.csv", "performance.csv"):
            assert (outs["preset"] / name).read_bytes() == (
                outs["custom"] / name
            ).read_bytes()

    def test_tiny_alpha_gives_flagged_row(self, tmp_path, capsys):
        # Normalizing by a subnormal control weight overflows in synthesis;
        # the row is flagged, not a traceback.
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[2], alpha_grid=[1e-160])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (row,) = _read_rows(tmp_path / "o" / "performance.csv")
        for key in ("gamma_actual", "gamma_hat", "gamma_check"):
            assert np.isnan(float(row[key]))
        assert row["stable_retrofit"] == "false"
        meta = json.loads((tmp_path / "o" / "sweep_metadata.json").read_text())
        assert len(meta["warnings"]) == 1
        assert "normalized feedthrough products are not finite" in meta["warnings"][0]
        assert "synthesis failed" in capsys.readouterr().err

    def test_failed_analysis_gives_flagged_row(self, tmp_path, capsys):
        # At k_c 1e30 the ordered Schur form of the n_apx 0 row fails; that
        # row is flagged with its stage and the sweep keeps every row.
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[1e30], napx_grid=[0, 2])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "performance.csv")
        assert [row["n_apx"] for row in rows] == ["0", "2"]
        for row in rows:
            assert np.isnan(float(row["gamma_actual"]))
            assert row["stable_retrofit"] == row["stable_direct"] == "false"
        warnings = json.loads((out / "sweep_metadata.json").read_text())["warnings"]
        assert re.match(
            r"(performance bounds|direct-loop stability) failed at kc=1e\+30 napx=0 "
            r"alpha=0.2: ", warnings[0],
        )
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {warning}" for warning in warnings]

    def test_failed_synthesis_solve_gives_flagged_row(self, tmp_path, capsys):
        # At k_c 1e9 every probed level's state Riccati Hamiltonian has
        # eigenvalues on the imaginary axis, so hinf_synthesize fails on the
        # n_apx 2 row; that row is flagged with its stage and the n_apx 0
        # row is kept.
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[1e9], napx_grid=[0, 2])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "performance.csv")
        assert [row["n_apx"] for row in rows] == ["0", "2"]
        assert np.isnan(float(rows[1]["gamma_actual"]))
        assert rows[1]["stable_retrofit"] == rows[1]["stable_direct"] == "false"
        warnings = json.loads((out / "sweep_metadata.json").read_text())["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith("synthesis failed at kc=1000000000.0 napx=2 alpha=0.2: ")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {warning}" for warning in warnings]

    def test_failed_direct_verdict_gives_flagged_row(self, tmp_path, monkeypatch):
        def fail(T_zd):
            raise np.linalg.LinAlgError("no Schur form")

        monkeypatch.setattr(cli, "_deflated_stable", fail)
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_metadata.json").read_text())
        assert meta["warnings"] == [
            "direct-loop stability failed at kc=3 napx=0 alpha=0.2: no Schur form"
        ]
        (row,) = _read_rows(out / "performance.csv")
        assert np.isnan(float(row["gamma_actual"]))

    def test_failed_direct_loop_gives_flagged_row(self, tmp_path, monkeypatch):
        # The direct loop's build is a stage of its own, between synthesis
        # and the performance bounds.
        def fail(G, pre, K):
            raise np.linalg.LinAlgError("singular loop")

        monkeypatch.setattr(cli, "closed_loop_direct", fail)
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_metadata.json").read_text())
        assert meta["warnings"] == ["direct loop failed at kc=3 napx=0 alpha=0.2: singular loop"]
        (row,) = _read_rows(out / "performance.csv")
        assert np.isnan(float(row["gamma_actual"]))
        assert row["stable_retrofit"] == row["stable_direct"] == "false"

    def test_unstable_retrofit_verdict_warns(self, tmp_path, monkeypatch, capsys):
        # A row whose cascade is not stable keeps the cells the report gives
        # and is warned of once, naming the row.
        def unstable(G, env, apx, module):
            return PerformanceReport(np.nan, np.nan, np.nan, False, 0.0)

        monkeypatch.setattr(cli, "performance_bounds", unstable)
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        warnings = json.loads((out / "sweep_metadata.json").read_text())["warnings"]
        assert warnings == [
            "retrofit stability failed at kc=3 napx=0 alpha=0.2: deflated cascade not stable"
        ]
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"warning: {warnings[0]}"]
        assert captured.out.endswith("(1 warnings)\n")
        (row,) = _read_rows(out / "performance.csv")
        assert row["gamma_actual"] == "nan" and row["invariance_residual"] == "0"
        assert row["stable_retrofit"] == "false" and row["stable_direct"] == "true"

    def test_failed_environment_gives_flagged_rows(self, tmp_path, capsys):
        # From k_c 1e155 on minreal's Gram product of the environment
        # overflows and its eigensolve raises; every row of that k_c is
        # flagged under one warning and the sweep exits 0.
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[1e200], napx_grid=[0, 2])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        errors = _read_rows(out / "errors.csv")
        assert [(row["n_apx"], row["modeling_error"]) for row in errors] == [
            ("0", "nan"), ("2", "nan"),
        ]
        rows = _read_rows(out / "performance.csv")
        assert [row["n_apx"] for row in rows] == ["0", "2"]
        for row in rows:
            assert all(row[key] == "nan" for key in ("modeling_error", "gamma_actual",
                                                     "gamma_hat", "gamma_check"))
            assert row["stable_retrofit"] == row["stable_direct"] == "false"
        warnings = json.loads((out / "sweep_metadata.json").read_text())["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith("environment failed at kc=1e+200: ")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {warning}" for warning in warnings]

    def test_undamped_environment_gives_flagged_rows(self, tmp_path, capsys):
        # The network is admissible, but its environment is undamped: the
        # modeling error of n_apx 0 has no norm and n_apx 2 has no balanced
        # model.  Each (k_c, n_apx) point is warned of once, naming its
        # stage; every row is kept, with nan wherever no value exists.
        spec, assign = cli._network_at({"network": _UNDAMPED}, 1)
        G, env = partition(build_network(spec), spec, assign)
        assert check_admissible(G, env.sys)
        cfg = _write_cfg(tmp_path / "cfg.json", network=_UNDAMPED, kc_grid=[1],
                         napx_grid=[0, 2])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        errors = _read_rows(out / "errors.csv")
        assert [row["n_apx"] for row in errors] == ["0", "2"]
        assert all(row["modeling_error"] == "nan" for row in errors)
        kept, flagged = _read_rows(out / "performance.csv")
        assert kept["modeling_error"] == "nan" and kept["stable_retrofit"] == "true"
        assert np.isfinite([float(kept[key]) for key in ("gamma_actual", "gamma_hat")]).all()
        assert flagged["n_apx"] == "2"
        assert all(flagged[key] == "nan" for key in ("modeling_error", "gamma_actual",
                                                     "gamma_hat", "gamma_check"))
        assert flagged["stable_retrofit"] == flagged["stable_direct"] == "false"
        warnings = json.loads((out / "sweep_metadata.json").read_text())["warnings"]
        assert len(warnings) == 2
        assert warnings[0].startswith("modeling error failed at kc=1 napx=0: ")
        assert warnings[1].startswith("model failed at kc=1 napx=2: ")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {warning}" for warning in warnings]

    def test_minreal_only_for_the_environment(self, tmp_path, monkeypatch):
        # The modeling errors take their norm on the realization as built;
        # the one minreal of a k_c is the environment set-up's.
        calls = []

        def counted(realization):
            calls.append(realization.n_states)
            return minreal(realization)

        monkeypatch.setattr(cli, "minreal", counted)
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[10], napx_grid=[0, 8])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_known_keys_load(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json", seed=6, network="paper-benchmark")
        loaded = load_config(str(cfg))
        assert loaded["kc_grid"] == [3]
        assert loaded["simulate"] == {"t_final": 5.0, "dt": 0.02}

    def test_rows_independent_of_thread_count(self, tmp_path):
        # Four rows, the small control weight among them: the CSVs must not
        # depend on how many sweep workers share the grid.
        cfg = _write_cfg(tmp_path / "cfg.json", napx_grid=[0, 2],
                         alpha_grid=[0.2, 0.01])
        outs = {}
        for threads in ("1", "2"):
            outs[threads] = tmp_path / f"t{threads}"
            proc = subprocess.run(
                CLI + ["sweep", "--config", str(cfg), "--out", str(outs[threads])],
                capture_output=True, text=True,
                env={**os.environ, "RETROFIT_CTL_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
        rows = _read_rows(outs["1"] / "performance.csv")
        assert len(rows) == 4
        for name in ("errors.csv", "performance.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def test_rows_independent_of_blas_thread_count(self, tmp_path):
        # The row whose gamma_check peaks at an ill-conditioned DC gain; its
        # norms must not depend on how many threads the BLAS runs.
        cfg = _write_cfg(tmp_path / "cfg.json", kc_grid=[1], napx_grid=[12],
                         alpha_grid=[0.01])
        outs = {}
        for threads in ("1", "2"):
            outs[threads] = tmp_path / f"b{threads}"
            proc = subprocess.run(
                CLI + ["sweep", "--config", str(cfg), "--out", str(outs[threads])],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads, "RETROFIT_CTL_THREADS": "1"},
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("errors.csv", "performance.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    @pytest.mark.parametrize("threads", ["two", "0", "-3", "1.5"])
    def test_bad_thread_count_rejected(self, tmp_path, monkeypatch, capsys, threads):
        # Refused before any environment is built or any output is written.
        monkeypatch.setenv("RETROFIT_CTL_THREADS", threads)
        cfg = _write_cfg(tmp_path / "cfg.json")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert "error: RETROFIT_CTL_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"alpha_grid": [0]}, "alpha_grid"),
            ({"network": {**_network_object(2),
                          "edges": [[0, 99, 5]] + _network_object(2)["edges"]}},
             "network: bad edge (0, 99)"),
            ({"network": {**_network_object(2), "inertia": [1.0] * 35}},
             "network: inertia has 35 entries, needs 1 or node_count = 36"),
            ({"network": {**_network_object(2), "damping": [0.1] * 3}},
             "network: damping has 3 entries, needs 1 or node_count = 36"),
        ],
    )
    def test_config_refused_in_one_line(self, tmp_path, overrides, key):
        # A bad config is one error line and exit 2, not a traceback, and
        # no output directory is made.
        cfg = _write_cfg(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        proc = _run("sweep", "--config", str(cfg), "--out", str(out), check=False)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("retrofit-ctl: error: ") and key in line
        assert not out.exists()


class TestSimulate:
    def test_retrofit_tap_additivity(self, simulated):
        out = simulated["retrofit"]
        rows = _read_rows(out / "timeseries.csv")
        assert rows
        z_cols = [c for c in rows[0] if c.startswith("z_")]
        assert z_cols
        for r in rows:
            for c in z_cols:
                idx = c.split("_", 1)[1]
                total = float(r[f"zhat_{idx}"]) + float(r[f"zcheck_{idx}"])
                assert abs(float(r[c]) - total) < 1e-9

        assert _metadata(out)["stable"] is True

    def test_none_mode_is_open_loop(self, simulated):
        # Without control and without modeling error the downstream tap
        # vanishes, so z equals the upstream component alone.
        rows = _read_rows(simulated["none"] / "timeseries.csv")
        assert rows
        # Impulse response decays for the damped stable network.
        z0_early = abs(float(rows[5]["z_1"]))
        tail = max(abs(float(r["z_1"])) for r in rows[-20:])
        assert np.isfinite(z0_early) and np.isfinite(tail)

    def test_direct_mode_outputs(self, simulated):
        out = simulated["direct"]
        rows = _read_rows(out / "timeseries.csv")
        assert rows
        assert any(c.startswith("z_") for c in rows[0])
        assert not any(c.startswith("zhat_") for c in rows[0])
        # Direct and retrofit modes implement the same synthesized module.
        gamma = _metadata(out)["achieved_gamma"]
        assert np.isfinite(gamma)
        assert gamma == _metadata(simulated["retrofit"])["achieved_gamma"]

    @pytest.mark.parametrize("mode", ["retrofit", "direct"])
    def test_synthesis_failure_reported(self, tmp_path, capsys, mode):
        # alpha 1e-160 makes the normalized Gram products overflow, so
        # synthesis fails; simulate says so like a sweep's flagged row and
        # writes nothing.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1}))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--kc", "2", "--napx", "0",
                     "--alpha", "1e-160", "--mode", mode, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "synthesis failed at kc=2.0 napx=0 alpha=1e-160: " in err
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["retrofit", "direct"])
    def test_synthesis_solve_failure_reported(self, tmp_path, capsys, mode):
        # At k_c 1e9 a Riccati solve's ordered Schur form raises LinAlgError
        # inside synthesis; simulate reports it in one line, as above.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1}))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--kc", "1e9", "--napx", "2",
                     "--alpha", "0.2", "--mode", mode, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("synthesis failed at kc=1000000000.0 napx=2 alpha=0.2: ")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["retrofit", "direct", "none"])
    def test_model_failure_reported(self, tmp_path, capsys, mode):
        # The undamped environment has no balanced model; simulate says so
        # in one line, as for a failed synthesis, and writes nothing.
        cfg = _write_cfg(tmp_path / "cfg.json", network=_UNDAMPED)
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--kc", "1", "--napx", "2",
                     "--alpha", "0.2", "--mode", mode, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("model failed at kc=1.0 napx=2: ")
        assert not out.exists()

    def test_stage_lines_keep_their_form(self, tmp_path, capsys):
        # The model and synthesis stages print "{stage} failed at {where}:
        # {reason}", the reason being the stage's own exception text.
        spec, assign = cli._network_at({"network": _UNDAMPED}, 1.0)
        G, env = partition(build_network(spec), spec, assign)
        with pytest.raises(RuntimeError) as model_exc:
            cli._apx_for(minreal(env.sys), 2)
        G2, env2, _ = cli._environment_setup({"network": "paper-benchmark", "seed": 6}, 2.0)
        apx = cli._apx_for(env2, 0)
        with pytest.raises(RuntimeError) as synth_exc:
            cli.hinf_synthesize(cli.new_subsystem(G2, apx), 1e-160)
        cases = [
            (_write_cfg(tmp_path / "undamped.json", network=_UNDAMPED),
             ["--kc", "1", "--napx", "2", "--alpha", "0.2"],
             f"model failed at kc=1.0 napx=2: {model_exc.value}"),
            (_write_cfg(tmp_path / "preset.json"),
             ["--kc", "2", "--napx", "0", "--alpha", "1e-160"],
             f"synthesis failed at kc=2.0 napx=0 alpha=1e-160: {synth_exc.value}"),
        ]
        for cfg, flags, line in cases:
            out = tmp_path / "sim"
            assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [line]
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["retrofit", "direct", "none"])
    def test_environment_failure_reported(self, tmp_path, capsys, mode):
        # The environment set-up fails from k_c 1e155 on; simulate says so
        # in one line, as for a failed model, and writes nothing.
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(_write_cfg(tmp_path / "cfg.json")),
                     "--kc", "1e200", "--napx", "8", "--alpha", "0.2", "--mode", mode,
                     "--out", str(out)])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("environment failed at kc=1e+200: ")
        assert not out.exists()

    def test_closed_loop_verdict_failure_reported(self, tmp_path, capsys):
        # At k_c 1e30 the ordered Schur form of the n_apx 0 cascade fails
        # (a sweep flags that row under "performance bounds").
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(_write_cfg(tmp_path / "cfg.json")),
                     "--kc", "1e30", "--napx", "0", "--alpha", "0.2", "--out", str(out)])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("closed-loop stability failed at kc=1e+30 napx=0 alpha=0.2: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--kc", "-1"),
            ("--kc", "inf"),
            ("--kc", "nan"),
            ("--napx", "-1"),
            ("--alpha", "0"),
            ("--alpha", "-0.2"),
            ("--alpha", "inf"),
        ],
    )
    def test_bad_flag_refused(self, tmp_path, capsys, monkeypatch, flag, value):
        # The flags follow the rules of the matching grid, and a bad value is
        # refused, naming the flag, before any network is built.
        def no_build(spec):
            raise AssertionError("network built")

        monkeypatch.setattr(cli, "build_network", no_build)
        args = {"--kc": "10", "--napx": "8", "--alpha": "0.2", flag: value}
        argv = ["simulate", "--config", str(_write_cfg(tmp_path / "cfg.json")),
                "--out", str(tmp_path / "sim")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [item for pair in args.items() for item in pair])
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "sim", [{"dt": 1e-310}, {"dt": 1e-12, "t_final": 1e6}], ids=["dt-underflow", "huge"]
    )
    def test_sample_count_refused_in_one_line(self, tmp_path, sim):
        # round(t_final / dt) + 1 samples: infinite, or 1e18 rows that no
        # memory holds; refused before the network is built.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "simulate": sim}))
        out = tmp_path / "sim"
        proc = _run("simulate", "--config", str(cfg), "--kc", "10", "--napx", "8",
                    "--alpha", "0.2", "--out", str(out), check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("retrofit-ctl: error: simulate dt ")
        assert not out.exists()

    def test_sample_cap_is_inclusive(self, tmp_path):
        cap = cli._MAX_SAMPLES
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"dt": 1.0, "t_final": cap - 1}}))
        assert load_config(cfg)["simulate"]["t_final"] == cap - 1
        cfg.write_text(json.dumps({"simulate": {"dt": 1.0, "t_final": cap}}))
        with pytest.raises(ValueError, match=f"more than {cap} samples"):
            load_config(cfg)


class TestVerify:
    def test_passes_and_prints_lines(self, tmp_path):
        proc = _run(
            "verify", "--fuzz-count", "5", "--seed", "0",
            "--out", str(tmp_path),
        )
        lines = [l for l in proc.stdout.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 4
        assert not (tmp_path / "verify_failures.json").exists()

    def test_kernel_mutant_fails(self, tmp_path, monkeypatch, capsys):
        # The rectifier with its feedthrough sign flipped, patched in.
        real = verification.extended_rectifier

        def flipped(G, apx):
            rect = real(G, apx)
            return StateSpace(rect.A, rect.B, rect.C, -rect.D)

        monkeypatch.setattr(verification, "extended_rectifier", flipped)
        code = main(["verify", "--fuzz-count", "5", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL  kernel identity" in capsys.readouterr().out
        assert (tmp_path / "verify_failures.json").exists()

    def test_negative_fuzz_count_rejected(self, tmp_path):
        # One error line and exit 2, like every other bad flag, before any
        # check runs or any output directory is made.
        out = tmp_path / "o"
        proc = _run(
            "verify", "--fuzz-count", "-5", "--seed", "0",
            "--out", str(out), check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("retrofit-ctl: error: argument --fuzz-count: ")
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path):
        # The flag and the config key are refused alike, before numpy's
        # generator sees the seed and before any output directory is made.
        out = tmp_path / "o"
        proc = _run("verify", "--seed", "-1", "--out", str(out), check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("retrofit-ctl: error: argument --seed: ")
        assert not out.exists()
        cfg = _write_cfg(tmp_path / "cfg.json", seed=-1)
        proc = _run("sweep", "--config", str(cfg), "--out", str(out), check=False)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("retrofit-ctl: error: seed must be an integer >= 0")
        assert not out.exists()

    def test_zero_fuzz_count_skips_robust_stability_only(self, tmp_path):
        # The count sizes the robust-stability check alone, so 0 skips it
        # and runs the other three.
        proc = _run(
            "verify", "--fuzz-count", "0", "--seed", "0", "--out", str(tmp_path),
        )
        lines = proc.stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "PASS  kernel identity", "PASS  cascade equivalence", "PASS  bound sandwich",
        ]
        assert "robust stability" not in proc.stdout
        assert lines[-1] == "all 3 checks passed"

    def test_config_flag_refused(self, tmp_path, capsys, monkeypatch):
        # verify builds no configured network, so it takes no --config.
        def no_checks(*args, **kwargs):
            raise AssertionError("checks ran")

        monkeypatch.setattr(cli, "run_all_checks", no_checks)
        cfg = _write_cfg(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"retrofit-ctl: error: unrecognized arguments: --config {cfg}"
        )
        assert not (tmp_path / "o").exists()

    def test_default_seed_is_the_benchmark_seed(self, tmp_path, capsys):
        outs = []
        for seed in ([], ["--seed", "6"]):
            assert main(["verify", "--fuzz-count", "0", *seed, "--out", str(tmp_path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].endswith("all 3 checks passed\n")

    def test_output_independent_of_blas_thread_count(self, tmp_path):
        # Every check's worst case, printed to its last digit, must not
        # depend on how many threads the BLAS runs.
        outs = {}
        for threads in ("1", "2"):
            proc = subprocess.run(
                CLI + ["verify", "--seed", "0", "--out", str(tmp_path / threads)],
                capture_output=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads, "RETROFIT_CTL_THREADS": "1"},
            )
            assert proc.returncode == 0, proc.stderr
            outs[threads] = proc.stdout
        assert outs["1"].endswith(b"all 4 checks passed\n")
        assert outs["1"] == outs["2"]


@pytest.mark.parametrize("kind", ["file", "below a file", "empty"])
@pytest.mark.parametrize("command", ["sweep", "simulate", "verify"])
def test_bad_out_refused(tmp_path, capsys, monkeypatch, command, kind):
    # An --out that is a regular file, a path below one, or empty is one
    # error line and exit 2, before any network is built or any check runs.
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "build_network", no_work)
    monkeypatch.setattr(cli, "run_all_checks", no_work)
    blocker = tmp_path / "f"
    blocker.write_text("")
    cfg = str(_write_cfg(tmp_path / "cfg.json"))
    flags = {
        "sweep": ["--config", cfg],
        "simulate": ["--config", cfg, "--kc", "10", "--napx", "8", "--alpha", "0.2"],
        "verify": ["--fuzz-count", "0"],
    }[command]
    out, reason = {
        "file": (blocker, f"{blocker} is not a directory"),
        "below a file": (blocker / "sub", f"{blocker} is not a directory"),
        "empty": ("", "must not be empty"),
    }[kind]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"retrofit-ctl: error: argument --out: {reason}"
    assert blocker.read_text() == ""
