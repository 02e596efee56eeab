"""Tests of the benchmark's span tracer.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import concurrent.futures
import json
import os
import sys
import threading
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, span_name  # noqa: E402

import retrofit_control  # noqa: E402
from retrofit_control import cli, numerics, reduction, retrofit, verification  # noqa: E402


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _fake_package(name, source, **env):
    """Register a package ``name`` with one submodule ``name.mod`` built from ``source``."""
    pkg = types.ModuleType(name)
    mod = types.ModuleType(f"{name}.mod")
    mod.__dict__.update(env)
    exec(compile(source, f"<{name}.mod>", "exec"), mod.__dict__)
    pkg.top = getattr(mod, "top", None)  # a package-level alias, like retrofit_control's
    sys.modules[name] = pkg
    sys.modules[f"{name}.mod"] = mod
    return pkg, mod


@pytest.fixture
def fake_package():
    made = []

    def make(name, source, **env):
        made.append(name)
        return _fake_package(name, source, **env)

    yield make
    for name in made:
        sys.modules.pop(name, None)
        sys.modules.pop(f"{name}.mod", None)


def test_self_time_of_nested_spans(fake_package):
    clock = ManualClock()
    source = (
        "def leaf():\n"
        "    tick(1.0)\n"
        "def middle():\n"
        "    tick(2.0); leaf(); leaf(); tick(0.5)\n"
        "def top():\n"
        "    middle(); tick(3.0); leaf()\n"
    )
    pkg, _ = fake_package("fakenest", source, tick=clock.tick)
    tracer = Tracer(package="fakenest", clock=clock)
    with tracer:
        pkg.top()
    stats = tracer.summarize()
    assert stats["mod.top"].calls == 1
    assert stats["mod.top"].busy_s == 8.5
    assert stats["mod.top"].self_s == 3.0
    assert stats["mod.middle"].busy_s == 4.5
    assert stats["mod.middle"].self_s == 2.5
    assert stats["mod.leaf"].calls == 3
    assert stats["mod.leaf"].self_s == 3.0


def test_recursive_span_counts_busy_time_once(fake_package):
    clock = ManualClock()
    source = (
        "def top(n=2):\n"
        "    tick(1.0)\n"
        "    if n:\n"
        "        top(n - 1)\n"
    )
    pkg, _ = fake_package("fakerec", source, tick=clock.tick)
    tracer = Tracer(package="fakerec", clock=clock)
    with tracer:
        pkg.top()
    st = tracer.summarize()["mod.top"]
    assert (st.calls, st.busy_s, st.self_s) == (3, 3.0, 3.0)


def test_per_thread_stacks_under_a_pool(fake_package):
    workers = 4
    source = (
        "def job(barrier):\n"
        "    barrier.wait(); sleep(0.02); step(barrier); sleep(0.02)\n"
        "def step(barrier):\n"
        "    barrier.wait(); sleep(0.05)\n"
        "def fan_out(n):\n"
        "    sleep(0.03)\n"
        "    barrier = Barrier(n)\n"
        "    with Pool(n) as pool:\n"
        "        for fut in [pool.submit(job, barrier) for _ in range(n)]:\n"
        "            fut.result()\n"
    )
    _, mod = fake_package(
        "fakepool", source, sleep=time.sleep,
        Barrier=lambda n: threading.Barrier(n, timeout=10),
        Pool=concurrent.futures.ThreadPoolExecutor,
    )
    tracer = Tracer(package="fakepool")
    with tracer:
        mod.fan_out(workers)

    worker_threads = [spans for _, spans in tracer.threads if spans[0].name == "mod.job"]
    assert len(worker_threads) == workers
    for spans in worker_threads:
        # Each worker's stack is its own: job at top level, step inside it.
        assert [(s.name, s.parent) for s in spans] == [("mod.job", -1), ("mod.step", 0)]
        job, step = spans
        assert job.start <= step.start <= step.end <= job.end
    stats = tracer.summarize()
    # Steps on other threads overlap each job, but only its own step is
    # subtracted, so every job keeps its 0.04 s of sleeping as self time.
    assert stats["mod.job"].self_s >= workers * 0.04
    assert stats["mod.job"].self_s + stats["mod.step"].self_s == pytest.approx(
        sum(job.end - job.start for job, _ in worker_threads), rel=1e-9
    )
    [(serial, wall, busy)] = tracer.pool_phases("mod.fan_out")
    assert serial >= 0.03
    assert 0.0 < busy <= workers * wall * (1 + 1e-9)


def test_every_alias_of_a_wrapped_function_is_replaced():
    originals = {
        "hinf_norm": numerics.hinf_norm,
        "balanced_truncate": reduction.balanced_truncate,
        "gramians": reduction.gramians,
    }
    private = numerics._freq_gain
    modules = [m for n, m in sys.modules.items()
               if n == "retrofit_control" or n.startswith("retrofit_control.")]
    tracer = Tracer().install()
    try:
        wrapped = numerics.hinf_norm
        assert wrapped is not originals["hinf_norm"]
        assert wrapped.__wrapped__ is originals["hinf_norm"]
        for alias in (retrofit.hinf_norm, cli.hinf_norm, verification.hinf_norm,
                      retrofit_control.hinf_norm):
            assert alias is wrapped
        assert cli.balanced_truncate is reduction.balanced_truncate
        assert cli.balanced_truncate.__wrapped__ is originals["balanced_truncate"]
        assert reduction.gramians.__wrapped__ is originals["gramians"]
        assert numerics._freq_gain is private
        # No module attribute still refers to an unwrapped public function.
        for mod in modules:
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("retrofit_control")):
                    assert hasattr(value, "__wrapped__"), f"{mod.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert numerics.hinf_norm is originals["hinf_norm"]
    assert cli.balanced_truncate is originals["balanced_truncate"]
    assert retrofit_control.hinf_norm is originals["hinf_norm"]


def _traced_sweep(tmp_path, tag):
    config = tmp_path / f"config_{tag}.json"
    config.write_text(json.dumps({"schema": 1, "kc_grid": [2], "napx_grid": [0],
                                  "alpha_grid": [0.2, 0.01]}))
    tracer = Tracer()
    with tracer:
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / tag)]) == 0
    return tracer


def test_calls_repeat_exactly_across_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("RETROFIT_CTL_THREADS", "2")
    first = _traced_sweep(tmp_path, "a")
    second = _traced_sweep(tmp_path, "b")
    calls = [{name: st.calls for name, st in t.summarize().items()} for t in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["synthesis.hinf_synthesize"] == 2
    # The rows ran on pool threads, not on the sweep's own thread.
    main = [spans for name, spans in first.threads if spans[0].name == "cli.main"]
    assert len(main) == 1
    assert all(s.name != "synthesis.hinf_synthesize" for s in main[0])
    values = layer_metrics(first, 2, 1.0, 1.0)
    assert values["cli.sweep.serial_s"] > 0.0
    assert 0.0 < values["cli.sweep.worker_busy_share"] <= 1.0


def test_span_name_uses_the_defining_module():
    assert span_name(cli.hinf_norm) == "numerics.hinf_norm"
    assert span_name(cli.main) == "cli.main"


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
