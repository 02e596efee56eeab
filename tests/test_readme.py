"""The README's quick-start block runs against the current API.

The block is read from ``README.md`` and executed as written, so an API
change that leaves the README stale fails here.
"""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    ns = {}
    exec(compile(_quick_start(), "README.md quick start", "exec"), ns)
    G, K, report = ns["G"], ns["K"], ns["report"]
    n_meas = G.C.shape[0] + G.Gamma.shape[0] + G.L.shape[1]
    assert (K.n_inputs, K.n_outputs) == (n_meas, G.B.shape[1])
    assert report.stable
    assert report.lower - 1e-9 <= report.gamma_actual <= report.upper + 1e-9
    printed = capsys.readouterr().out.split()
    assert printed[0] == "True" and np.isfinite(float(printed[2]))
