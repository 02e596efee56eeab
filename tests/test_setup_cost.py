"""Import cost of the library, which every process start pays.

Importing ``retrofit_control`` loads ``scipy.linalg`` and no other scipy
subpackage.  On a 2-core host with OpenBLAS, importing ``scipy.optimize``
on top of the library took another 0.29-0.33 s, so a new scipy import
would show up as a slower start of every run.
"""

import json
import subprocess
import sys

# Public scipy subpackages (those with a __path__) loaded after the import.
_PROBE = (
    "import json, sys, retrofit_control\n"
    "loaded = {name.split('.')[1] for name, mod in list(sys.modules.items())\n"
    "          if name.startswith('scipy.') and hasattr(mod, '__path__')}\n"
    "print(json.dumps(sorted(p for p in loaded if not p.startswith('_'))))\n"
)


def test_scipy_linalg_is_the_only_scipy_subpackage_loaded():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["linalg"]
