"""Fixtures shared by the test modules."""

import pytest

from retrofit_control import hinf_synthesize, new_subsystem
from retrofit_control.cli import DEFAULT_CONFIG, _apx_for, _environment_setup


@pytest.fixture(scope="module")
def preset_design():
    """``(G, env, apx, module)`` of the preset sweep at k_c 10, n_apx 8, alpha 0.2.

    Built through the sweep's own set-up.  The module's entries reach about
    1e4, against plant entries of order 1: the regime where a certificate
    scaled by the whole loop's largest entry misses a plant-sized defect.
    """
    G, env, _ = _environment_setup(DEFAULT_CONFIG, 10)
    apx = _apx_for(env, 8)
    module, _ = hinf_synthesize(new_subsystem(G, apx), 0.2)
    return G, env, apx, module
