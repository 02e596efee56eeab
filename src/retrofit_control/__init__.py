"""Retrofit controller design with approximate environment modeling.

A numpy/scipy toolkit for linear network systems split into a locally
managed subsystem and an unknown environment.  It builds extended output
rectifiers around approximate environment models, composes verified module
controllers into retrofit controllers with a closed-loop stability
guarantee for every admissible environment, and quantifies the achieved
disturbance attenuation through upstream/downstream performance bounds.
"""

from .lti import (
    StateSpace,
    add,
    close_loop,
    freq_response,
    minreal,
    negate,
    select,
    series,
    simulate,
)
from .numerics import (
    NumericsError,
    expm,
    hinf_norm,
    solve_care,
    solve_lyapunov,
    solve_riccati,
    spectral_abscissa,
)
from .oscnet import (
    ChannelAssignment,
    NetworkSpec,
    build_network,
    paper_benchmark,
    partition,
)
from .reduction import BalancedReduction, balanced_truncate, gramians, modeling_error
from .retrofit import (
    PartitionedPlant,
    PerformanceReport,
    STABILITY_TOL,
    assemble_preexisting,
    cascade_realization,
    check_admissible,
    closed_loop_direct,
    compose_retrofit,
    deflated_abscissa,
    direct_controller,
    extended_rectifier,
    invariance_residual,
    kernel_residual,
    new_subsystem,
    performance_bounds,
)
from .synthesis import SynthesisError, hinf_synthesize, lqg_module

__version__ = "0.1.0"
