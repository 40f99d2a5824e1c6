"""Entropy of large dense graphs under edge and motif density constraints.

Core objects: step-function graphons, homomorphism densities, the rate
function, a constrained entropy maximizer with closed-form cross-checks, the
exponential-family free energy, an exact small-graph census oracle, and the
phase-diagram drivers tying them together.
"""

from .census import CensusTable, compare_to_variational, empirical_entropy, enumerate_census
from .ergm import (
    ConvexityReport,
    ErgmParams,
    FreeEnergyResult,
    convexity_report,
    find_transition,
    psi_constant,
    psi_full,
    transition_curve,
    verify_t_le_e_cubed,
)
from .errors import (
    GraphEntropyError,
    Infeasible,
    NoTransitionFound,
    TooLarge,
)
from .graphon import (
    DensityPair,
    Graphon,
    Motif,
    bipodal_graphon,
    constant_graphon,
    edge_density,
    graphon_distance,
    motif_density,
    motif_gradient,
    rate_function,
    rate_value,
    read_graphon,
    resample,
    write_graphon,
)
from .optimize import (
    BipodalSolution,
    EntropyResult,
    OptimConfig,
    closed_form_half,
    closed_form_upper,
    el_residual,
    estimate_multipliers,
    f_minus,
    maximize_entropy,
)
from .phase import (
    CreaseScanResult,
    ScanSpec,
    crease_report,
    crease_scan,
    phase_diagram_scan,
    render_svg,
)
from .region import (
    RegionClass,
    classify,
    er_curve,
    lower_boundary,
    lower_envelope,
    upper_boundary,
)
from .spectral import (
    SpectralReport,
    delta_t_decomposition,
    kernel_operator_spectrum,
    trace_power,
    verify_trace_inequality,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
