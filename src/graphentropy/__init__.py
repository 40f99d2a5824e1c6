"""Entropy of large dense graphs under edge and motif density constraints.

Core objects: step-function graphons, homomorphism densities, the rate
function, a constrained entropy maximizer with closed-form cross-checks, the
exponential-family free energy, an exact small-graph census oracle, and the
phase-diagram drivers tying them together.

`import graphentropy` loads no submodule and no numpy: each public name is
imported from its module on first access, so a process pays only for the
modules it uses.
"""

import importlib

__version__ = "1.0.0"

# each submodule and the public names it exports
_EXPORTS = {
    "census": ("CensusTable", "compare_to_variational", "empirical_entropy",
               "enumerate_census"),
    "ergm": ("ErgmParams", "FreeEnergyResult", "find_transition", "psi_constant", "psi_full",
             "transition_curve", "verify_t_le_e_cubed"),
    "errors": ("GraphEntropyError", "Infeasible", "NoTransitionFound", "TooLarge"),
    "graphon": ("Graphon", "bipodal_graphon", "constant_graphon", "edge_density",
                "graphon_distance", "motif_density", "motif_gradient", "rate_function",
                "rate_value", "read_graphon", "resample", "write_graphon"),
    "optimize": ("BipodalSolution", "ConvexityReport", "EntropyResult", "closed_form_half",
                 "closed_form_upper", "convexity_report", "el_residual",
                 "estimate_multipliers", "f_minus", "maximize_entropy"),
    "phase": ("CreaseScanResult", "ScanSpec", "crease_report", "crease_scan",
              "phase_diagram_scan", "render_svg"),
    "problem": ("DensityPair", "Motif", "OptimConfig"),
    "region": ("RegionClass", "classify", "er_curve", "lower_boundary", "lower_envelope",
               "upper_boundary"),
    "spectral": ("SpectralReport", "delta_t_decomposition", "kernel_operator_spectrum",
                 "trace_power", "verify_trace_inequality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
