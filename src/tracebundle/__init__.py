"""Operator-algebra bundles over finite atom spaces with center-valued traces.

The package models finite direct sums of matrix algebras fibered over a finite
measure space, the center-valued trace and its Lp norms, the trace-preserving
conditional expectation onto fiberwise subalgebras, and martingale convergence
experiments along subalgebra towers.  ``tracebundle.cli`` exposes the
config-driven experiment harness.

In finite dimension every fiber algebra already coincides with each of its Lp
completions as a set; the norms differ, the elements do not.  Sections
therefore serve as elements of the algebra and of every Lp space at once.

Each name loads its module on first use: ``import tracebundle`` imports no submodule.
"""

import importlib

_HOMES = {
    "bundle": "BundleSpec", "center": "MeasureSpace", "runner": "run_experiment",
    "fiber": "FiberElement identity_fiber", "martingale": "Filtration build_filtration",
    "towers": "fiber_level_generators level_generators", "tracelp": "DualityReport derive_seed",
    "condexp": "AxiomReport ConditionalExpectation SubalgebraBasis cond_exp_axiom_checks "
               "validate_subalgebra",
    "config": "ExperimentConfig config_hash parse_config serialize_config",
    "errors": "ConfigError ContractViolationError InconsistencyError ShapeMismatchError "
              "TraceBundleError UnsupportedConfigurationError UsageError",
    "views": "Section center_scale identity_section random_section section_from_records "
             "section_to_records uniform_norm check_cond_exp_axioms HermEig abs_power herm_eig "
             "polar spectral_norm spectral_projection CesaroReport DoubleSequenceReport "
             "MartingaleSeq cesaro_equivalence double_sequence_check martingale_defect "
             "martingale_from_target martingale_limit sup_norm_comparison weighted_averages "
             "center_trace dual_extremal duality_check duality_checks lp_norm lp_norms",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
