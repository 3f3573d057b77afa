"""Operator-algebra bundles over finite atom spaces with center-valued traces.

The package models finite direct sums of matrix algebras fibered over a finite
measure space, the center-valued trace and its Lp norms, the trace-preserving
conditional expectation onto fiberwise subalgebras, and martingale convergence
experiments along subalgebra towers.  ``tracebundle.cli`` exposes the
config-driven experiment harness.

In finite dimension every fiber algebra already coincides with each of its Lp
completions as a set; the norms differ, the elements do not.  Sections
therefore serve as elements of the algebra and of every Lp space at once.
"""

from .bundle import (
    BundleSpec,
    Section,
    center_scale,
    identity_section,
    random_section,
    section_from_records,
    section_to_records,
    uniform_norm,
)
from .center import MeasureSpace
from .condexp import (
    AxiomReport,
    ConditionalExpectation,
    SubalgebraBasis,
    check_cond_exp_axioms,
    cond_exp_axiom_checks,
    validate_subalgebra,
)
from .config import ExperimentConfig, config_hash, parse_config, serialize_config
from .errors import (
    ConfigError,
    ContractViolationError,
    InconsistencyError,
    ShapeMismatchError,
    TraceBundleError,
    UnsupportedConfigurationError,
    UsageError,
)
from .fiber import (
    FiberElement,
    HermEig,
    abs_power,
    herm_eig,
    identity_fiber,
    polar,
    spectral_norm,
    spectral_projection,
)
from .martingale import (
    CesaroReport,
    DoubleSequenceReport,
    Filtration,
    MartingaleSeq,
    build_filtration,
    cesaro_equivalence,
    double_sequence_check,
    martingale_defect,
    martingale_from_target,
    martingale_limit,
    sup_norm_comparison,
    weighted_averages,
)
from .runner import run_experiment
from .towers import fiber_level_generators, level_generators
from .tracelp import (
    DualityReport,
    center_trace,
    derive_seed,
    dual_extremal,
    duality_check,
    duality_checks,
    lp_norm,
    lp_norms,
)

__version__ = "0.1.0"
