"""Every old name of the library still reaches its object.

The element-at-a-time views live in ``tracebundle/views.py``, which no CLI call imports; the
package and each module that held a view before answer its name lazily (PEP 562).  Through
the package, through the old module and through ``views``, a name is one object, so a test
or ``bench/child.py`` that wraps it sees every call.
"""

import importlib

import pytest

import tracebundle
from tracebundle import views

# every name that tracebundle/__init__.py imported eagerly, by the module it came from
EXPORTED = {
    "bundle": "BundleSpec Section center_scale identity_section random_section "
              "section_from_records section_to_records uniform_norm",
    "center": "MeasureSpace",
    "condexp": "AxiomReport ConditionalExpectation SubalgebraBasis check_cond_exp_axioms "
               "cond_exp_axiom_checks validate_subalgebra",
    "config": "ExperimentConfig config_hash parse_config serialize_config",
    "errors": "ConfigError ContractViolationError InconsistencyError ShapeMismatchError "
              "TraceBundleError UnsupportedConfigurationError UsageError",
    "fiber": "FiberElement HermEig abs_power herm_eig identity_fiber polar spectral_norm "
             "spectral_projection",
    "martingale": "CesaroReport DoubleSequenceReport Filtration MartingaleSeq build_filtration "
                  "cesaro_equivalence double_sequence_check martingale_defect "
                  "martingale_from_target martingale_limit sup_norm_comparison weighted_averages",
    "runner": "run_experiment",
    "towers": "fiber_level_generators level_generators",
    "tracelp": "DualityReport center_trace derive_seed dual_extremal duality_check duality_checks "
               "lp_norm lp_norms",
}

# every top-level name that moved into views.py, by the module that defined it
MOVED = {
    "bundle": "Section center_scale identity_section lane_section random_section "
              "section_from_records section_to_records uniform_norm",
    "condexp": "check_cond_exp_axioms",
    "fiber": "HermEig _singular_eig _solve_blocks abs_power gram_eigenvalues herm_eig polar "
             "spectral_norm spectral_projection",
    "martingale": "CesaroReport DoubleSequenceReport MartingaleLimit MartingaleSeq _limit "
                  "_one_sequence _sup cesaro_equivalence double_sequence_check martingale_defect "
                  "martingale_from_target martingale_limit sup_norm_comparison weighted_averages",
    "runner": "read_section_csv",
    "tracelp": "_target center_trace dual_extremal duality_check duality_checks lp_norm lp_norms "
               "section_stacks",
}

# every module attribute that bench/child.py wraps or imports, and the methods it wraps
WRAPPED = [
    "fiber.herm_eig", "fiber.gram_eigenvalues", "fiber.polar", "fiber.FiberElement",
    "bundle.random_section", "bundle.Section.__add__", "bundle.Section.__sub__",
    "bundle.Section.__mul__", "bundle.Section.__rmul__", "tracelp.lp_norm",
    "tracelp.center_trace", "tracelp.duality_check", "condexp.validate_subalgebra",
    "condexp.ConditionalExpectation.__call__", "condexp.check_cond_exp_axioms",
    "martingale.build_filtration", "martingale.martingale_defect", "martingale.martingale_limit",
    "martingale.sup_norm_comparison", "martingale.cesaro_equivalence", "runner.build_tower",
    "runner.run_trace_checks", "runner.run_condexp_checks", "runner.run_duality_checks",
    "runner.run_martingale_checks", "runner.write_json", "runner.write_trace_csv",
    "runner.write_section_csv", "runner.run_experiment", "config.parse_config", "cli.main",
]


def pairs(table):
    return [(module, name) for module, names in table.items() for name in names.split()]


def resolve(dotted):
    module, *path = dotted.split(".")
    value = importlib.import_module(f"tracebundle.{module}")
    for attr in path:
        value = getattr(value, attr)
    return value


@pytest.mark.parametrize("module, name", pairs(EXPORTED))
def test_an_exported_name_is_one_object_through_the_package_and_its_module(module, name):
    assert getattr(tracebundle, name) is resolve(f"{module}.{name}")


@pytest.mark.parametrize("module, name", pairs(MOVED))
def test_a_moved_name_is_defined_in_views_and_kept_by_its_module(module, name):
    value = getattr(views, name)
    assert value.__module__ == "tracebundle.views"
    assert resolve(f"{module}.{name}") is value


@pytest.mark.parametrize("dotted", WRAPPED)
def test_a_name_the_bench_wraps_resolves_to_its_definition(dotted):
    module, name = dotted.split(".", 1)
    value = resolve(dotted)
    assert callable(value)
    if name.split(".")[0] in MOVED.get(module, "").split():
        assert resolve(f"views.{name}") is value


@pytest.mark.parametrize("owner", ["tracebundle", *(f"tracebundle.{m}" for m in MOVED)])
def test_an_unknown_name_is_still_an_attribute_error(owner):
    with pytest.raises(AttributeError, match=f"module '{owner}' has no attribute 'bogus'"):
        getattr(importlib.import_module(owner), "bogus")
