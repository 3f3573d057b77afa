"""Every old name of the library still reaches its object.

The element-at-a-time views live in ``tracebundle/views.py``, which no CLI call imports; the
package and each module that held a view before answer its name lazily (PEP 562).  Through
the package, through the old module and through ``views``, a name is one object, so a test
or ``bench/child.py`` that wraps it sees every call.  Patching such a name through the
package or the old module only adds an attribute that no code reads, so no test does.
"""

import ast
import importlib
from pathlib import Path

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


# the names that the package and each old module only forward, by module
FORWARDED = {f"tracebundle.{module}": set(names.split()) for module, names in MOVED.items()}
FORWARDED["tracebundle"] = {name for _, name in pairs(EXPORTED)}


def forwarded_patches(source: str) -> list:
    """``(line, "module.name")`` of every ``<x>.setattr`` call in ``source`` that patches a name
    of ``FORWARDED`` through its forwarding module, by the module names that ``source`` imports."""
    tree = ast.parse(source)
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            local.update({a.asname or a.name.split(".")[0]: a.name if a.asname else
                          a.name.split(".")[0] for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            local.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})

    def dotted(node):
        if isinstance(node, ast.Name):
            return local.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr" and node.args):
            continue
        target, *rest = node.args
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            module, _, name = target.value.rpartition(".")
        elif rest and isinstance(rest[0], ast.Constant) and isinstance(rest[0].value, str):
            module, name = dotted(target), rest[0].value
        else:
            continue
        if name in FORWARDED.get(module, ()):
            found.append((node.lineno, f"{module}.{name}"))
    return sorted(found)


def test_a_patch_of_a_forwarded_name_is_found():
    source = """import tracebundle
from tracebundle import fiber as old


def test_it(monkeypatch):
    monkeypatch.setattr(tracebundle.fiber, "herm_eig", None)
    monkeypatch.setattr(old, "polar", None)
    monkeypatch.setattr("tracebundle.bundle.random_section", None)
    monkeypatch.setattr(tracebundle, "lp_norm", None)
    monkeypatch.setattr(old, "FiberElement", None)
    monkeypatch.setattr(tracebundle.views, "herm_eig", None)
"""
    assert forwarded_patches(source) == [
        (6, "tracebundle.fiber.herm_eig"), (7, "tracebundle.fiber.polar"),
        (8, "tracebundle.bundle.random_section"), (9, "tracebundle.lp_norm")]


def test_no_test_patches_a_forwarded_name():
    # such a patch succeeds and changes nothing: patched through tracebundle.fiber, herm_eig
    # was never called by random_section, which reads views.herm_eig
    tests = Path(__file__).resolve().parent
    found = [f"{path.name}:{line}: {name}" for path in sorted(tests.glob("*.py"))
             for line, name in forwarded_patches(path.read_text(encoding="utf-8"))]
    assert found == []
