"""What a CLI call runs: views call the referee, never the reverse.

Every subcommand runs under ``sys.setprofile``: ``run`` on both fixtures, the three
``bench/workloads`` configs and one config with an explicit generator that is not closed
under products, each other subcommand once, one usage error and one config error.  The
referee works on block stacks, so no call builds a ``Section``.  The
functions that no call reaches are exactly ``UNREACHED``, each with the reason it stays:
``bench/child.py`` wraps or imports it, the README describes it, the acceptance suite calls
it, or it is a view of the library.  A function that the CLI stops reaching, or a new
function that it never reaches, fails ``test_the_unreached_functions_are_the_allowlist``
until it is deleted, moved to ``tests/oracles.py`` or listed here.

Run as a script, it prints the count of never-called functions and of their lines::

    PYTHONPATH=src python tests/test_reach.py
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import tracebundle
from tracebundle.cli import main
from tracebundle.fixtures import FIXTURES, fixture_text

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
PACKAGE = Path(tracebundle.__file__).resolve().parent

# a Mat2 shift and its adjoint generate all of Mat2 only through their products
EXPLICIT = {
    "experiment_id": "explicit_shift", "seed": 1, "exponents": [1, 2],
    "bundle": {"atoms": ["a", "b"], "mu": [1.0, 1.0], "fiber_shapes": [[2], [2, 1]],
               "trace_weights": [[1.0], [1.0, 2.0]]},
    "trials": {"trace_sections": 3, "axioms": 3, "duality_sections": 1, "duality_samples": 5,
               "martingale_seeds": 1},
    "tower": ["scalars", {"explicit": {"a": [[[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]]}}, "full"],
}

NO_VIEW = ("bundle.Section.__init__", "bundle.Section._raw")

CHILD, README, ACCEPTANCE, VIEW = "bench/child.py", "README", "acceptance", "library view"
UNREACHED = {
    "bundle.BundleSpec.__eq__": f"{VIEW}: bundles compare by value",
    "bundle.BundleSpec.restrict": f"{ACCEPTANCE}: criterion 4 restricts to one atom",
    "bundle.BundleSpec.shape_at": f"{README}: section_from_records",
    "bundle.Section.__add__": CHILD,
    "bundle.Section.__init__": f"{README}: section_from_records checks its fibers",
    "bundle.Section.__mul__": CHILD,
    "bundle.Section.__rmul__": CHILD,
    "bundle.Section.__sub__": CHILD,
    "bundle.Section._raw": f"{VIEW}: every section the library returns",
    "bundle.Section._require_same_bundle": f"{CHILD}: section arithmetic",
    "bundle.Section.adjoint": f"{VIEW}: the involution",
    "bundle.Section.fiber": f"{ACCEPTANCE}: criterion 4 evaluates at an atom",
    "bundle.Section.max_abs": f"{VIEW}: the largest entry",
    "bundle.Section.restrict": f"{ACCEPTANCE}: criterion 4 restricts to one atom",
    "bundle.center_scale": f"{VIEW}: the module action of the center",
    "bundle.identity_section": f"{VIEW}: the unit",
    "bundle.lane_section": f"{VIEW}: one lane of block stacks as a section",
    "bundle.random_section": f"{CHILD}; {README} example",
    "bundle.section_from_records": f"{README}: a section file read back",
    "bundle.section_to_records": f"{README}: the section record format",
    "bundle.uniform_norm": f"{VIEW}: the C*-norm",
    "center.MeasureSpace.__eq__": f"{VIEW}: spaces compare by value",
    "center.MeasureSpace.index_of": f"{ACCEPTANCE}: Section.fiber and restrict",
    "condexp.AxiomReport.worst": f"{ACCEPTANCE}: criterion 3",
    "condexp.ConditionalExpectation.__call__": f"{CHILD}; {README} example",
    "condexp.ConditionalExpectation.apply_fiber": f"{VIEW}: E at one atom",
    "condexp.SubalgebraBasis.closure_residual": f"{README}: a level's closure residual",
    "condexp.check_cond_exp_axioms": f"{CHILD}; {ACCEPTANCE}: criterion 3",
    "config.ExperimentConfig.__eq__": f"{VIEW}: configs compare by value",
    "fiber.FiberElement.__add__": f"{VIEW}: fiber arithmetic",
    "fiber.FiberElement.__rmul__": f"{VIEW}: fiber arithmetic",
    "fiber.FiberElement.__sub__": f"{VIEW}: fiber arithmetic",
    "fiber.HermEig.__init__": f"{CHILD}: herm_eig",
    "fiber.HermEig.apply": f"{README}: functional calculus",
    "fiber.HermEig.projection": f"{README}: spectral_projection",
    "fiber.HermEig.projection.<locals>.indicator": f"{README}: spectral_projection",
    "fiber._singular_eig": f"{CHILD}: polar",
    "fiber._solve_blocks": f"{CHILD}: herm_eig, gram_eigenvalues and polar",
    "fiber.abs_power": README,
    "fiber.gram_eigenvalues": f"{CHILD}; {README}",
    "fiber.herm_eig": f"{CHILD}; {README}",
    "fiber.polar": f"{CHILD}; {README}",
    "fiber.spectral_norm": f"{ACCEPTANCE}: criterion 1",
    "fiber.spectral_projection": README,
    "martingale.CesaroReport.__init__": f"{CHILD}: cesaro_equivalence",
    "martingale.DoubleSequenceReport.__init__": f"{ACCEPTANCE}: criterion 6",
    "martingale.Filtration.restrict": README,
    "martingale.MartingaleLimit.__init__": f"{CHILD}: martingale_limit",
    "martingale.MartingaleSeq.__init__": f"{README} example: martingale_from_target",
    "martingale.MartingaleSeq.__len__": f"{VIEW}: the length of a martingale",
    "martingale._limit": f"{CHILD}: martingale_limit and cesaro_equivalence",
    "martingale._one_sequence": f"{CHILD}: the one-sequence martingale calls",
    "martingale._sup": f"{CHILD}: sup_norm_comparison and cesaro_equivalence",
    "martingale.cesaro_equivalence": CHILD,
    "martingale.double_sequence_check": f"{ACCEPTANCE}: criterion 6",
    "martingale.martingale_defect": CHILD,
    "martingale.martingale_from_target": f"{README} example",
    "martingale.martingale_limit": CHILD,
    "martingale.sup_norm_comparison": CHILD,
    "martingale.weighted_averages": f"{VIEW}: the running means of a martingale",
    "runner.read_section_csv": f"{README}: a section file read back",
    "tracelp._target": f"{VIEW}: a section as block stacks",
    "tracelp.center_trace": CHILD,
    "tracelp.dual_extremal": f"{ACCEPTANCE}: criterion 2",
    "tracelp.duality_check": CHILD,
    "tracelp.duality_checks": f"{ACCEPTANCE}: criterion 2",
    "tracelp.lp_norm": CHILD,
    "tracelp.lp_norms": f"{README} example",
    "tracelp.section_stacks": f"{VIEW}: sections as block stacks",
}


def defined_functions() -> dict:
    """``module.qualname`` -> ``(path, first line, last line)`` of every function of the package,
    nested ones too; the first line is that of its first decorator, as in its code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[name] = (str(path), first, child.end_lineno)
                walk(child, path, name + ".<locals>.")
            else:
                walk(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                     else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def cli_calls(out_dir: str) -> list:
    """The argument lists of the calls, with their config files written into ``out_dir``."""
    def config(name, text):
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    configs = [config(name, fixture_text(name)) for name in sorted(FIXTURES)]
    configs += [str(path) for path in sorted(WORKLOADS.glob("*.json"))]
    configs.append(config("explicit", json.dumps(EXPLICIT)))
    calls = [["run", "--config", path] for path in configs]
    calls += [[command, "--config", configs[0]]
              for command in ("check-axioms", "check-duality", "run-martingale")]
    calls += [["emit-fixtures"], ["run", "--config", configs[0], "--bogus", "1"],
              ["run", "--config", config("bad", "{}")]]
    return [call + ["--out", os.path.join(out_dir, f"out{k}")] for k, call in enumerate(calls)]


def called_functions(out_dir: str) -> set:
    """``(path, first line)`` of every package function that the CLI calls run."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    calls = cli_calls(out_dir)
    quiet = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            for argv in calls:
                try:
                    main(argv)
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(path), line) for path, line in seen}


def unreached(out_dir: str) -> dict:
    """The functions of ``defined_functions`` that no CLI call runs."""
    seen = called_functions(out_dir)
    return {name: where for name, where in defined_functions().items() if where[:2] not in seen}


@pytest.fixture(scope="module")
def never(tmp_path_factory):
    return unreached(str(tmp_path_factory.mktemp("reach")))


def test_no_cli_call_builds_a_section_or_a_center_element(never):
    assert set(NO_VIEW) <= set(never)


def test_the_unreached_functions_are_the_allowlist(never):
    assert set(never) == set(UNREACHED), (
        f"reached now: {sorted(set(UNREACHED) - set(never))}; "
        f"never reached and not listed: {sorted(set(never) - set(UNREACHED))}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        never = unreached(tmp)
    lines = {(path, line) for path, first, last in never.values()
             for line in range(first, last + 1)}
    print(f"{len(never)} functions, {len(lines)} lines of {PACKAGE.name}/ never called by a CLI call")
