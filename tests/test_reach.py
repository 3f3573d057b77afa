"""What a CLI call runs: views call the referee, never the reverse.

Every subcommand runs under ``sys.setprofile``: ``run`` on both fixtures, the three
``bench/workloads`` configs and one config with an explicit generator that is not closed
under products, each other subcommand once, one usage error and one config error.  The
referee works on block stacks, so no call builds a ``Section``.  The
functions that no call reaches are exactly ``UNREACHED``, each with the reason it stays:
``bench/child.py`` wraps or imports it, the README describes it, the acceptance suite calls
it, it is a view of the library, or it forwards a name (PEP 562).  A function that the CLI
stops reaching, or a new function that it never reaches, fails
``test_the_unreached_functions_are_the_allowlist`` until it is deleted, moved to
``tests/oracles.py`` or listed here.  No CLI call imports ``views``, so a top-level function
or class that no call reaches belongs there: outside it, only methods of a class that a call
uses and the modules' ``__getattr__`` may go unreached.

Run as a script, it prints the count of never-called functions and of their lines, and of
those that a CLI call compiles (the ones outside ``views.py``)::

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

NO_VIEW = ("views.Section.__init__", "views.Section._raw")

CHILD, README, ACCEPTANCE, VIEW = "bench/child.py", "README", "acceptance", "library view"
FORWARD = "PEP 562: the module's old names, now defined in views"
UNREACHED = {
    "__init__.__getattr__": "PEP 562: the package's names, each module loaded on first use",
    "bundle.BundleSpec.__eq__": f"{VIEW}: bundles compare by value",
    "bundle.BundleSpec.restrict": f"{ACCEPTANCE}: criterion 4 restricts to one atom",
    "bundle.BundleSpec.shape_at": f"{README}: section_from_records",
    "bundle.__getattr__": FORWARD,
    "center.MeasureSpace.__eq__": f"{VIEW}: spaces compare by value",
    "center.MeasureSpace.index_of": f"{ACCEPTANCE}: Section.fiber and restrict",
    "condexp.AxiomReport.worst": f"{ACCEPTANCE}: criterion 3",
    "condexp.ConditionalExpectation.__call__": f"{CHILD}; {README} example",
    "condexp.ConditionalExpectation.apply_fiber": f"{VIEW}: E at one atom",
    "condexp.SubalgebraBasis.closure_residual": f"{README}: a level's closure residual",
    "condexp.__getattr__": FORWARD,
    "config.ExperimentConfig.__eq__": f"{VIEW}: configs compare by value",
    "fiber.FiberElement.__add__": f"{VIEW}: fiber arithmetic",
    "fiber.FiberElement.__rmul__": f"{VIEW}: fiber arithmetic",
    "fiber.FiberElement.__sub__": f"{VIEW}: fiber arithmetic",
    "fiber.__getattr__": FORWARD,
    "martingale.Filtration.restrict": README,
    "martingale.__getattr__": FORWARD,
    "runner.__getattr__": FORWARD,
    "tracelp.__getattr__": FORWARD,
    "views.CesaroReport.__init__": f"{CHILD}: cesaro_equivalence",
    "views.DoubleSequenceReport.__init__": f"{ACCEPTANCE}: criterion 6",
    "views.HermEig.__init__": f"{CHILD}: herm_eig",
    "views.HermEig.apply": f"{README}: functional calculus",
    "views.HermEig.projection": f"{README}: spectral_projection",
    "views.HermEig.projection.<locals>.indicator": f"{README}: spectral_projection",
    "views.MartingaleLimit.__init__": f"{CHILD}: martingale_limit",
    "views.MartingaleSeq.__init__": f"{README} example: martingale_from_target",
    "views.MartingaleSeq.__len__": f"{VIEW}: the length of a martingale",
    "views.Section.__add__": CHILD,
    "views.Section.__init__": f"{README}: section_from_records checks its fibers",
    "views.Section.__mul__": CHILD,
    "views.Section.__rmul__": CHILD,
    "views.Section.__sub__": CHILD,
    "views.Section._raw": f"{VIEW}: every section the library returns",
    "views.Section._require_same_bundle": f"{CHILD}: section arithmetic",
    "views.Section.adjoint": f"{VIEW}: the involution",
    "views.Section.fiber": f"{ACCEPTANCE}: criterion 4 evaluates at an atom",
    "views.Section.max_abs": f"{VIEW}: the largest entry",
    "views.Section.restrict": f"{ACCEPTANCE}: criterion 4 restricts to one atom",
    "views._limit": f"{CHILD}: martingale_limit and cesaro_equivalence",
    "views._one_sequence": f"{CHILD}: the one-sequence martingale calls",
    "views._singular_eig": f"{CHILD}: polar",
    "views._solve_blocks": f"{CHILD}: herm_eig, gram_eigenvalues and polar",
    "views._sup": f"{CHILD}: sup_norm_comparison and cesaro_equivalence",
    "views._target": f"{VIEW}: a section as block stacks",
    "views.abs_power": README,
    "views.center_scale": f"{VIEW}: the module action of the center",
    "views.center_trace": CHILD,
    "views.cesaro_equivalence": CHILD,
    "views.check_cond_exp_axioms": f"{CHILD}; {ACCEPTANCE}: criterion 3",
    "views.double_sequence_check": f"{ACCEPTANCE}: criterion 6",
    "views.dual_extremal": f"{ACCEPTANCE}: criterion 2",
    "views.duality_check": CHILD,
    "views.duality_checks": f"{ACCEPTANCE}: criterion 2",
    "views.gram_eigenvalues": f"{CHILD}; {README}",
    "views.herm_eig": f"{CHILD}; {README}",
    "views.identity_section": f"{VIEW}: the unit",
    "views.lane_section": f"{VIEW}: one lane of block stacks as a section",
    "views.lp_norm": CHILD,
    "views.lp_norms": f"{README} example",
    "views.martingale_defect": CHILD,
    "views.martingale_from_target": f"{README} example",
    "views.martingale_limit": CHILD,
    "views.polar": f"{CHILD}; {README}",
    "views.random_section": f"{CHILD}; {README} example",
    "views.read_section_csv": f"{README}: a section file read back",
    "views.section_from_records": f"{README}: a section file read back",
    "views.section_stacks": f"{VIEW}: sections as block stacks",
    "views.section_to_records": f"{README}: the section record format",
    "views.spectral_norm": f"{ACCEPTANCE}: criterion 1",
    "views.spectral_projection": README,
    "views.sup_norm_comparison": CHILD,
    "views.uniform_norm": f"{VIEW}: the C*-norm",
    "views.weighted_averages": f"{VIEW}: the running means of a martingale",
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


def compiled(never: dict) -> dict:
    """The functions of ``never`` that a CLI call compiles: those outside ``views.py``."""
    return {name: where for name, where in never.items() if not name.startswith("views.")}


def test_what_no_cli_call_reaches_is_defined_in_views(never):
    # a class that a call uses is one with a method that a call runs
    used = {name.rsplit(".", 1)[0] for name in set(defined_functions()) - set(never)}
    misplaced = [name for name in compiled(never) if "<locals>" not in name and (
        name.rsplit(".", 1)[0] not in used if name.count(".") > 1
        else not name.endswith(".__getattr__"))]
    assert not misplaced, f"move to views.py: {misplaced}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        never = unreached(tmp)
    for what, functions in (("never called by a CLI call", never),
                            ("compiled but never called by a CLI call", compiled(never))):
        lines = {(path, line) for path, first, last in functions.values()
                 for line in range(first, last + 1)}
        print(f"{len(functions)} functions, {len(lines)} lines of {PACKAGE.name}/ {what}")
