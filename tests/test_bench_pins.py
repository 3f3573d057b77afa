"""The benchmark workloads run green and name exactly their pinned checks.

``bench/run.py`` rejects a call whose summary names other checks than its
``WORKLOADS`` entry pins; this runs the same configs through the CLI so a
dropped or renamed check fails here first.  The stacked eigensolver calls of
every workload are pinned too, so a refactor that splits a phase's shared
solves again fails here, and so are the single-block solves of the duality
workload (none), and the subalgebra validations, span extensions, closure
residuals, projections and plane turns of the axiom workload.  Each workload
also runs once through ``bench/child.py`` with tracing on, which wraps the
package's public functions by name, so a rename that breaks
``bench/run.py --trace 1`` fails here.  The bench files are only read.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracebundle import condexp, fiber, tracelp
from tracebundle.cli import EXIT_OK, main
from tracebundle.towers import level_generators
from tracebundle.tracelp import DUALITY_CHUNK

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize(
    "config", sorted((BENCH / "workloads").glob("*.json")), ids=lambda p: p.stem
)
def test_workload_passes_with_its_pinned_checks(config, tmp_path, capsys):
    command, pinned = WORKLOADS[config.stem]
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [c["name"] for c in summary["checks"]] == pinned


def count_calls(real, monkeypatch) -> list:
    """Patch ``real`` wherever a tracebundle module holds it; the list grows by one per call,
    a dict of the arguments passed, by parameter name."""
    calls = []
    signature = inspect.signature(real)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("tracebundle")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counted)
    return calls


def run_workload(workload, tmp_path, capsys):
    command, _ = WORKLOADS[workload]
    config = BENCH / "workloads" / f"{workload}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("workload, least, most", [
    ("duality", 6, 6), ("axioms-large-blocks", 4, 4), ("martingale-tail", 3, 3)])
def test_check_phase_shares_its_stacked_solves(workload, least, most, tmp_path, capsys, monkeypatch):
    # duality: 20 cases with a spectrum (p != 2) of 100 samples, in 4 groups of 500, whose
    # kept samples share one solve per block size (3), plus one solve with singular vectors
    # per block size for the witnesses of all 25 cases; axioms: 4 levels of 30 trials, one
    # group, 4 block sizes, the positivity and Gram stacks of a size solved together; martingale-tail:
    # the L1 norms of the defects and limit reconstructions of both seeds, one solve per
    # block size (1, 2, 3), and none for the p = 2 norms.  The axiom solves are
    # Hermitian, all others one-sided.
    hermitian = count_calls(fiber._jacobi_eigenvalues_stack, monkeypatch)
    one_sided = count_calls(fiber.gram_eigenvalues_stack, monkeypatch)
    run_workload(workload, tmp_path, capsys)
    assert least <= len(hermitian) + len(one_sided) <= most
    assert not (one_sided if workload == "axioms-large-blocks" else hermitian)


def test_duality_phase_makes_no_single_block_solve(tmp_path, capsys, monkeypatch):
    # the norms and witnesses of the checked sections come from the shared stacks, each
    # witness solve (with singular vectors) of the 25 cases' blocks of one size; each case
    # keeps at least one sample per atom, so each sample solve holds at least one lane
    # per case with a spectrum (p != 2): 20
    calls = count_calls(fiber.gram_eigenvalues_stack, monkeypatch)
    run_workload("duality", tmp_path, capsys)
    witnesses = [len(call["y"]) for call in calls if call.get("vectors")]
    samples = [len(call["y"]) for call in calls if not call.get("vectors")]
    assert witnesses and min(witnesses) >= 25
    assert samples and min(samples) >= 20


def test_duality_phase_solves_only_the_samples_that_can_be_worst(tmp_path, capsys, monkeypatch):
    # sample blocks solved per block size, where solving every sample took 2000, 6000 and
    # 2000: the one 1x1 block (atom w4) gives every sample the same ratio
    # |trace(x y)| / ||y||_q, so all of them stay.  The counts depend on the draws
    calls = count_calls(fiber.gram_eigenvalues_stack, monkeypatch)
    run_workload("duality", tmp_path, capsys)
    solved = {}
    for call in calls:
        if not call.get("vectors"):
            solved[call["y"].shape[1]] = solved.get(call["y"].shape[1], 0) + len(call["y"])
    assert solved == {1: 2000, 2: 425, 3: 215}


def test_duality_phase_forms_no_doubled_lanes_or_sums(tmp_path, capsys, monkeypatch):
    # the dual-norm brackets take their flat and spike ends as two calls of one column per
    # block slot, not one Lq norm call on twice a group's lanes; and each of the witnesses'
    # 5 batches (one bundle, 5 exponents) forms its top-scaled sums once, for its norms and
    # its witness both
    norms = count_calls(tracelp.stacked_lp_norms, monkeypatch)
    sums = count_calls(tracelp.top_scaled_sums, monkeypatch)
    witnessed, real = [], tracelp._witnesses

    def counted(cases):
        before = len(sums)
        out = real(cases)
        witnessed.append((len({(bundle, p) for (bundle, _), p in cases}), len(sums) - before))
        return out

    monkeypatch.setattr(tracelp, "_witnesses", counted)
    run_workload("duality", tmp_path, capsys)
    assert norms and max(len(call["ys"][0]) for call in norms) <= DUALITY_CHUNK
    assert witnessed == [(5, 5)]


def test_axiom_phase_validates_each_tower_level_once(tmp_path, capsys, monkeypatch):
    # the 4 tower levels; the axiom checks themselves build no subalgebra
    calls = count_calls(condexp.validate_subalgebra, monkeypatch)
    run_workload("axioms-large-blocks", tmp_path, capsys)
    assert len(calls) == 4


def test_axiom_phase_projects_each_chunk_twice(tmp_path, capsys, monkeypatch, mat2x8_bundle):
    # 4 levels of 30 trials, one chunk each: one projection of x, v* v, a x b and z x together
    # (120 lanes), then one of E(x) (30 lanes); projecting those inputs one by one took 20
    # calls, and with one locality lane group per atom (x at the atom, the pos draw elsewhere)
    # the first took 180 lanes.  Each level's unitality projects the identity (1 lane)
    calls = count_calls(condexp._project, monkeypatch)
    run_workload("axioms-large-blocks", tmp_path, capsys)
    assert sorted(len(call["blocks"][0]) for call in calls) == [1] * 4 + [30] * 4 + [120] * 4
    # 4 lanes per trial at any atom count: 8 atoms took 11 per trial with the per-atom groups
    calls.clear()
    E = condexp.ConditionalExpectation(condexp.validate_subalgebra(
        mat2x8_bundle, level_generators(mat2x8_bundle, "diagonal")))
    condexp.check_cond_exp_axioms(E, 30, 1)
    assert [len(call["blocks"][0]) for call in calls] == [1, 4 * 30, 30]


def test_axiom_phase_turns_each_rotation_step_once(tmp_path, capsys, monkeypatch):
    # a Hermitian Jacobi step turns the columns p and q over all rows (the eigenvector rows
    # too), and takes rows p and q by Hermitian symmetry: one plane turn per step, each step
    # with its own c; turning the rows as well took two.  The workload makes no one-sided
    # solve, so every turn is a Hermitian step's
    calls = count_calls(fiber._plane_turn, monkeypatch)
    run_workload("axioms-large-blocks", tmp_path, capsys)
    assert calls and len({id(call["c"]) for call in calls}) == len(calls)


def test_tower_build_tries_each_candidate_once(tmp_path, capsys, monkeypatch):
    # 221 span extensions and 12 closure residuals before duplicate candidates were
    # skipped and full spans closed by dimension, 151 and 9 before each level went on
    # from the validated level below, 84 and 9 before candidates equal but for the sign
    # of a zero ((e_ij)* and e_ji) counted as one
    extend, tries = condexp._FiberProjector.try_extend, []

    def counted(proj, f):
        tries.append(f)
        return extend(proj, f)

    monkeypatch.setattr(condexp._FiberProjector, "try_extend", counted)
    closures = count_calls(condexp._closure_residual, monkeypatch)
    run_workload("axioms-large-blocks", tmp_path, capsys)
    assert (len(tries), len(closures)) == (57, 9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_bench_call_runs(workload, tmp_path):
    # the tracer patches its functions by name: a missing one fails the call
    command, _ = WORKLOADS[workload]
    spans = tmp_path / "spans.csv"
    argv = [sys.executable, "-B", str(BENCH / "child.py"), "call", str(BENCH.parent),
            str(BENCH / "workloads" / f"{workload}.json"), command, "1", str(tmp_path / "out"),
            str(spans)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit_code"] == 0
    assert "counts" in result and spans.stat().st_size > 0
