import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracebundle.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from tracebundle import cli, condexp, runner, tracelp, views
from tracebundle.bundle import section_to_records
from tracebundle.errors import ContractViolationError, ShapeMismatchError, UsageError
from tracebundle.config import parse_config
from tracebundle.fixtures import fixture_config, fixture_text
from tracebundle.runner import read_section_csv, run_experiment

from oracles import trace_phase_reference

BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mat2_tower.json"
    path.write_text(fixture_text("mat2_tower"))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_passes_and_writes_artifacts(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "[pass]" in printed and "[FAIL]" not in printed
    summary = json.loads(read(out / "summary.json"))
    assert set(summary) == {"experiment_id", "seed", "config_hash", "checks"}
    assert summary["experiment_id"] == "mat2_tower"
    names = [c["name"] for c in summary["checks"]]
    assert "trace/traciality" in names
    assert "condexp/idempotence" in names
    assert "duality/p=1/violation" in names
    assert "martingale/cesaro_both" in names
    for check in summary["checks"]:
        assert set(check) == {"name", "worst_residual", "tolerance", "pass"}
    header = read(out / "traces.csv").decode().splitlines()[0]
    assert header == "experiment_id,n,omega,residual_xp,residual_sigma"


def test_byte_identical_reruns(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config_path, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", config_path, "--out", str(out2)]) == EXIT_OK
    for name in ("summary.json", "traces.csv", "axioms.json", "duality.json", "limit_section.csv"):
        assert read(out1 / name) == read(out2 / name), name


def test_seed_override_changes_artifacts(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", config_path, "--out", str(out1)])
    main(["run", "--config", config_path, "--out", str(out2), "--seed-override", "5"])
    s1 = json.loads(read(out1 / "summary.json"))
    s2 = json.loads(read(out2 / "summary.json"))
    assert s2["seed"] == 5
    assert s1["config_hash"] != s2["config_hash"]


def test_subcommands_write_their_reports(config_path, tmp_path):
    out = tmp_path / "ax"
    assert main(["check-axioms", "--config", config_path, "--out", str(out)]) == EXIT_OK
    axioms = json.loads(read(out / "axioms.json"))
    assert len(axioms["levels"]) == 3
    assert not os.path.exists(out / "duality.json")

    out = tmp_path / "du"
    assert main(["check-duality", "--config", config_path, "--out", str(out)]) == EXIT_OK
    duality = json.loads(read(out / "duality.json"))
    assert {rep["p"] for rep in duality["reports"]} == {1.0, 2.0}

    out = tmp_path / "ma"
    assert main(["run-martingale", "--config", config_path, "--out", str(out)]) == EXIT_OK
    summary = json.loads(read(out / "summary.json"))
    names = [c["name"] for c in summary["checks"]]
    assert names and all(n.startswith("martingale/") for n in names)
    assert (out / "traces.csv").exists()


# sha256 of run-martingale's artifacts, recorded before the held tail became array
# operations: any change to the bits of the tail or of the limit fails here
MARTINGALE_DIGESTS = {
    "mat2_tower": {
        "traces.csv": "6ec98de5c998cb5de73fb93d56e6789df37836301bf79a0df73385178818258f",
        "limit_section.csv": "0db909e7df354c156d5073e18238024440c24bd66db38128d482f44f3f281715",
    },
    "hetero4_tower": {
        "traces.csv": "169d305419a20b2e42ce85d2f0b4f2ecefff6b380cc73890d8008ff5d5394628",
        "limit_section.csv": "a4ee0f5c70b498fa3bf1294db006e4785f99cfd8e1007b2e5f28f1349e5ac075",
    },
}


@pytest.mark.parametrize("name", sorted(MARTINGALE_DIGESTS))
def test_martingale_artifacts_keep_their_bytes(name, tmp_path):
    config = tmp_path / f"{name}.json"
    config.write_text(fixture_text(name))
    out = tmp_path / "out"
    assert main(["run-martingale", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for artifact, digest in MARTINGALE_DIGESTS[name].items():
        assert hashlib.sha256(read(out / artifact)).hexdigest() == digest, artifact


# sha256 of the reports of check-duality and check-axioms, recorded before the dual-norm
# brackets and the witness norms stopped forming synthetic spectra: any change to the bits
# of a duality or axiom report fails here.  The run rows, recorded before the report and
# config classes stopped being dataclasses, also pin run's config_hash over the full config.
# The axioms.json and summary.json rows were recorded again when condexp/module_property
# became relative to |a| |x| |b|: only its values and the per-fiber worsts it set moved.  The
# axioms.json rows were recorded again when that scale and the moduli of trace_preservation and
# bimodule_pairing came to be formed from real parts, so that no SIMD loop sets their bits.
# Every row here and in MARTINGALE_DIGESTS was recorded again when the draws moved to the
# counter-based bundle.Stream and every condexp modulus to real planes, and the axiom rows
# again when positivity came to be tried on rank-one elements
REPORT_DIGESTS = {
    ("check-duality", "duality"): {
        "duality.json": "c73c26e4d892bb0bcb7b163466028b994c0c32f9b39feaa1f1a94d0213014d9c",
        "summary.json": "645e86cf1673c24200ab4417bc398329f39d6c1ef81e1bcb46925fa3ab5b046d",
    },
    ("check-duality", "mat2_tower"): {
        "duality.json": "e5ac0bcebf9968de40414b30631e3afc184620089e971c9bd7f15899edcf9a90",
        "summary.json": "8b2f47e4c75ac8c2e82739cd0cff8f7f635d2a02ac1ba41d23913393060b84a9",
    },
    ("check-duality", "hetero4_tower"): {
        "duality.json": "32b5e9c77c7073807836a303fdd9fa9fe51ace82ab3808756d3f2f38edc2a3cf",
        "summary.json": "8b9aa89cd1b7ad3dff8dff3a035a042ff432bd499556924ef8c99846ee67d4b9",
    },
    ("check-axioms", "axioms-large-blocks"): {
        "axioms.json": "0169a5188c8436791ba99745e192a58d98d275a0e97e879006b60f4f2e72365a",
        "summary.json": "a22a6bcf04117f439d179afec8c10d164afc805eebd6fc7b27f73357c73a64da",
    },
    ("run", "mat2_tower"): {
        "axioms.json": "f913049776d71ddaaca1c0fc294e3e2244e06cfb761a8ee987117b913774805f",
        "duality.json": "e5ac0bcebf9968de40414b30631e3afc184620089e971c9bd7f15899edcf9a90",
        "summary.json": "f84b9ef2611d8b93dac5433a2c68ebb7f9dc8c5ee27ecf36cd509acc4547ef9e",
    },
    ("run", "hetero4_tower"): {
        "axioms.json": "02fe8df11e480469fb4c0ec221a759dc77fa179c30233b8354e51d3bb537d6be",
        "duality.json": "32b5e9c77c7073807836a303fdd9fa9fe51ace82ab3808756d3f2f38edc2a3cf",
        "summary.json": "e3a141e191748b24f5b1a09846ed6b26e159078813d9f10f28415af3db71456f",
    },
}


@pytest.mark.parametrize("command, name", sorted(REPORT_DIGESTS),
                         ids=["-".join(case) for case in sorted(REPORT_DIGESTS)])
def test_reports_keep_their_bytes(command, name, tmp_path):
    config = BENCH_WORKLOADS / f"{name}.json"
    if not config.exists():  # a fixture
        config = tmp_path / f"{name}.json"
        config.write_text(fixture_text(name))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    for artifact, digest in REPORT_DIGESTS[command, name].items():
        assert hashlib.sha256(read(out / artifact)).hexdigest() == digest, artifact


def test_check_failure_exit_code(config_path, tmp_path):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["tolerances"] = {"trace_axioms": 1e-30}  # unreachable by design
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(doc))
    code = main(["run", "--config", str(strict), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHECK_FAILURE


def weights_times(tmp_path, factor, name="hetero4_tower", **tolerances):
    """Fixture ``name`` with every trace weight times ``factor``, and ``tolerances`` set."""
    doc = json.loads(fixture_text(name))
    bundle = doc["bundle"]
    bundle["trace_weights"] = [[c * factor for c in cs] for cs in bundle["trace_weights"]]
    doc["tolerances"].update(tolerances)
    config = tmp_path / "scaled.json"
    config.write_text(json.dumps(doc))
    return str(config)


@pytest.mark.parametrize("command", ["run", "run-martingale"])
def test_martingale_residuals_are_check_failures(command, tmp_path, capsys):
    # the tower builds (composition residual 2.2e-16); the defect and the limit
    # reconstruction, 1.39e-7 each, are failures of their reported checks, not a model
    # construction failure (exit 3) or a usage error (exit 5)
    out = tmp_path / "out"
    config = weights_times(tmp_path, 1e8)
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert "model construction failed" not in capsys.readouterr().err
    failing = {c["name"] for c in json.loads(read(out / "summary.json"))["checks"] if not c["pass"]}
    assert {"martingale/defect", "martingale/limit_reconstruction"} <= failing


def test_martingale_residuals_meet_the_configured_tolerance(tmp_path, capsys):
    # the same run under "martingale_defect": 1e-3; the scale failures left (Pythagoras and
    # the Cesaro verdicts, absolute tolerances) are ROADMAP item 2
    out = tmp_path / "out"
    config = weights_times(tmp_path, 1e8, martingale_defect=1e-3)
    assert main(["run-martingale", "--config", config, "--out", str(out)]) == EXIT_CHECK_FAILURE
    capsys.readouterr()
    checks = {c["name"]: c for c in json.loads(read(out / "summary.json"))["checks"]}
    for name in ("martingale/defect", "martingale/limit_reconstruction"):
        assert checks[name]["pass"] and checks[name]["worst_residual"] > 1e-9


def test_tiny_trace_weights_build_the_unit_weight_tower(tmp_path, capsys):
    # every weight times 1e-20 or 1e-24 put the identity below an absolute pivot: exit 3, "the
    # span at 'w1' is empty".  The tower now builds with the dims of the unit-weight run, and
    # every check passes: the module property, which grows like 1/c with the weights' unit c
    # (subalgebra draws scale like c^(-1/2)), is relative to |a| |x| |b|
    def dims(config, out):
        code = main(["check-axioms", "--config", config, "--out", str(out)])
        levels = json.loads((out / "axioms.json").read_text(encoding="utf-8"))["levels"]
        return code, [level["dims"] for level in levels], failing_checks(out)

    code, want, _ = dims(weights_times(tmp_path, 1.0), tmp_path / "unit")
    assert code == EXIT_OK and want == [[1, 1, 1, 1], [2, 3, 4, 1], [2, 3, 6, 1], [4, 9, 8, 1]]
    for factor in (1e-20, 1e-24):
        code, got, failing = dims(weights_times(tmp_path, factor), tmp_path / f"{factor:g}")
        assert (code, got, failing) == (EXIT_OK, want, set())
    assert "model construction failed" not in capsys.readouterr().err


@pytest.mark.parametrize("factor", [1e-8, 1e-20, 1e-24])
def test_run_passes_at_the_weight_units_that_failed_the_module_property(factor, tmp_path):
    # while it was absolute, the module property alone failed the hetero4 runs: 5.3e-7, 6.6e5
    # and 5.4e9 against 1e-9; relative to |a| |x| |b| it reads about 3e-16 at every unit.
    # Every witness attains its norm: below an absolute zero-fiber threshold of 1e-12, 8 of
    # hetero4's 24 duality fibers at 1e-20 and 9 at 1e-24 (2 and 3 of mat2's 4) "attained" 0.0
    for name in ("hetero4_tower", "mat2_tower"):
        out = tmp_path / name
        config = weights_times(tmp_path, factor, name)
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        checks = {c["name"]: c["worst_residual"]
                  for c in json.loads(read(out / "summary.json"))["checks"]}
        assert checks["condexp/module_property"] <= 1e-14
        fibers = [f for r in json.loads(read(out / "duality.json"))["reports"]
                  for f in r["per_fiber"]]
        assert all(abs(f["attained"] - f["norm_p"]) <= 1e-13 * f["norm_p"] for f in fibers)


def failing_checks(out):
    return {c["name"] for c in json.loads(read(out / "summary.json"))["checks"] if not c["pass"]}


def test_a_level_at_a_tiny_weight_unit_keeps_the_identity(tmp_path, capsys):
    # one Mat2 atom of trace weight 1e-24 generated by 1e8 e11: an absolute pivot dropped the
    # identity (weighted norm 1.4e-12), and the span missed it by 0.71 of its norm; the
    # identity now comes first and 1e8 e11 spans the diagonal with it.  The module property,
    # 2.7e9 against its tolerance while it was absolute, is relative to |a| |x| |b|
    doc = {"experiment_id": "lost_identity", "exponents": [2], "seed": 1,
           "bundle": {"atoms": ["a"], "mu": [1.0], "fiber_shapes": [[2]],
                      "trace_weights": [[1e-24]]},
           "tower": [{"explicit": {"a": [[[[[1e8, 0], [0, 0]], [[0, 0], [0, 0]]]]]}}, "full"]}
    config = tmp_path / "lost.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["check-axioms", "--config", str(config), "--out", str(out)])
    assert (code, failing_checks(out)) == (EXIT_OK, set())
    levels = json.loads((out / "axioms.json").read_text(encoding="utf-8"))["levels"]
    assert [level["dims"] for level in levels] == [[2], [4]]
    assert "model construction failed" not in capsys.readouterr().err


@pytest.mark.parametrize("v", [1e-11, 1e-6, 1e160])
def test_an_explicit_shift_level_closes_at_any_magnitude(v, tmp_path, capsys):
    # span{1, v e12} closes to all of Mat2: before, its products fell below the pivot at
    # v = 1e-6 (exit 3), and at 1e160 its norm overflowed, so the level read as the scalars;
    # at 1e-11 an absolute pivot dropped the generator itself (the level read as the scalars,
    # later refused)
    shift = [[[[0, 0], [v, 0]], [[0, 0], [0, 0]]]]  # one block, entries as [re, im]
    doc = {"experiment_id": "shift", "exponents": [2], "seed": 1,
           "bundle": {"atoms": ["a"], "mu": [1.0], "fiber_shapes": [[2]], "trace_weights": [[1.0]]},
           "tower": ["scalars", {"explicit": {"a": [shift]}}, "full"]}
    config = tmp_path / "shift.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["check-axioms", "--config", str(config), "--out", str(out)]) == EXIT_OK
    levels = json.loads((out / "axioms.json").read_text(encoding="utf-8"))["levels"]
    assert [level["dims"] for level in levels] == [[1], [4], [4]]


def test_emit_fixtures_into_an_unwritable_directory_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["emit-fixtures", "--out", str(blocker / "out")]) == EXIT_IO_ERROR
    assert "tracebundle: I/O failure:" in capsys.readouterr().err


def test_usage_error_inside_a_run_exits_5(config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._PARTS_BY_COMMAND, "run", ("trace", "bogus"))
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_USAGE
    assert "unknown experiment parts: ['bogus']" in capsys.readouterr().err
    assert not out.exists()


def test_section_file_with_a_wrong_header_is_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("atom,block,row,col,re,im\nw,0,0,0,1.0,0.0\n")
    with pytest.raises(UsageError, match="not a section file: unexpected header"):
        read_section_csv(str(bad), fixture_config("mat2_tower").build_bundle())


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", ["mat2_tower", "hetero4_tower"])
@pytest.mark.parametrize("trials", [1, 3, 6])
def test_trace_phase_matches_the_per_trial_loop(name, trials, monkeypatch):
    # in chunks of 3 trials: one partial chunk, one full chunk, two full chunks
    monkeypatch.setattr(tracelp, "DUALITY_CHUNK", 3)
    doc = json.loads(fixture_text(name))
    doc["trials"]["trace_sections"] = trials
    cfg = parse_config(json.dumps(doc))
    checks = runner.run_trace_checks(cfg, cfg.build_bundle())
    reference = trace_phase_reference(cfg, cfg.build_bundle())
    assert [c.name for c in checks] == list(reference)
    assert bits([c.worst_residual for c in checks]) == bits(list(reference.values()))


def without_block_slot(slot):
    """``tracelp.stacked_traces`` with the blocks of one slot left out of the trace."""
    real = tracelp.stacked_traces
    return lambda ys, bundle: real([0 * y if k == slot else y for k, y in enumerate(ys)], bundle)


def test_faithfulness_fails_on_a_trace_that_drops_a_block(tmp_path, monkeypatch):
    # slot 3 is the second Mat2 block of w3 (weights 1 and 2): without it the trace of x* x at
    # w3 is ||x_1||_F^2, below ||x(w3)||_inf^2 whenever the dropped block has the larger norm
    config = tmp_path / "hetero4_tower.json"
    config.write_text(fixture_text("hetero4_tower"))
    with monkeypatch.context() as patched:
        patched.setattr(runner, "stacked_traces", without_block_slot(3))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILURE
        checks = json.loads(read(out / "summary.json"))["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == ["trace/faithfulness"]
        cfg = fixture_config("hetero4_tower")
        excess = runner.run_trace_checks(cfg, cfg.build_bundle())[2].worst_residual
        # the per-trial loop, its center_trace patched alike, finds the same excess
        patched.setattr(views, "stacked_traces", without_block_slot(3))
        reference = trace_phase_reference(cfg, cfg.build_bundle())["trace/faithfulness"]
    assert bits(excess) == bits(reference)
    assert excess > cfg.tolerances["faithfulness_norm"]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment_id": "x"}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR


def test_broken_tower_exit_code(tmp_path):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["tower"] = ["scalars", "mystery-level"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR


def test_missing_config_exit_code(tmp_path):
    code = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
    assert code == EXIT_IO_ERROR


USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["no-such-subcommand", "--config", "x", "--out", "y"],
    "missing-flags": ["run"],
    "missing-config": ["check-duality", "--out", "y"],
    "missing-out": ["run-martingale", "--config", "x"],
    "flag-without-value": ["run", "--config", "x", "--out"],
    "flag-as-value": ["run", "--config", "--out", "y"],
    "unknown-flag": ["run", "--config", "x", "--out", "y", "--verbose", "1"],
    "abbreviated-flag": ["check-axioms", "--conf", "x", "--out", "y"],
    "stray-argument": ["run", "x", "--config", "x", "--out", "y"],
    "emit-fixtures-config": ["emit-fixtures", "--config", "x", "--out", "y"],
    "emit-fixtures-seed": ["emit-fixtures", "--out", "y", "--seed-override", "3"],
    "non-integer-seed": ["run", "--config", "x", "--out", "y", "--seed-override", "1.5"],
    "non-integer-seed-joined": ["run", "--config=x", "--out=y", "--seed-override=seven"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exit_codes(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tracebundle") and "tracebundle: error: " in captured.err
    assert list(tmp_path.iterdir()) == []  # no --out directory was created


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "--help"], ["emit-fixtures", "-h"]])
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tracebundle") and captured.err == ""


def test_joined_flags_write_the_same_summary(config_path, tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    argv = ["--config", config_path, "--out", str(spaced), "--seed-override", "7"]
    assert main(["check-duality", *argv]) == EXIT_OK
    argv = [f"--config={config_path}", f"--out={joined}", "--seed-override=7"]
    assert main(["check-duality", *argv]) == EXIT_OK
    assert read(spaced / "summary.json") == read(joined / "summary.json")


def python_with_the_package(*args, **env):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's package, with
    ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["run", "check-axioms", "check-duality", "run-martingale"])
def test_a_check_command_loads_no_argparse_dataclasses_copy_or_fixtures(command, config_path,
                                                                         tmp_path):
    # nor the library views: a CLI call never compiles views.py; nor numpy.random, whose
    # import (nine extension modules, secrets, hmac) every draw once paid inside the call
    argv = [command, "--config", config_path, "--out", str(tmp_path / "out")]
    script = ("import sys\n"
              "from tracebundle import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, sorted({'argparse', 'copy', 'dataclasses', 'numpy.random',"
              " 'tracebundle.fixtures', 'tracebundle.views'} & set(sys.modules)))")
    done = python_with_the_package("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_importing_the_package_loads_none_of_its_modules():
    script = "import sys, tracebundle\nprint(sorted(m for m in sys.modules if 'tracebundle.' in m))"
    done = python_with_the_package("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# numpy's dispatch targets that take AVX2 and AVX-512 loops on x86
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.parametrize("name", ["axioms-large-blocks", "hetero4_tower", "mat2_tower"])
def test_axiom_reports_do_not_depend_on_the_simd_loops(name, tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__

    present = [target for target in SIMD_TARGETS if __cpu_features__.get(target)]
    if not present:
        pytest.skip("numpy takes none of these loops on this CPU")
    config = BENCH_WORKLOADS / f"{name}.json"
    if not config.exists():  # a fixture
        config = tmp_path / f"{name}.json"
        config.write_text(fixture_text(name))
    reports = []
    for env in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(present)}):
        out = tmp_path / f"out{len(reports)}"
        done = python_with_the_package("-m", "tracebundle.cli", "check-axioms", "--config",
                                       str(config), "--out", str(out), **env)
        assert done.returncode == EXIT_OK, done.stderr
        reports.append([read(out / artifact) for artifact in ("axioms.json", "summary.json")])
    assert reports[0] == reports[1]


# check-axioms on the bench config at each seed, its residuals per tower level as JSON
SEEDED_AXIOMS = """import contextlib, io, json, os, sys, tempfile
from tracebundle.cli import main
out = {}
for seed in range(1, 17):
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-axioms", "--config", sys.argv[1], "--out", d,
                     "--seed-override", str(seed)]) == 0
        with open(os.path.join(d, "axioms.json"), encoding="utf-8") as fh:
            out[seed] = [level["residuals"] for level in json.load(fh)["levels"]]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def seeded_axiom_residuals():
    """The residuals of ``check-axioms`` on axioms-large-blocks at seeds 1-16, one subprocess
    per SIMD level: numpy's own loops, those without AVX-512, and those without AVX2."""
    from numpy._core._multiarray_umath import __cpu_features__

    present = [target for target in SIMD_TARGETS if __cpu_features__.get(target)]
    if not present:
        pytest.skip("numpy takes none of these loops on this CPU")
    levels = [[], [t for t in present if t != "X86_V3"], present]
    runs = []
    for disabled in levels:
        env = {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)} if disabled else {}
        done = python_with_the_package("-c", SEEDED_AXIOMS,
                                       str(BENCH_WORKLOADS / "axioms-large-blocks.json"), **env)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    return runs


def simd_differences(runs, lp_contraction: bool) -> list:
    """``(disabled level, seed, tower level, residual)`` wherever a residual of a lesser SIMD
    level differs from the native one: the lp_contraction_p* residuals, or all others."""
    return [(k, seed, level, name) for k, run in enumerate(runs[1:], 1) for seed in run
            for level, (want, got) in enumerate(zip(runs[0][seed], run[seed]))
            for name in want if name.startswith("lp_contraction_p") == lp_contraction
            and want[name] != got[name]]


def test_axiom_residuals_do_not_depend_on_the_simd_loops_at_any_seed(seeded_axiom_residuals):
    # every condexp modulus is formed from real planes: with numpy's complex abs in _gap,
    # module_property read 1.244727068788694e-16 natively and ...942e-16 without AVX2 at
    # seed 6 (level 2), and idempotence moved at seed 12
    assert simd_differences(seeded_axiom_residuals, lp_contraction=False) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: np.power's loops round differently without AVX-512, "
                          "so lp_contraction_p3 moves at level 3 of seed 14")
def test_lp_contraction_does_not_depend_on_the_simd_loops_at_any_seed(seeded_axiom_residuals):
    assert simd_differences(seeded_axiom_residuals, lp_contraction=True) == []


def test_the_module_entry_point_reads_its_command_line(config_path, tmp_path):
    out = tmp_path / "out"
    done = python_with_the_package("-m", "tracebundle.cli", "check-duality", "--config", config_path,
                                   "--out", str(out))
    assert done.returncode == EXIT_OK, done.stderr
    assert (out / "summary.json").exists()
    bare = python_with_the_package("-m", "tracebundle.cli")
    assert bare.returncode == EXIT_USAGE
    assert bare.stderr.startswith("usage: tracebundle")


def test_golden_section_roundtrip(config_path, tmp_path):
    import numpy as np

    from tracebundle.runner import read_section_csv

    out = tmp_path / "out"
    main(["run-martingale", "--config", config_path, "--out", str(out)])
    cfg = fixture_config("mat2_tower")
    bundle = cfg.build_bundle()
    section = read_section_csv(str(out / "limit_section.csv"), bundle)
    # write -> read -> write is byte-stable
    from tracebundle.runner import write_section_csv

    write_section_csv(str(tmp_path / "again.csv"), section_to_records(section))
    assert read(out / "limit_section.csv") == read(tmp_path / "again.csv")
    assert section.bundle == bundle
    assert all(np.isfinite(b).all() for f in section.fibers for b in f.blocks)


def test_csv_unsafe_atom_label_exit_code(tmp_path, capsys):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["bundle"]["atoms"] = ["a,b"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run-martingale", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "config error at bundle.atoms[0]" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_golden_section_rows(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run-martingale", "--config", config_path, "--out", str(out)]) == EXIT_OK
    lines = read(out / "limit_section.csv").decode().splitlines(keepends=True)
    bundle = fixture_config("mat2_tower").build_bundle()
    bad = tmp_path / "bad.csv"
    for broken in ("w1,0,0,1,0.5\n", "a,b,0,0,0,1.0,0.0\n", "w1,0,x,1,0.5,0.0\n"):
        bad.write_text(lines[0] + lines[1] + broken + "".join(lines[3:]))
        with pytest.raises(UsageError, match="line 3: malformed section record"):
            read_section_csv(str(bad), bundle)


def test_truncated_golden_section_rejected(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run-martingale", "--config", config_path, "--out", str(out)]) == EXIT_OK
    lines = read(out / "limit_section.csv").decode().splitlines(keepends=True)
    bundle = fixture_config("mat2_tower").build_bundle()
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("".join(lines[:-2]))
    with pytest.raises(UsageError, match=r"missing record for entry \(w1, 0, 1, 0\)"):
        read_section_csv(str(truncated), bundle)
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("".join(lines) + lines[1])
    with pytest.raises(UsageError, match=r"duplicate record for entry \(w1, 0, 0, 0\)"):
        read_section_csv(str(doubled), bundle)
    # a negative block index would wrap onto block 0 and set entry (0, 0) to 5
    negative = tmp_path / "negative.csv"
    negative.write_text("".join(lines) + "w1,-1,0,0,5.0,0.0\n")
    with pytest.raises(ShapeMismatchError, match=r"\(w1, -1, 0, 0\) is outside the fiber shape"):
        read_section_csv(str(negative), bundle)


def test_emit_fixtures_matches_direct_run(tmp_path):
    out = tmp_path / "fixtures"
    assert main(["emit-fixtures", "--out", str(out)]) == EXIT_OK
    assert (out / "mat2_tower.json").read_text() == fixture_text("mat2_tower")
    cfg = fixture_config("mat2_tower")
    direct = tmp_path / "direct"
    run_experiment(cfg, str(direct))
    assert read(out / "mat2_tower" / "summary.json") == read(direct / "summary.json")
    assert read(out / "mat2_tower" / "traces.csv") == read(direct / "traces.csv")


@pytest.mark.parametrize("edit", [
    {"atoms": [None]},
    {"tower": ["scalars", {"explicit": {"w1": "abc"}}, "full"]},
    {"tower": ["scalars", {"explicit": {"w1": [[[["12"], [0, 0]], [[0, 0], [0, 0]]]]}}, "full"]},
    {"tower": ["scalars", {"explicit": {"w1": [[[[1, 0, 99], [0, 0]], [[0, 0], [0, 0]]]]}},
               "full"]},
    {"tower": ["scalars", {"explicit": {"w9": []}}, "full"]},
    {"weights": [1.0] * 202},  # the run needs 3 tower steps + 200 held steps
    {"extension": 10**400},
    {"tower": ["scalars", {"explicit": {"w1": [[[[[1, 0]] * 3] * 3]]}}, "full"]},  # 3x3 on Mat2
    {"exponents": [1, 1.0000001, 2, 2]},  # p=1 and p=2 would each name two checks
])
def test_invalid_config_exits_before_any_artifact(edit, tmp_path, capsys):
    doc = json.loads(fixture_text("mat2_tower"))
    for key, value in edit.items():
        (doc["bundle"] if key == "atoms" else doc)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "config error at" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_before_any_artifact(tmp_path, capsys, monkeypatch):
    # a numerical limit hit by the stacked solves of the duality check, after the condexp
    # part has computed its report
    def capped(*args, **kwargs):
        raise ContractViolationError("Jacobi eigensolver did not converge in 100 sweeps")

    monkeypatch.setattr(tracelp, "gram_eigenvalues_stack", capped)
    good = tmp_path / "good.json"
    good.write_text(fixture_text("mat2_tower"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(good), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "numerical failure in the duality checks: Jacobi eigensolver did not converge" in err
    assert "model construction failed" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, p", [("check-duality", 300), ("run-martingale", 30),
                                        ("run-martingale", 300), ("check-duality", 1.0000001)])
def test_large_exponents_pass(tmp_path, capsys, command, p):
    # at p = 300 the Gram eigenvalues ** 150 of atom w4's sampled section (seed 10) underflow,
    # at p >= 30 those of the round-off terminal residual x_K - x, and at p = 1.0000001 those
    # ** 5e6 of the dual L(1e7) norms overflow or underflow; summed over w / max w, every norm
    # keeps its value and no false violation or error shows
    doc = json.loads(fixture_text("hetero4_tower"))
    doc["exponents"] = [p]
    doc["seed"] = 10
    cfg = tmp_path / "large_p.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out
    if command == "check-duality":
        norms = [f["norm_p"] for r in json.loads(read(out / "duality.json"))["reports"]
                 for f in r["per_fiber"]]
        assert min(norms) > 0.05


@pytest.mark.parametrize("name", ["mat2_tower", "hetero4_tower"])
@pytest.mark.parametrize("p", [1e8, 1e12, 1e16, 1e20, 1e300])
def test_very_large_exponents_attain_the_norm(tmp_path, capsys, name, p):
    # the witness takes its spectral weights from the norm's top-scaled sum, so no rounded
    # norm is raised to a power near p
    doc = json.loads(fixture_text(name))
    doc["exponents"] = [p]
    cfg = tmp_path / "huge_p.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["check-duality", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out
    (attainment,) = [c["worst_residual"] for c in json.loads(read(out / "summary.json"))["checks"]
                     if c["name"].endswith("/attainment")]
    assert attainment <= 1e-13


def nan_attainment(monkeypatch):
    """The attained value of the first duality case made NaN at its first atom."""
    real = tracelp._witnesses

    def witnesses(cases):
        (norms, witness, attained), *rest = real(cases)
        return [(norms, witness, np.concatenate([[np.nan], attained[1:]])), *rest]

    monkeypatch.setattr(tracelp, "_witnesses", witnesses)


def nan_gap(monkeypatch):
    """The first lane of the first idempotence gap made NaN."""
    real, calls = condexp._gap, []

    def gap(us, vs):
        gaps = real(us, vs)
        if not calls:
            gaps[0] = np.concatenate([[np.nan], gaps[0][1:]])
        calls.append(None)
        return gaps

    monkeypatch.setattr(condexp, "_gap", gap)


@pytest.mark.parametrize("command, inject", [("check-duality", nan_attainment),
                                             ("check-axioms", nan_gap)])
def test_a_nan_residual_exits_before_any_artifact(tmp_path, capsys, monkeypatch, command, inject):
    # the builtin max(0.0, nan) is 0.0: folded with it, a NaN residual would pass
    inject(monkeypatch)
    good = tmp_path / "good.json"
    good.write_text(fixture_text("hetero4_tower"))
    out = tmp_path / "o"
    assert main([command, "--config", str(good), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_construction_failure_keeps_its_message(tmp_path, capsys, monkeypatch):
    # the same error type from the tower build is no numerical failure of a check
    def broken_tower(cfg, bundle):
        raise ContractViolationError("orthonormalization degenerated")

    monkeypatch.setattr(runner, "build_tower", broken_tower)
    good = tmp_path / "good.json"
    good.write_text(fixture_text("mat2_tower"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(good), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "model construction failed: orthonormalization degenerated" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_field_is_rejected(tmp_path, capsys):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["outputs"] = {"summary": "axioms.json"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "config error at outputs: unknown field" in capsys.readouterr().err
    assert not out.exists()


def test_non_full_tower_reports_an_unsupported_configuration(tmp_path, capsys):
    # the model is built; only the martingale limit needs a full top level
    doc = json.loads(fixture_text("hetero4_tower"))
    doc["tower"] = ["scalars", "diagonal", "block(1,1)"]
    config = tmp_path / "shallow.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run-martingale", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "tracebundle: unsupported configuration: martingale limits need a tower" in err
    assert "model construction failed" not in err
    assert not out.exists()
    assert main(["check-axioms", "--config", str(config), "--out", str(out)]) == EXIT_OK


def test_failed_write_leaves_no_partial_artifact(config_path, tmp_path, capsys, monkeypatch):
    # each artifact goes through a .tmp sibling: a writer that fails midway leaves the old
    # file at its name untouched and no stray file; the files before it are complete
    out = tmp_path / "out"
    assert main(["run-martingale", "--config", config_path, "--out", str(out)]) == EXIT_OK
    before = {name: read(out / name) for name in os.listdir(out)}
    (out / "limit_section.csv").write_bytes(b"old\n")

    def failing(path, section):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("omega,block,row,col,re,im\n")
            raise OSError("device full")

    monkeypatch.setattr(runner, "write_section_csv", failing)
    assert main(["run-martingale", "--config", config_path, "--out", str(out)]) == EXIT_IO_ERROR
    assert "I/O failure: device full" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == sorted(before)
    assert read(out / "limit_section.csv") == b"old\n"
    assert read(out / "traces.csv") == before["traces.csv"]
