import json
import os

import pytest

from tracebundle.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from tracebundle.errors import UsageError
from tracebundle.fixtures import fixture_config, fixture_text
from tracebundle.runner import read_section_csv, run_experiment


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


def test_check_failure_exit_code(config_path, tmp_path):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["tolerances"] = {"trace_axioms": 1e-30}  # unreachable by design
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(doc))
    code = main(["run", "--config", str(strict), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHECK_FAILURE


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


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-subcommand", "--config", "x", "--out", "y"])
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required flags
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


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

    write_section_csv(str(tmp_path / "again.csv"), section)
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


def test_outputs_field_is_rejected(tmp_path, capsys):
    doc = json.loads(fixture_text("mat2_tower"))
    doc["outputs"] = {"summary": "axioms.json"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "config error at outputs: unknown field" in capsys.readouterr().err
    assert not out.exists()
