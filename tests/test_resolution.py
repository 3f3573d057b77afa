"""The resolution of the condexp checks: the smallest defect that each one sees.

Each row replaces every fiber's projection ``E`` by a one-parameter defect of size
``delta = 10**-k`` and runs the condexp phase through ``run_experiment`` on a fixture
tower.  ``TABLE`` pins, per row and fixture, the smallest decade that fails a check,
the exact set of checks that fail there, and that none fails one decade below.  So a
change that coarsens the referee, or makes it finer, shows here (ROADMAP item 15).
"""

import pytest

from tracebundle import condexp
from tracebundle.fixtures import fixture_config
from tracebundle.runner import run_experiment


def scaled(delta):
    """``(1 + delta) E``."""
    return lambda ex, x: [(1 + delta) * e for e in ex]


def leak(delta):
    """``E + delta (x - E x)``: a part of the complement leaks through."""
    return lambda ex, x: [e + delta * (b - e) for e, b in zip(ex, x)]


SCALED_FAILS = {f"condexp/{n}" for n in (
    "idempotence", "unitality", "trace_preservation", "bimodule_pairing", "scalarized_trace",
    "lp_contraction_p1", "lp_contraction_p2", "lp_contraction_p3", "lp_contraction_p4")}

# (row, fixture) -> (k of the smallest failing delta = 10**-k, the checks that fail there)
TABLE = {
    (scaled, "hetero4_tower"): (10, {"condexp/scalarized_trace"}),
    (scaled, "mat2_tower"): (9, SCALED_FAILS),
    (leak, "hetero4_tower"): (9, {"condexp/idempotence"}),
    (leak, "mat2_tower"): (9, {"condexp/idempotence"}),
}


def failing_checks(tmp_path, fixture, edit) -> set:
    real = condexp._FiberProjector.project_stack
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(condexp._FiberProjector, "project_stack",
                        lambda proj, blocks: edit(real(proj, blocks), blocks))
        summary, _ = run_experiment(fixture_config(fixture), str(tmp_path), parts=("condexp",))
    return {c["name"] for c in summary["checks"] if not c["pass"]}


def test_scaled_fails_nine_checks_a_decade_above_on_hetero4(tmp_path):
    assert failing_checks(tmp_path, "hetero4_tower", scaled(1e-9)) == SCALED_FAILS


@pytest.mark.parametrize("row, fixture", list(TABLE), ids=lambda v: getattr(v, "__name__", v))
def test_the_smallest_defect_each_row_fails(row, fixture, tmp_path):
    k, fails = TABLE[row, fixture]
    assert failing_checks(tmp_path / "at", fixture, row(10.0**-k)) == fails
    assert failing_checks(tmp_path / "below", fixture, row(10.0**-(k + 1))) == set()
