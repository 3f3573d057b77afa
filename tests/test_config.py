import json

import pytest

from tracebundle import ConfigError, parse_config, serialize_config
from tracebundle.config import DEFAULT_TOLERANCES, DEFAULT_TRIALS, config_hash
from tracebundle.fixtures import FIXTURES, fixture_config, fixture_text

MINIMAL = {
    "experiment_id": "minimal",
    "bundle": {
        "atoms": ["w"],
        "mu": [1.0],
        "fiber_shapes": [[2]],
        "trace_weights": [[0.5]],
    },
    "tower": ["scalars", "diagonal", "full"],
    "exponents": [1, 2],
    "seed": 7,
}


def as_text(doc):
    return json.dumps(doc)


def problems_of(doc):
    with pytest.raises(ConfigError) as err:
        parse_config(as_text(doc))
    return dict(err.value.problems)


def test_minimal_config_parses():
    cfg = parse_config(as_text(MINIMAL))
    assert cfg.experiment_id == "minimal"
    assert cfg.seed == 7
    assert cfg.trials == DEFAULT_TRIALS
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.weights == "uniform"
    bundle = cfg.build_bundle()
    assert bundle.fiber_shapes == ((2,),)


def test_zero_measure_weight_names_the_field():
    doc = dict(MINIMAL, bundle=dict(MINIMAL["bundle"], mu=[0.0]))
    problems = problems_of(doc)
    assert "bundle.mu[0]" in problems


def test_unknown_field_rejected():
    problems = problems_of(dict(MINIMAL, extra_knob=1))
    assert "extra_knob" in problems
    doc = dict(MINIMAL, bundle=dict(MINIMAL["bundle"], color="red"))
    assert "bundle.color" in problems_of(doc)


def test_missing_seed_rejected():
    doc = dict(MINIMAL)
    del doc["seed"]
    assert "seed" in problems_of(doc)


@pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_csv_unsafe_labels_rejected(label):
    # atom labels and the experiment id are written into CSV artifacts
    doc = dict(MINIMAL, bundle=dict(MINIMAL["bundle"], atoms=["w", label], mu=[1.0, 1.0],
                                    fiber_shapes=[[2], [1]], trace_weights=[[0.5], [1.0]]))
    problems = problems_of(doc)
    assert list(problems) == ["bundle.atoms[1]"]
    assert "CSV" in problems["bundle.atoms[1]"]
    assert list(problems_of(dict(MINIMAL, experiment_id=f"run {label}"))) == ["experiment_id"]


def test_non_integer_seed_rejected():
    assert "seed" in problems_of(dict(MINIMAL, seed="entropy"))


def test_bad_exponent_rejected():
    assert "exponents[0]" in problems_of(dict(MINIMAL, exponents=[0.5]))


def test_bad_tower_level_rejected():
    problems = problems_of(dict(MINIMAL, tower=["scalars", "mystery"]))
    assert "bundle/tower" in problems


def test_negative_trace_weight_rejected():
    doc = dict(MINIMAL, bundle=dict(MINIMAL["bundle"], trace_weights=[[-1.0]]))
    assert "bundle.trace_weights[0][0]" in problems_of(doc)


def test_unknown_tolerance_rejected():
    assert "tolerances.bogus" in problems_of(dict(MINIMAL, tolerances={"bogus": 1.0}))


def test_invalid_json_reported():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_multiple_problems_collected():
    doc = dict(MINIMAL, exponents=[0.2], extra=1)
    del doc["seed"]
    problems = problems_of(doc)
    assert len(problems) >= 3


def test_roundtrip_identity():
    cfg = parse_config(as_text(MINIMAL))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_fixture_configs_roundtrip():
    for name in FIXTURES:
        cfg = fixture_config(name)
        assert parse_config(serialize_config(cfg)) == cfg
        # the shipped fixture text itself parses
        assert parse_config(fixture_text(name)).experiment_id == name


def test_weight_patterns():
    cfg = parse_config(as_text(dict(MINIMAL, weights="linear")))
    assert cfg.weight_list(4) == [1.0, 2.0, 3.0, 4.0]
    cfg = parse_config(as_text(dict(MINIMAL, weights=[2.0, 3.0, 4.0])))
    assert cfg.weight_list(2) == [2.0, 3.0]
    with pytest.raises(Exception):
        cfg.weight_list(5)


def test_explicit_tower_level():
    level = {
        "explicit": {
            "w": [
                [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
            ]
        }
    }
    doc = dict(MINIMAL, tower=["scalars", level, "full"])
    cfg = parse_config(as_text(doc))
    bundle = cfg.build_bundle()
    levels = cfg.tower_generators(bundle)
    assert len(levels) == 3
    explicit = levels[1][0][0]
    assert explicit.dims == (2,)


def test_trials_override_and_validation():
    cfg = parse_config(as_text(dict(MINIMAL, trials={"axioms": 7})))
    assert cfg.trials["axioms"] == 7
    assert cfg.trials["duality_samples"] == DEFAULT_TRIALS["duality_samples"]
    assert "trials.axioms" in problems_of(dict(MINIMAL, trials={"axioms": 0}))
    assert "trials.bogus" in problems_of(dict(MINIMAL, trials={"bogus": 3}))
