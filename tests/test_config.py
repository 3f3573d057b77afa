import copy
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
    assert cfg.weight_list(4).tolist() == [1.0, 2.0, 3.0, 4.0]
    cfg = parse_config(as_text(dict(MINIMAL, weights=[2.0, 3.0, 4.0])))
    assert cfg.weight_list(2).tolist() == [2.0, 3.0]
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


# Every (path, message) pair that parse_config reports, pinned per document.
NAN = float("nan")
INF = float("inf")


def variant(*drop, **changes):
    """MINIMAL without ``drop`` and with ``changes``; ``bundle_<key>`` edits the bundle."""
    doc = copy.deepcopy(MINIMAL)
    for key, value in changes.items():
        if key.startswith("bundle_"):
            doc["bundle"][key[len("bundle_"):]] = value
        else:
            doc[key] = value
    for key in drop:
        if key.startswith("bundle."):
            del doc["bundle"][key[len("bundle."):]]
        else:
            del doc[key]
    return doc


def two_atoms(**bundle):
    base = {"atoms": ["a", "b"], "mu": [1.0, 1.0], "fiber_shapes": [[2], [1]],
            "trace_weights": [[0.5], [1.0]]}
    return variant(bundle={**base, **bundle})


CORPUS = {
    "invalid-json": "{not json",
    "top-level-list": "[]",
    "missing-experiment-id": variant("experiment_id"),
    "missing-seed": variant("seed"),
    "missing-bundle": variant("bundle"),
    "missing-tower": variant("tower"),
    "missing-exponents": variant("exponents"),
    "experiment-id-not-string": variant(experiment_id=3),
    "seed-string": variant(seed="entropy"),
    "seed-float": variant(seed=1.5),
    "seed-bool": variant(seed=True),
    "bundle-not-object": variant(bundle=[]),
    "tower-not-list": variant(tower="full"),
    "exponents-not-list": variant(exponents=2),
    "experiment-id-csv-unsafe": variant(experiment_id="a,b"),
    "unknown-top-field": variant(extra_knob=1),
    "unknown-bundle-field": variant(bundle_color="red"),
    "bundle-empty": variant(bundle={}),
    "atoms-empty": variant(bundle_atoms=[]),
    "atoms-not-list": variant(bundle_atoms="w"),
    "atom-label-csv-unsafe": two_atoms(atoms=["a", "b\nc"]),
    "mu-missing": variant("bundle.mu"),
    "fiber-shapes-not-list": variant(bundle_fiber_shapes=2),
    "trace-weights-not-list": variant(bundle_trace_weights=0.5),
    "mu-per-atom": two_atoms(mu=[1.0]),
    "fiber-shapes-per-atom": two_atoms(fiber_shapes=[[2]]),
    "trace-weights-per-atom": two_atoms(trace_weights=[[0.5], [1.0], [1.0]]),
    "mu-elements": two_atoms(mu=[0, -1.0]),
    "mu-non-numbers": two_atoms(mu=["1", True]),
    "mu-non-finite": two_atoms(mu=[NAN, INF]),
    "fiber-shape-elements": two_atoms(fiber_shapes=[[], [0]]),
    "fiber-shape-non-ints": two_atoms(fiber_shapes=[[2.0], "2"]),
    "fiber-shape-bool": variant(bundle_fiber_shapes=[[True]]),
    "trace-weights-per-block": variant(bundle_trace_weights=[[0.5, 0.5]]),
    "trace-weights-not-lists": two_atoms(trace_weights=[0.5, [1.0]]),
    "trace-weight-elements": two_atoms(fiber_shapes=[[2, 1], [1]],
                                       trace_weights=[[0, NAN], ["1"]]),
    "tower-empty": variant(tower=[]),
    "tower-level-number": variant(tower=["scalars", 3, "full"]),
    "tower-level-unknown-keys": variant(tower=["scalars", {"explicit": {}, "x": 1, "a": 2}]),
    "tower-explicit-not-object": variant(tower=[{"explicit": []}, "full"]),
    "tower-level-empty-object": variant(tower=[{}]),
    "tower-unknown-preset": variant(tower=["scalars", "mystery"]),
    "tower-bad-block-preset": variant(tower=["scalars", "block(0,2)"]),
    "duplicate-atoms": two_atoms(atoms=["a", "a"]),
    "exponents-empty": variant(exponents=[]),
    "exponent-below-one": variant(exponents=[0.5, 2]),
    "exponent-non-numbers": variant(exponents=["2", True, INF]),
    "exponents-repeat-check-name": variant(exponents=[1, 1.0000001, 2, 2]),
    "exponents-repeat-after-bad": variant(exponents=[3, 0.5, 3.0, 1.5, "3", 3e0]),
    "weights-unknown-name": variant(weights="cubic"),
    "weights-number": variant(weights=3),
    "weights-elements": variant(weights=[1.0, 0, "a", -2.0]),
    "trials-not-object": variant(trials=[]),
    "trials-unknown-key": variant(trials={"bogus": 3, "axioms": 2}),
    "trials-values": variant(trials={"axioms": 0, "trace_sections": 1.5,
                                     "martingale_seeds": True}),
    "tolerances-not-object": variant(tolerances=3),
    "tolerances-unknown-key": variant(tolerances={"bogus": 1.0}),
    "tolerances-values": variant(tolerances={"cesaro": 0, "sup_gap": "x",
                                             "pythagoras": NAN}),
    "extension-negative": variant(extension=-1),
    "extension-float": variant(extension=1.5),
    "extension-bool": variant(extension=True),
    "extension-too-large": variant(extension=100_001),
    "extension-beyond-index": variant(extension=10**400),
    "tower-explicit-wrong-block-size": variant(
        tower=["scalars", {"explicit": {"w": [[[[[1, 0]] * 3] * 3]]}}, "full"]),
    "tower-explicit-extra-block": variant(
        tower=["scalars", {"explicit": {"w": [[[[[1, 0]] * 2] * 2] * 2]}}, "full"]),
    "several-problems": variant("seed", exponents=[0.2], extra=1,
                                bundle_mu=[0.0], trials={"axioms": -3}),
    "outputs-name": variant(outputs={"summary": "a.json"}),
    "outputs-empty-name": variant(outputs={"summary": ""}),
    "outputs-not-object": variant(outputs=3),
}

CORPUS_PROBLEMS = {
    "invalid-json": [
        ("<document>", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ],
    "top-level-list": [("<document>", "top level must be an object")],
    "missing-experiment-id": [("experiment_id", "missing required field")],
    "missing-seed": [("seed", "missing required field")],
    "missing-bundle": [("bundle", "missing required field")],
    "missing-tower": [("tower", "missing required field")],
    "missing-exponents": [("exponents", "missing required field")],
    "experiment-id-not-string": [("experiment_id", "must be a string")],
    "seed-string": [("seed", "must be an integer (reproducibility contract: no entropy defaults)")],
    "seed-float": [("seed", "must be an integer (reproducibility contract: no entropy defaults)")],
    "seed-bool": [("seed", "must be an integer, not a boolean")],
    "bundle-not-object": [("bundle", "must be an object")],
    "tower-not-list": [("tower", "must be a list of level specs")],
    "exponents-not-list": [("exponents", "must be a list of exponents >= 1")],
    "experiment-id-csv-unsafe": [
        ("experiment_id", 'must not contain ",", a double quote, CR or LF (it is written to CSV artifacts)'),
    ],
    "unknown-top-field": [("extra_knob", "unknown field")],
    "unknown-bundle-field": [("bundle.color", "unknown field")],
    "bundle-empty": [
        ("bundle.atoms", "must be a non-empty list of labels"),
        ("bundle.fiber_shapes", "must be a list of block-dim lists"),
        ("bundle.mu", "must be a list of positive weights"),
        ("bundle.trace_weights", "must be a list of weight lists"),
    ],
    "atoms-empty": [("bundle.atoms", "must be a non-empty list of labels")],
    "atoms-not-list": [("bundle.atoms", "must be a non-empty list of labels")],
    "atom-label-csv-unsafe": [
        ("bundle.atoms[1]", 'must not contain ",", a double quote, CR or LF (it is written to CSV artifacts)'),
    ],
    "mu-missing": [("bundle.mu", "must be a list of positive weights")],
    "fiber-shapes-not-list": [("bundle.fiber_shapes", "must be a list of block-dim lists")],
    "trace-weights-not-list": [("bundle.trace_weights", "must be a list of weight lists")],
    "mu-per-atom": [("bundle.mu", "needs one weight per atom")],
    "fiber-shapes-per-atom": [("bundle.fiber_shapes", "needs one shape per atom")],
    "trace-weights-per-atom": [("bundle.trace_weights", "needs one weight list per atom")],
    "mu-elements": [
        ("bundle.mu[0]", "must be a finite number > 0"),
        ("bundle.mu[1]", "must be a finite number > 0"),
    ],
    "mu-non-numbers": [
        ("bundle.mu[0]", "must be a finite number > 0"),
        ("bundle.mu[1]", "must be a finite number > 0"),
    ],
    "mu-non-finite": [
        ("bundle.mu[0]", "must be a finite number > 0"),
        ("bundle.mu[1]", "must be a finite number > 0"),
    ],
    "fiber-shape-elements": [
        ("bundle.fiber_shapes[0]", "must be a non-empty list of ints >= 1"),
        ("bundle.fiber_shapes[1]", "must be a non-empty list of ints >= 1"),
        ("bundle.trace_weights[0]", "needs one weight per block"),
    ],
    "fiber-shape-non-ints": [
        ("bundle.fiber_shapes[0]", "must be a non-empty list of ints >= 1"),
        ("bundle.fiber_shapes[1]", "must be a non-empty list of ints >= 1"),
    ],
    "fiber-shape-bool": [("bundle.fiber_shapes[0]", "must be a non-empty list of ints >= 1")],
    "trace-weights-per-block": [("bundle.trace_weights[0]", "needs one weight per block")],
    "trace-weights-not-lists": [("bundle.trace_weights[0]", "needs one weight per block")],
    "trace-weight-elements": [
        ("bundle.trace_weights[0][0]", "must be a finite number > 0 (trace faithfulness)"),
        ("bundle.trace_weights[0][1]", "must be a finite number > 0 (trace faithfulness)"),
        ("bundle.trace_weights[1][0]", "must be a finite number > 0 (trace faithfulness)"),
    ],
    "tower-empty": [("tower", "needs at least one level")],
    "tower-level-number": [("tower[1]", "must be a preset string or an explicit object")],
    "tower-level-unknown-keys": [("tower[1]", "unknown keys ['a', 'x']")],
    "tower-explicit-not-object": [("tower[0].explicit", "must map atom labels to matrices")],
    "tower-level-empty-object": [("tower[0].explicit", "must map atom labels to matrices")],
    "tower-unknown-preset": [
        ("bundle/tower", "unknown tower level 'mystery'; use scalars | diagonal | block(k1,...) | full"),
    ],
    "tower-bad-block-preset": [("bundle/tower", "block part sizes must be >= 1: 'block(0,2)'")],
    "duplicate-atoms": [("bundle/tower", "atom labels must be distinct")],
    "exponents-empty": [("exponents", "needs at least one exponent")],
    "exponent-below-one": [("exponents[0]", "must be a number >= 1")],
    "exponent-non-numbers": [
        ("exponents[0]", "must be a number >= 1"),
        ("exponents[1]", "must be a number >= 1"),
        ("exponents[2]", "must be a number >= 1"),
    ],
    "exponents-repeat-check-name": [
        ("exponents[1]", "repeats the check name of exponents[0]"),
        ("exponents[3]", "repeats the check name of exponents[2]"),
    ],
    "exponents-repeat-after-bad": [
        ("exponents[1]", "must be a number >= 1"),
        ("exponents[2]", "repeats the check name of exponents[0]"),
        ("exponents[4]", "must be a number >= 1"),
        ("exponents[5]", "repeats the check name of exponents[0]"),
    ],
    "weights-unknown-name": [("weights", 'must be "uniform", "linear", or an explicit list')],
    "weights-number": [("weights", 'must be "uniform", "linear", or an explicit list')],
    "weights-elements": [
        ("weights[1]", "must be a finite number > 0"),
        ("weights[2]", "must be a finite number > 0"),
        ("weights[3]", "must be a finite number > 0"),
    ],
    "trials-not-object": [("trials", "must be an object")],
    "trials-unknown-key": [("trials.bogus", "unknown field")],
    "trials-values": [
        ("trials.axioms", "must be an integer >= 1"),
        ("trials.martingale_seeds", "must be an integer >= 1"),
        ("trials.trace_sections", "must be an integer >= 1"),
    ],
    "tolerances-not-object": [("tolerances", "must be an object")],
    "tolerances-unknown-key": [("tolerances.bogus", "unknown field")],
    "tolerances-values": [
        ("tolerances.cesaro", "must be a finite number > 0"),
        ("tolerances.pythagoras", "must be a finite number > 0"),
        ("tolerances.sup_gap", "must be a finite number > 0"),
    ],
    "extension-negative": [("extension", "must be an integer >= 0")],
    "extension-float": [("extension", "must be an integer >= 0")],
    "extension-bool": [("extension", "must be an integer >= 0")],
    "extension-too-large": [("extension", "must be at most 100000")],
    "extension-beyond-index": [("extension", "must be at most 100000")],
    "tower-explicit-wrong-block-size": [
        ("bundle/tower", "explicit generator of atom 'w' has block dims (3,), the fiber has (2,)"),
    ],
    "tower-explicit-extra-block": [
        ("bundle/tower", "explicit generator of atom 'w' has block dims (2, 2), the fiber has (2,)"),
    ],
    "several-problems": [
        ("bundle.mu[0]", "must be a finite number > 0"),
        ("exponents[0]", "must be a number >= 1"),
        ("extra", "unknown field"),
        ("seed", "missing required field"),
        ("trials.axioms", "must be an integer >= 1"),
    ],
    "outputs-name": [("outputs", "unknown field")],
    "outputs-empty-name": [("outputs", "unknown field")],
    "outputs-not-object": [("outputs", "unknown field")],
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_problem_corpus(name):
    doc = CORPUS[name]
    try:
        parse_config(doc if isinstance(doc, str) else as_text(doc))
        problems = []
    except ConfigError as exc:
        problems = sorted(exc.problems)
    assert problems == CORPUS_PROBLEMS[name]


@pytest.mark.parametrize("label", [None, 1, ["w"]])
def test_atom_labels_must_be_strings(label):
    doc = variant(bundle_atoms=[label])
    assert sorted(problems_of(doc).items()) == [("bundle.atoms[0]", "must be a string")]


SWAP = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]  # one 2x2 block, [re, im] pairs


@pytest.mark.parametrize("explicit, message", [
    ({"w": "abc"}, "explicit generators of atom 'w' must be lists of square blocks"),
    ({"w": [[[["12", "0"], [0, 0]], [[0, 0], [0, 0]]]]}, "of [re, im] number pairs"),
    ({"w": [[[["12"], [0, 0]], [[0, 0], [0, 0]]]]}, "of [re, im] number pairs"),
    ({"w": [[[[1, 0, 99], [0, 0]], [[0, 0], [0, 0]]]]}, "of [re, im] number pairs"),
    ({"w": [[[[1, 0], [0, 0]]]]}, "of [re, im] number pairs"),  # not square
    ({"w": [[SWAP]], "v": [[SWAP]]}, "explicit generators name unknown atoms ['v']"),
], ids=["not-a-list", "string-pair", "string-entry", "long-entry", "not-square", "unknown-atom"])
def test_explicit_generators_validated(explicit, message):
    problems = problems_of(variant(tower=["scalars", {"explicit": explicit}, "full"]))
    assert list(problems) == ["bundle/tower"]
    assert message in problems["bundle/tower"]


def test_explicit_weights_cover_the_run():
    assert parse_config(as_text(variant(weights=[1.0, 2.0, 3.0, 4.0], extension=1)))
    problems = problems_of(variant(weights=[1.0, 2.0, 3.0], extension=1))
    assert problems == {"weights": "explicit weights cover 3 steps, run needs 4"}
    assert "weights" in problems_of(variant(weights=[]))


def test_integers_beyond_float_range_rejected():
    # JSON integers are unbounded; every number of the config must convert to a float
    huge = 10 ** 400
    assert list(problems_of(variant(bundle_mu=[huge]))) == ["bundle.mu[0]"]
    assert list(problems_of(variant(bundle_trace_weights=[[huge]]))) == [
        "bundle.trace_weights[0][0]"
    ]
    assert list(problems_of(variant(exponents=[1, huge]))) == ["exponents[1]"]
    assert list(problems_of(variant(weights=[1, 1, huge]))) == ["weights[2]"]
    assert list(problems_of(variant(tolerances={"cesaro": huge}))) == ["tolerances.cesaro"]
    level = {"explicit": {"w": [[[[huge, 0], [0, 0]], [[0, 0], [1, 0]]]]}}
    assert list(problems_of(variant(tower=["scalars", level, "full"]))) == ["bundle/tower"]
