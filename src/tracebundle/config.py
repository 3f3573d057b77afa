"""Strict, seed-mandatory experiment configuration.

Configs are JSON documents with a closed schema: unknown fields are errors,
the seed is required (no entropy defaults), and every validation problem is
reported with its field path.  Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .bundle import BundleSpec
from .center import MeasureSpace
from .errors import ConfigError, TraceBundleError, UsageError
from .fiber import FiberElement
from .towers import level_generators

DEFAULT_TOLERANCES = {
    "trace_axioms": 1e-10,
    "faithfulness_norm": 1e-5,
    "condexp_axioms": 1e-9,
    "duality_violation": 1e-9,
    "duality_attainment": 1e-8,
    "martingale_defect": 1e-9,
    "martingale_terminal": 1e-10,
    "pythagoras": 1e-8,
    "sup_gap": 1e-9,
    "cesaro": 1e-2,
}

DEFAULT_TRIALS = {
    "trace_sections": 200,
    "axioms": 100,
    "duality_sections": 5,
    "duality_samples": 100,
    "martingale_seeds": 10,
}

# Held steps of the averaging experiments: each one is a weight and, per atom
# and seed, a row of traces.csv.
MAX_EXTENSION = 100_000

_CSV_UNSAFE_MESSAGE = (
    'must not contain ",", a double quote, CR or LF (it is written to CSV artifacts)'
)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    # a number that converts to a finite float (JSON integers may exceed the float range)
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_positive(v) -> bool:
    return _is_finite(v) and v > 0


def _is_count(v) -> bool:
    return _is_int(v) and v >= 1


def _is_shape(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_count(n) for n in v)


def _is_label(v) -> bool:
    return isinstance(v, str)


def _csv_safe(v) -> bool:
    return not isinstance(v, str) or not any(c in v for c in ',"\r\n')


# Required top-level fields: (type, what the value must be).
_REQUIRED = {
    "experiment_id": (str, "a string"),
    "seed": (int, "an integer (reproducibility contract: no entropy defaults)"),
    "bundle": (dict, "an object"),
    "tower": (list, "a list of level specs"),
    "exponents": (list, "a list of exponents >= 1"),
}

# The per-atom lists of the "bundle" object: (message when it is not a list,
# message when its length is not one per atom, element check, element message).
_BUNDLE = {
    "atoms": ("must be a non-empty list of labels", None, None, None),
    "mu": ("must be a list of positive weights", "needs one weight per atom",
           _is_positive, "must be a finite number > 0"),
    "fiber_shapes": ("must be a list of block-dim lists", "needs one shape per atom",
                     _is_shape, "must be a non-empty list of ints >= 1"),
    "trace_weights": ("must be a list of weight lists", "needs one weight list per atom",
                      None, None),
}

# Optional objects that override defaults key by key: (defaults, check, message, conversion).
_OVERRIDES = {
    "trials": (DEFAULT_TRIALS, _is_count, "must be an integer >= 1", int),
    "tolerances": (DEFAULT_TOLERANCES, _is_positive, "must be a finite number > 0", float),
}


class ExperimentConfig:
    def __init__(self, experiment_id: str, atoms: list, mu: list, fiber_shapes: list,
                 trace_weights: list, tower: list, exponents: list, weights, seed: int,
                 trials: dict = None, tolerances: dict = None, extension: int = 0):
        self.experiment_id, self.atoms, self.mu = experiment_id, atoms, mu
        self.fiber_shapes, self.trace_weights = fiber_shapes, trace_weights
        self.tower, self.exponents = tower, exponents
        self.weights = weights  # "uniform" | "linear" | explicit list
        self.seed = seed
        self.trials = {} if trials is None else trials
        self.tolerances = {} if tolerances is None else tolerances
        self.extension = extension

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is ExperimentConfig else NotImplemented

    def build_bundle(self) -> BundleSpec:
        space = MeasureSpace(self.atoms, self.mu)
        return BundleSpec(space, self.fiber_shapes, self.trace_weights)

    def tower_generators(self, bundle: BundleSpec):
        """Per level, per atom generator lists resolved from the tower specs."""
        levels = []
        for spec in self.tower:
            if isinstance(spec, str):
                levels.append(level_generators(bundle, spec))
                continue
            explicit = spec["explicit"]
            unknown = sorted(set(explicit) - set(bundle.space.labels))
            if unknown:
                raise UsageError(f"explicit generators name unknown atoms {unknown}")
            levels.append(
                [_generators_from_json(label, shape, explicit.get(label, []))
                 for label, shape in zip(bundle.space.labels, bundle.fiber_shapes)]
            )
        return levels

    def weight_list(self, length: int) -> np.ndarray:
        if self.weights == "uniform":
            return np.ones(length)
        if self.weights == "linear":
            return np.arange(1.0, length + 1.0)
        w = np.array(self.weights, dtype=np.float64)
        if len(w) < length:
            raise UsageError(f"explicit weights cover {len(w)} steps, run needs {length}")
        return w[:length]

    def to_json_dict(self) -> dict:
        """The config document; its lists and objects are the config's own, not copies."""
        doc = dict(vars(self))
        doc["bundle"] = {key: doc.pop(key) for key in _BUNDLE}
        return doc


_TOP_KEYS = {*_REQUIRED, *_OVERRIDES, "weights", "extension"}


def _is_square(block) -> bool:
    return isinstance(block, list) and all(
        isinstance(row, list) and len(row) == len(block)
        and all(isinstance(c, list) and len(c) == 2 and all(map(_is_finite, c)) for c in row)
        for row in block
    )


def _generators_from_json(label, shape, mats) -> list:
    """Explicit generators of one atom, each a list of square blocks of [re, im] pairs."""
    if not isinstance(mats, list) or not all(
        isinstance(blocks, list) and all(map(_is_square, blocks)) for blocks in mats
    ):
        raise UsageError(
            f"explicit generators of atom {label!r} must be lists of square blocks "
            "of [re, im] number pairs"
        )
    gens = [FiberElement([[[complex(*c) for c in row] for row in block] for block in blocks])
            for blocks in mats]
    for g in gens:
        if g.dims != shape:
            raise UsageError(
                f"explicit generator of atom {label!r} has block dims {g.dims}, "
                f"the fiber has {shape}"
            )
    return gens


def _check_keys(obj, allowed, path, problems):
    for key in obj:
        if key not in allowed:
            problems.append((f"{path}.{key}" if path else key, "unknown field"))


def _check_each(problems, path, items, check, message):
    for i, v in enumerate(items):
        if not check(v):
            problems.append((f"{path}[{i}]", message))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError listing every problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("<document>", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    problems: list = []
    _check_keys(doc, _TOP_KEYS, "", problems)
    values = {}
    for key, (typ, what) in _REQUIRED.items():
        if key not in doc:
            problems.append((key, "missing required field"))
        elif not isinstance(doc[key], typ):
            problems.append((key, f"must be {what}"))
        elif isinstance(doc[key], bool):
            problems.append((key, "must be an integer, not a boolean"))
        else:
            values[key] = doc[key]
    if not _csv_safe(values.get("experiment_id")):
        problems.append(("experiment_id", _CSV_UNSAFE_MESSAGE))

    bundle = values.pop("bundle", None)
    if bundle is not None:
        _check_keys(bundle, _BUNDLE, "bundle", problems)
        for key, (what, *_) in _BUNDLE.items():
            items = bundle.get(key)
            if isinstance(items, list) and (items or key != "atoms"):
                values[key] = items
            else:
                problems.append((f"bundle.{key}", what))
    atoms = values.get("atoms")
    if atoms is not None:
        _check_each(problems, "bundle.atoms", atoms, _is_label, "must be a string")
        _check_each(problems, "bundle.atoms", atoms, _csv_safe, _CSV_UNSAFE_MESSAGE)
        for key, (_, per_atom, check, message) in _BUNDLE.items():
            if key in values and per_atom and len(values[key]) != len(atoms):
                problems.append((f"bundle.{key}", per_atom))
            elif key in values and check:
                _check_each(problems, f"bundle.{key}", values[key], check, message)
    block_weights = values.get("trace_weights", [])
    if atoms and len(block_weights) == len(atoms):
        for i, (cs, shape) in enumerate(zip(block_weights, values.get("fiber_shapes", []))):
            if not isinstance(cs, list) or (isinstance(shape, list) and len(cs) != len(shape)):
                problems.append((f"bundle.trace_weights[{i}]", "needs one weight per block"))
            else:
                _check_each(problems, f"bundle.trace_weights[{i}]", cs, _is_positive,
                            "must be a finite number > 0 (trace faithfulness)")

    tower = values.get("tower")
    if tower is not None:
        if not tower:
            problems.append(("tower", "needs at least one level"))
        for i, level in enumerate(tower):
            if isinstance(level, dict):
                extra = set(level) - {"explicit"}
                if extra:
                    problems.append((f"tower[{i}]", f"unknown keys {sorted(extra)}"))
                if not isinstance(level.get("explicit"), dict):
                    problems.append((f"tower[{i}].explicit", "must map atom labels to matrices"))
            elif not isinstance(level, str):
                problems.append((f"tower[{i}]", "must be a preset string or an explicit object"))

    exponents = values.get("exponents")
    if exponents is not None:
        if not exponents:
            problems.append(("exponents", "needs at least one exponent"))
        _check_each(problems, "exponents", exponents,
                    lambda p: _is_finite(p) and p >= 1, "must be a number >= 1")
        first = {}  # check name "p={p:g}" of the duality checks -> first index
        for i, p in enumerate(exponents):
            if _is_finite(p) and p >= 1:
                j = first.setdefault(f"{float(p):g}", i)
                if j != i:
                    problems.append((f"exponents[{i}]", f"repeats the check name of exponents[{j}]"))

    for key, (defaults, check, message, convert) in _OVERRIDES.items():
        given = doc.get(key, {})
        values[key] = dict(defaults)
        if not isinstance(given, dict):
            problems.append((key, "must be an object"))
            continue
        _check_keys(given, defaults, key, problems)
        for name, v in given.items():
            if name in defaults:
                if check(v):
                    values[key][name] = convert(v)
                else:
                    problems.append((f"{key}.{name}", message))

    extension = values["extension"] = doc.get("extension", 0)
    if not _is_int(extension) or extension < 0:
        problems.append(("extension", "must be an integer >= 0"))
        extension = None
    elif extension > MAX_EXTENSION:
        problems.append(("extension", f"must be at most {MAX_EXTENSION}"))
        extension = None

    weights = values["weights"] = doc.get("weights", "uniform")
    if isinstance(weights, list):
        _check_each(problems, "weights", weights, _is_positive, "must be a finite number > 0")
        if tower is not None and extension is not None and len(weights) < len(tower) + extension:
            problems.append(("weights", f"explicit weights cover {len(weights)} steps, "
                                        f"run needs {len(tower) + extension}"))
    elif weights not in ("uniform", "linear"):
        problems.append(("weights", 'must be "uniform", "linear", or an explicit list'))

    if problems:
        raise ConfigError(problems)

    values["mu"] = [float(v) for v in values["mu"]]
    values["trace_weights"] = [[float(c) for c in cs] for cs in values["trace_weights"]]
    values["exponents"] = [float(p) for p in exponents]
    cfg = ExperimentConfig(**values)
    try:
        cfg.tower_generators(cfg.build_bundle())
    except TraceBundleError as exc:
        raise ConfigError([("bundle/tower", str(exc))]) from None
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text (stable key order, stable float repr)."""
    return json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
