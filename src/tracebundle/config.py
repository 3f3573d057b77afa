"""Strict, seed-mandatory experiment configuration.

Configs are JSON documents with a closed schema: unknown fields are errors,
the seed is required (no entropy defaults), and every validation problem is
reported with its field path.  Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .bundle import BundleSpec
from .center import MeasureSpace
from .errors import ConfigError, TraceBundleError, UsageError
from .fiber import FiberElement
from .towers import fiber_level_generators

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

_TOP_KEYS = {
    "experiment_id", "bundle", "tower", "exponents", "weights",
    "seed", "trials", "tolerances", "extension", "outputs",
}
_BUNDLE_KEYS = {"atoms", "mu", "fiber_shapes", "trace_weights"}
_OUTPUT_KEYS = {"summary", "traces"}
_CSV_UNSAFE = (",", '"', "\r", "\n")
_CSV_UNSAFE_MESSAGE = (
    'must not contain ",", a double quote, CR or LF (it is written to CSV artifacts)'
)


@dataclass
class ExperimentConfig:
    experiment_id: str
    atoms: list
    mu: list
    fiber_shapes: list
    trace_weights: list
    tower: list
    exponents: list
    weights: object            # "uniform" | "linear" | explicit list
    seed: int
    trials: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    extension: int = 0
    outputs: dict = field(default_factory=lambda: {"summary": "summary.json", "traces": "traces.csv"})

    def build_bundle(self) -> BundleSpec:
        space = MeasureSpace(self.atoms, self.mu)
        return BundleSpec(space, self.fiber_shapes, self.trace_weights)

    def tower_generators(self, bundle: BundleSpec):
        """Per level, per atom generator lists resolved from the tower specs."""
        levels = []
        for spec in self.tower:
            if isinstance(spec, str):
                levels.append(
                    [fiber_level_generators(shape, spec) for shape in bundle.fiber_shapes]
                )
            else:
                per_atom = []
                for label, shape in zip(bundle.space.labels, bundle.fiber_shapes):
                    gens = []
                    for mat in spec["explicit"].get(label, []):
                        gens.append(_matrix_from_json(mat))
                    per_atom.append(gens)
                levels.append(per_atom)
        return levels

    def weight_list(self, length: int) -> list:
        if self.weights == "uniform":
            return [1.0] * length
        if self.weights == "linear":
            return [float(k + 1) for k in range(length)]
        w = [float(v) for v in self.weights]
        if len(w) < length:
            raise UsageError(
                f"explicit weights cover {len(w)} steps, run needs {length}"
            )
        return w[:length]

    def to_json_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "bundle": {
                "atoms": list(self.atoms),
                "mu": list(self.mu),
                "fiber_shapes": [list(map(int, s)) for s in self.fiber_shapes],
                "trace_weights": [list(map(float, c)) for c in self.trace_weights],
            },
            "tower": list(self.tower),
            "exponents": list(self.exponents),
            "weights": self.weights if isinstance(self.weights, str) else list(self.weights),
            "seed": self.seed,
            "trials": dict(self.trials),
            "tolerances": dict(self.tolerances),
            "extension": self.extension,
            "outputs": dict(self.outputs),
        }


def _matrix_from_json(blocks) -> FiberElement:
    mats = []
    for block in blocks:
        rows = []
        for row in block:
            rows.append([complex(float(c[0]), float(c[1])) for c in row])
        mats.append(np.array(rows, dtype=np.complex128))
    return FiberElement(mats)


def _check_keys(obj, allowed, path, problems):
    for key in obj:
        if key not in allowed:
            problems.append((f"{path}.{key}" if path else key, "unknown field"))


def _csv_unsafe(v) -> bool:
    return any(c in str(v) for c in _CSV_UNSAFE)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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

    def need(key, typ, typename):
        if key not in doc:
            problems.append((key, "missing required field"))
            return None
        if not isinstance(doc[key], typ):
            problems.append((key, f"must be {typename}"))
            return None
        return doc[key]

    experiment_id = need("experiment_id", str, "a string")
    if experiment_id is not None and _csv_unsafe(experiment_id):
        problems.append(("experiment_id", _CSV_UNSAFE_MESSAGE))
    seed = need("seed", int, "an integer (reproducibility contract: no entropy defaults)")
    if "seed" in doc and isinstance(doc.get("seed"), bool):
        problems.append(("seed", "must be an integer, not a boolean"))
        seed = None
    bundle = need("bundle", dict, "an object")
    tower = need("tower", list, "a list of level specs")
    exponents = need("exponents", list, "a list of exponents >= 1")

    atoms = mu = fiber_shapes = trace_weights = None
    if bundle is not None:
        _check_keys(bundle, _BUNDLE_KEYS, "bundle", problems)
        atoms = bundle.get("atoms")
        mu = bundle.get("mu")
        fiber_shapes = bundle.get("fiber_shapes")
        trace_weights = bundle.get("trace_weights")
        if not isinstance(atoms, list) or not atoms:
            problems.append(("bundle.atoms", "must be a non-empty list of labels"))
            atoms = None
        for i, label in enumerate(atoms or []):
            if _csv_unsafe(label):
                problems.append((f"bundle.atoms[{i}]", _CSV_UNSAFE_MESSAGE))
        if not isinstance(mu, list):
            problems.append(("bundle.mu", "must be a list of positive weights"))
            mu = None
        if not isinstance(fiber_shapes, list):
            problems.append(("bundle.fiber_shapes", "must be a list of block-dim lists"))
            fiber_shapes = None
        if not isinstance(trace_weights, list):
            problems.append(("bundle.trace_weights", "must be a list of weight lists"))
            trace_weights = None
        if atoms is not None and mu is not None:
            if len(mu) != len(atoms):
                problems.append(("bundle.mu", "needs one weight per atom"))
            else:
                for i, v in enumerate(mu):
                    if not _is_number(v) or not np.isfinite(v) or v <= 0:
                        problems.append((f"bundle.mu[{i}]", "must be a finite number > 0"))
        if atoms is not None and fiber_shapes is not None:
            if len(fiber_shapes) != len(atoms):
                problems.append(("bundle.fiber_shapes", "needs one shape per atom"))
            else:
                for i, shape in enumerate(fiber_shapes):
                    if (not isinstance(shape, list) or not shape
                            or any(not _is_int(n) or n < 1 for n in shape)):
                        problems.append(
                            (f"bundle.fiber_shapes[{i}]", "must be a non-empty list of ints >= 1")
                        )
        if atoms is not None and trace_weights is not None and fiber_shapes is not None:
            if len(trace_weights) != len(atoms):
                problems.append(("bundle.trace_weights", "needs one weight list per atom"))
            else:
                for i, (cs, shape) in enumerate(zip(trace_weights, fiber_shapes)):
                    if not isinstance(cs, list) or (
                        isinstance(shape, list) and len(cs) != len(shape)
                    ):
                        problems.append(
                            (f"bundle.trace_weights[{i}]", "needs one weight per block")
                        )
                        continue
                    for j, c in enumerate(cs):
                        if not _is_number(c) or not np.isfinite(c) or c <= 0:
                            problems.append(
                                (f"bundle.trace_weights[{i}][{j}]",
                                 "must be a finite number > 0 (trace faithfulness)")
                            )

    if tower is not None:
        if not tower:
            problems.append(("tower", "needs at least one level"))
        for i, level in enumerate(tower):
            if isinstance(level, str):
                continue
            if isinstance(level, dict):
                extra = set(level) - {"explicit"}
                if extra:
                    problems.append((f"tower[{i}]", f"unknown keys {sorted(extra)}"))
                if not isinstance(level.get("explicit"), dict):
                    problems.append((f"tower[{i}].explicit", "must map atom labels to matrices"))
            else:
                problems.append((f"tower[{i}]", "must be a preset string or an explicit object"))

    if exponents is not None:
        if not exponents:
            problems.append(("exponents", "needs at least one exponent"))
        for i, p in enumerate(exponents):
            if not _is_number(p) or not np.isfinite(p) or p < 1:
                problems.append((f"exponents[{i}]", "must be a number >= 1"))

    weights = doc.get("weights", "uniform")
    if not (weights in ("uniform", "linear") or isinstance(weights, list)):
        problems.append(("weights", 'must be "uniform", "linear", or an explicit list'))
    if isinstance(weights, list):
        for i, v in enumerate(weights):
            if not _is_number(v) or not np.isfinite(v) or v <= 0:
                problems.append((f"weights[{i}]", "must be a finite number > 0"))

    trials = dict(DEFAULT_TRIALS)
    if "trials" in doc:
        if not isinstance(doc["trials"], dict):
            problems.append(("trials", "must be an object"))
        else:
            _check_keys(doc["trials"], set(DEFAULT_TRIALS), "trials", problems)
            for key, v in doc["trials"].items():
                if key in DEFAULT_TRIALS:
                    if not _is_int(v) or v < 1:
                        problems.append((f"trials.{key}", "must be an integer >= 1"))
                    else:
                        trials[key] = v

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in doc:
        if not isinstance(doc["tolerances"], dict):
            problems.append(("tolerances", "must be an object"))
        else:
            _check_keys(doc["tolerances"], set(DEFAULT_TOLERANCES), "tolerances", problems)
            for key, v in doc["tolerances"].items():
                if key in DEFAULT_TOLERANCES:
                    if not _is_number(v) or not np.isfinite(v) or v <= 0:
                        problems.append((f"tolerances.{key}", "must be a finite number > 0"))
                    else:
                        tolerances[key] = float(v)

    extension = doc.get("extension", 0)
    if not _is_int(extension) or extension < 0:
        problems.append(("extension", "must be an integer >= 0"))
        extension = 0

    outputs = {"summary": "summary.json", "traces": "traces.csv"}
    if "outputs" in doc:
        if not isinstance(doc["outputs"], dict):
            problems.append(("outputs", "must be an object"))
        else:
            _check_keys(doc["outputs"], _OUTPUT_KEYS, "outputs", problems)
            for key in _OUTPUT_KEYS:
                if key in doc["outputs"]:
                    if not isinstance(doc["outputs"][key], str) or not doc["outputs"][key]:
                        problems.append((f"outputs.{key}", "must be a non-empty file name"))
                    else:
                        outputs[key] = doc["outputs"][key]

    if problems:
        raise ConfigError(problems)

    cfg = ExperimentConfig(
        experiment_id=experiment_id,
        atoms=list(atoms),
        mu=[float(v) for v in mu],
        fiber_shapes=[list(map(int, s)) for s in fiber_shapes],
        trace_weights=[list(map(float, c)) for c in trace_weights],
        tower=list(tower),
        exponents=[float(p) for p in exponents],
        weights=weights,
        seed=seed,
        trials=trials,
        tolerances=tolerances,
        extension=extension,
        outputs=outputs,
    )
    try:
        bundle = cfg.build_bundle()
        cfg.tower_generators(bundle)
    except TraceBundleError as exc:
        raise ConfigError([("bundle/tower", str(exc))]) from None
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text (stable key order, stable float repr)."""
    return json.dumps(cfg.to_json_dict(), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
