"""Scenario files: a strict, versioned YAML schema describing one simulation.

Conventions (matching the trapped-ion literature):
  - the model section holds `kind` and the parameters models.MODEL_FIELDS
    requires of that kind (TwoTone may add models.TWO_TONE_OPTIONAL);
  - every frequency-like field (g, Omega, nu, delta_r, delta_b, omega_R,
    omega0_R) is given in units of 2*pi*kHz, i.e. the file value 11.31 means
    an angular frequency 2*pi * 11.31 kHz;
  - phases are radians, eta and alpha are dimensionless;
  - times.t_end and outputs.snapshot_times are in cycles of 2*pi/g, so the
    coupling g (eta*Omega/2 for TwoTone) must be > 0;
    snapshot_times is validated and echoed in the metadata only, since no
    output writes a state snapshot;
  - `name` is the output directory below --out: a relative path with no
    empty, '.' or '..' part (a sweep point's is <name>/<tag>);
  - `truncation` (the phonon cutoff n_max) is optional; when it is absent,
    runner.auto_n_max picks it from the model and the initial state;
  - a thermal initial state is a density matrix, so it needs a `lindblad`
    section (gamma_ratio 0 for none).

Landscape configs (`ionrabi landscape --config`) share the header fields
and hold one `landscape` section instead of model/initial/times.

Unknown keys are rejected everywhere (strict mode) and errors carry the
offending key path.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import asdict, dataclass, field

from .errors import SchemaError
from .models import MODEL_FIELDS, MODEL_KINDS, TWO_TONE_OPTIONAL, ModelSpec

__all__ = ["Scenario", "parse_scenario", "scenario_from_dict", "landscape_from_dict",
           "parse_landscape", "KHZ", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
KHZ = 2.0 * math.pi * 1e3  # config value 1.0 == 2*pi kHz, in rad/s

OBSERVABLES = ("sigma_z", "fidelity", "n_mean", "phonons")

_FREQ_FIELDS = ("g", "Omega", "nu", "delta_r", "delta_b", "omega_R", "omega0_R")


@functools.cache
def YamlLoader():
    """The yaml.SafeLoader subclass that also reads YAML 1.2 floats such as
    1e1 and 1e-3, which YAML 1.1 takes as strings; the global SafeLoader is
    left unchanged.  Built on the first call, which imports yaml, so that
    importing the package does not."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    return Loader


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _need_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _need_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _need_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _need_min(value, minimum, path: str, need=_need_number, strict=False):
    """`need(value)`, required to be >= minimum (> minimum when strict)."""
    value = need(value, path)
    if not (value > minimum if strict else value >= minimum):
        _fail(path, f"must be {'>' if strict else '>='} {minimum}")
    return value


def _need_version(value, path: str) -> int:
    version = _need_int(value, path)
    if version != SCHEMA_VERSION:
        _fail(path, f"unsupported version {version}; this build reads version {SCHEMA_VERSION}")
    return version


def _need_name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    if any(part in ("", ".", "..") for part in value.split("/")):
        _fail(path, f"expected a relative path without empty, '.' or '..' parts, got {value!r}")
    return value


def _check_keys(section: dict, allowed: set, required: set, path: str):
    unknown = set(section) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(section)
    if missing:
        _fail(path, f"missing required key(s) {sorted(missing)}")


@dataclass
class Scenario:
    """Validated scenario, holding config-unit values (2*pi*kHz, cycles)."""

    name: str
    model: dict
    initial: dict
    times: dict
    outputs: dict = field(default_factory=lambda: {
        "observables": list(OBSERVABLES), "snapshot_times": []})
    lindblad: dict | None = None
    truncation: int | None = None
    schema_version: int = SCHEMA_VERSION

    def model_spec(self) -> ModelSpec:
        """ModelSpec with frequencies converted from 2*pi*kHz to rad/s."""
        kw = {}
        for key, value in self.model.items():
            if key in _FREQ_FIELDS:
                kw[key] = value * KHZ
            else:
                kw[key] = value
        return ModelSpec(**kw)

    def to_dict(self) -> dict:
        """A deep copy of the fields as a scenario document, unset sections left out."""
        return {key: value for key, value in asdict(self).items() if value is not None}


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    doc = _need_mapping(doc, source)
    _check_keys(doc, {"schema_version", "name", "model", "initial", "times",
                      "outputs", "lindblad", "truncation"},
                {"schema_version", "name", "model", "initial", "times"}, source)

    version = _need_version(doc["schema_version"], f"{source}.schema_version")
    _need_name(doc["name"], f"{source}.name")

    model = _need_mapping(doc["model"], f"{source}.model")
    kind = model.get("kind")
    if kind not in MODEL_KINDS:
        _fail(f"{source}.model.kind", f"expected one of {MODEL_KINDS}, got {kind!r}")
    required = {"kind"} | MODEL_FIELDS[kind]
    optional = TWO_TONE_OPTIONAL if kind == "TwoTone" else set()
    _check_keys(model, required | optional, required, f"{source}.model")
    clean_model = {"kind": kind}
    for key in sorted(set(model) - {"kind"}):
        clean_model[key] = _need_number(model[key], f"{source}.model.{key}")

    initial = _need_mapping(doc["initial"], f"{source}.initial")
    ikind = initial.get("kind")
    if ikind not in ("fock", "coherent", "thermal"):
        _fail(f"{source}.initial.kind",
              f"expected fock|coherent|thermal, got {ikind!r}")
    param = {"fock": "n", "coherent": "alpha", "thermal": "nbar"}[ikind]
    _check_keys(initial, {"kind", param, "qubit"}, {"kind", param}, f"{source}.initial")
    clean_initial = {"kind": ikind}
    if ikind == "fock":
        clean_initial["n"] = _need_min(initial["n"], 0, f"{source}.initial.n", _need_int)
    elif ikind == "coherent":
        clean_initial["alpha"] = _need_number(initial["alpha"], f"{source}.initial.alpha")
    else:
        clean_initial["nbar"] = _need_min(initial["nbar"], 0, f"{source}.initial.nbar")
    qubit = initial.get("qubit", "down")
    if qubit not in ("down", "up"):
        _fail(f"{source}.initial.qubit", f"expected down|up, got {qubit!r}")
    clean_initial["qubit"] = qubit

    times = _need_mapping(doc["times"], f"{source}.times")
    _check_keys(times, {"t_end", "n_points"}, {"t_end", "n_points"}, f"{source}.times")
    t_end = _need_min(times["t_end"], 0, f"{source}.times.t_end", strict=True)
    n_points = _need_min(times["n_points"], 2, f"{source}.times.n_points", _need_int)
    clean_times = {"t_end": t_end, "n_points": n_points}

    outputs = doc.get("outputs")
    outputs = {} if outputs is None else _need_mapping(outputs, f"{source}.outputs")
    _check_keys(outputs, {"observables", "snapshot_times"}, set(), f"{source}.outputs")
    observables = outputs.get("observables", list(OBSERVABLES))
    if not isinstance(observables, list) or not observables:
        _fail(f"{source}.outputs.observables", "expected a non-empty list")
    for obs in observables:
        if obs not in OBSERVABLES:
            _fail(f"{source}.outputs.observables",
                  f"unknown observable {obs!r}; allowed: {OBSERVABLES}")
    snapshot_times = outputs.get("snapshot_times", [])
    if not isinstance(snapshot_times, list):
        _fail(f"{source}.outputs.snapshot_times", "expected a list of times (cycles)")
    snapshot_times = [_need_number(v, f"{source}.outputs.snapshot_times[{i}]")
                      for i, v in enumerate(snapshot_times)]
    clean_outputs = {"observables": list(observables), "snapshot_times": snapshot_times}

    lindblad = doc.get("lindblad")
    clean_lindblad = None
    if lindblad is not None:
        lindblad = _need_mapping(lindblad, f"{source}.lindblad")
        _check_keys(lindblad, {"gamma_ratio"}, {"gamma_ratio"}, f"{source}.lindblad")
        ratio = _need_min(lindblad["gamma_ratio"], 0, f"{source}.lindblad.gamma_ratio")
        if kind == "TwoTone":
            _fail(f"{source}.lindblad", "dissipative evolution of the time-dependent "
                  "two-tone drive is not supported")
        clean_lindblad = {"gamma_ratio": ratio}
    elif ikind == "thermal":
        _fail(f"{source}.initial", "a thermal start is a density matrix and needs a "
              "lindblad section; gamma_ratio: 0 runs it without dissipation")

    truncation = doc.get("truncation")
    if truncation is not None:
        truncation = _need_min(truncation, 1, f"{source}.truncation", _need_int)

    scenario = Scenario(
        name=doc["name"],
        model=clean_model,
        initial=clean_initial,
        times=clean_times,
        outputs=clean_outputs,
        lindblad=clean_lindblad,
        truncation=truncation,
        schema_version=version,
    )
    try:  # surface model-level validation errors at parse time
        spec = scenario.model_spec()
    except ValueError as exc:
        _fail(f"{source}.model", str(exc))
    if not spec.g > 0:  # a QRM may take g = 0, a TwoTone Omega <= 0
        _fail(f"{source}.model", f"the coupling g must be > 0, as times are in cycles "
              f"of 2*pi/g; got g = {spec.g / KHZ:.6g} (2*pi*kHz)")
    return scenario


def _load_yaml(path):
    import yaml

    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=YamlLoader())
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if doc is None:
        raise SchemaError(f"{path}: empty scenario file")
    return doc


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    return scenario_from_dict(_load_yaml(path), source=str(path))


def landscape_from_dict(section: dict, source: str) -> dict:
    """Validated landscape grid: n_min (default 0), n_max, eta_min, eta_max,
    eta_points."""
    section = _need_mapping(section, source)
    _check_keys(section, {"n_min", "n_max", "eta_min", "eta_max", "eta_points"},
                {"n_max", "eta_min", "eta_max", "eta_points"}, source)
    n_min = _need_min(section.get("n_min", 0), 0, f"{source}.n_min", _need_int)
    n_max = _need_min(section["n_max"], n_min, f"{source}.n_max", _need_int)
    eta_min = _need_min(section["eta_min"], 0, f"{source}.eta_min")
    eta_max = _need_min(section["eta_max"], 0, f"{source}.eta_max")
    eta_points = _need_min(section["eta_points"], 1, f"{source}.eta_points", _need_int)
    return {"n_min": n_min, "n_max": n_max, "eta_min": eta_min, "eta_max": eta_max,
            "eta_points": eta_points}


def parse_landscape(path) -> tuple[str, dict]:
    """Read and validate a landscape config file: (name, landscape grid)."""
    source = str(path)
    doc = _need_mapping(_load_yaml(path), source)
    _check_keys(doc, {"schema_version", "name", "landscape"},
                {"schema_version", "landscape"}, source)
    _need_version(doc["schema_version"], f"{source}.schema_version")
    name = _need_name(doc.get("name", "landscape"), f"{source}.name")
    return name, landscape_from_dict(doc["landscape"], f"{source}.landscape")
