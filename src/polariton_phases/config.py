"""JSON run-configuration parsing with strict schema and baseline defaults."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass

from .errors import ParseError, UnknownKey, DomainError, PoleError
from .optics import OpticalConfig, validate_config

log = logging.getLogger("polariton_phases")

SWEEP_DEFAULTS = {
    "delta_p_range": [2.0, 100.0, 50],
    "omega_range": [0.5, 3.0, 50],
}
NLSE_DEFAULTS = {
    "v1_over_er": None,       # None: derive from the optics map
    "g_int": None,
    "kappa_dimless": 0.0,
    "n_periods": 8,
    "grid_points": 256,
    "schedule": [],
    "dt": 1e-3,
    "steps": 2000,
    "record_every": 10,
}
ED_DEFAULTS = {
    "sizes": [4, 6],
    "ratios": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    "n_max": 4,
    "periodic": True,
}
OUTPUT_DEFAULTS = {
    "directory": "out",
    "emit_plot_script": False,
}


def _is_number(x) -> bool:
    """A finite JSON number (bool is not one)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an int beyond the float range
        return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list_of(check, length=None):
    def is_list(x):
        return (isinstance(x, list) and (length is None or len(x) == length)
                and all(map(check, x)))
    return is_list


def _is_range(x) -> bool:
    return (isinstance(x, list) and len(x) == 3 and _is_number(x[0])
            and _is_number(x[1]) and _is_int(x[2]) and x[2] >= 2)


def _is_optional_number(x) -> bool:
    return x is None or _is_number(x)


# (check, description) of the value of every key.
_NUMBER = (_is_number, "a finite number")
_INT = (_is_int, "an integer")
_BOOL = (lambda x: isinstance(x, bool), "true or false")
VALUE_TYPES = {
    "optics": {f.name: _NUMBER for f in dataclasses.fields(OpticalConfig)},
    "sweep": {
        "delta_p_range": (_is_range, "[min, max, integer count >= 2]"),
        "omega_range": (_is_range, "[min, max, integer count >= 2]"),
    },
    "nlse": {
        "v1_over_er": (_is_optional_number, "a finite number or null"),
        "g_int": (_is_optional_number, "a finite number or null"),
        "kappa_dimless": _NUMBER,
        "n_periods": _INT,
        "grid_points": _INT,
        "schedule": (_list_of(_list_of(_is_number, 4)),
                     "a list of [tau, v1_over_er, g_int, kappa] entries"),
        "dt": _NUMBER,
        "steps": _INT,
        "record_every": (lambda x: _is_int(x) and x >= 1,
                         "an integer >= 1"),
    },
    "ed": {
        "sizes": (_list_of(_is_int), "a list of integers"),
        "ratios": (_list_of(_is_number), "a list of finite numbers"),
        "n_max": _INT,
        "periodic": _BOOL,
    },
    "output": {
        "directory": (lambda x: isinstance(x, str), "a string"),
        "emit_plot_script": _BOOL,
    },
}


@dataclass(frozen=True)
class RunConfig:
    optics: OpticalConfig
    sweep: dict
    nlse: dict
    ed: dict
    output: dict

    def resolved(self) -> dict:
        return {
            "optics": dataclasses.asdict(self.optics),
            "sweep": self.sweep,
            "nlse": self.nlse,
            "ed": self.ed,
            "output": self.output,
        }

    def hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _merge_section(name: str, given, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise ParseError(f"section '{name}' must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise UnknownKey(f"unknown key(s) in section '{name}': {sorted(unknown)}")
    merged = dict(defaults)
    for key, default in defaults.items():
        if key in given:
            merged[key] = given[key]
        else:
            log.info("config: %s.%s defaulted to %r", name, key, default)
    for key, (check, kind) in VALUE_TYPES[name].items():
        if key in given and not check(given[key]):
            raise ParseError(f"{name}.{key} must be {kind}, "
                             f"got {given[key]!r}")
    return merged


def load_config(path) -> RunConfig:
    """Read, validate and default-fill a JSON run configuration."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"col {exc.colno}): {exc.msg}"
        ) from exc
    return from_dict(doc)


def from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    known_sections = {"optics", "sweep", "nlse", "ed", "output"}
    unknown = set(doc) - known_sections
    if unknown:
        raise UnknownKey(f"unknown top-level section(s): {sorted(unknown)}")

    optics_defaults = dataclasses.asdict(OpticalConfig())
    optics_fields = _merge_section("optics", doc.get("optics", {}),
                                   optics_defaults)
    try:
        optics = OpticalConfig(**optics_fields)
        validate_config(optics)
    except (DomainError, PoleError) as exc:
        raise ParseError(f"invalid optics section: {exc}") from exc

    return RunConfig(
        optics=optics,
        sweep=_merge_section("sweep", doc.get("sweep", {}), SWEEP_DEFAULTS),
        nlse=_merge_section("nlse", doc.get("nlse", {}), NLSE_DEFAULTS),
        ed=_merge_section("ed", doc.get("ed", {}), ED_DEFAULTS),
        output=_merge_section("output", doc.get("output", {}),
                              OUTPUT_DEFAULTS),
    )


def default_config() -> RunConfig:
    return from_dict({})
