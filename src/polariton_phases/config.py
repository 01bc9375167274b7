"""JSON run-configuration parsing with strict schema and baseline defaults."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass

from .errors import ParseError, UnknownKey, DomainError
from .optics import OpticalConfig

log = logging.getLogger("polariton_phases")


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


# (check, description) of a valid value.
_NUMBER = (_is_number, "a finite number")
_OPTIONAL_NUMBER = (lambda x: x is None or _is_number(x),
                    "a finite number or null")
_INT = (_is_int, "an integer")
_BOOL = (lambda x: isinstance(x, bool), "true or false")
_RANGE = (_is_range, "[min, max, integer count >= 2]")
# Every key of every section: (default, check, description of a valid value).
SECTIONS = {
    "optics": {f.name: (f.default, *_NUMBER)
               for f in dataclasses.fields(OpticalConfig)},
    "sweep": {
        "delta_p_range": ([2.0, 100.0, 50], *_RANGE),
        "omega_range": ([0.5, 3.0, 50], *_RANGE),
    },
    "nlse": {
        # None: derive from the optics map
        "v1_over_er": (None, *_OPTIONAL_NUMBER),
        "g_int": (None, *_OPTIONAL_NUMBER),
        "kappa_dimless": (0.0, *_NUMBER),
        "n_periods": (8, *_INT),
        "grid_points": (256, *_INT),
        "schedule": ([], _list_of(_list_of(_is_number, 4)),
                     "a list of [tau, v1_over_er, g_int, kappa] entries"),
        "dt": (1e-3, *_NUMBER),
        "steps": (2000, lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
        "record_every": (10, lambda x: _is_int(x) and x >= 1,
                         "an integer >= 1"),
    },
    "ed": {
        "sizes": ([4, 6], _list_of(_is_int), "a list of integers"),
        "ratios": ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                   _list_of(_is_number), "a list of finite numbers"),
        "n_max": (4, *_INT),
        "periodic": (True, *_BOOL),
    },
    "output": {
        "directory": ("out", lambda x: isinstance(x, str) and "\0" not in x,
                      "a string without a NUL byte"),
        "emit_plot_script": (False, *_BOOL),
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
        return {**vars(self), "optics": dataclasses.asdict(self.optics)}

    def hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _merge_section(doc: dict, name: str) -> dict:
    given = doc.get(name, {})
    if not isinstance(given, dict):
        raise ParseError(f"section '{name}' must be a JSON object")
    keys = SECTIONS[name]
    unknown = set(given) - set(keys)
    if unknown:
        raise UnknownKey(f"unknown key(s) in section '{name}': {sorted(unknown)}")
    merged = {key: given.get(key, default)
              for key, (default, _, _) in keys.items()}
    defaulted = [key for key in keys if key not in given]
    if defaulted and log.isEnabledFor(logging.INFO):  # one record a section
        log.info("; ".join(f"config: {name}.{key} defaulted to "
                           f"{merged[key]!r}" for key in defaulted))
    for key, (_, check, kind) in keys.items():
        if key in given and not check(given[key]):
            raise ParseError(f"{name}.{key} must be {kind}, "
                             f"got {given[key]!r}")
    return merged


def load_config(path) -> RunConfig:
    """Read, validate and default-fill a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"col {exc.colno}): {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past Python's digit limit, or nested too deep
        raise ParseError(f"config {path} cannot be decoded: "
                         f"{type(exc).__name__}: {exc}") from exc
    return from_dict(doc)


def from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    unknown = set(doc) - set(SECTIONS)
    if unknown:
        raise UnknownKey(f"unknown top-level section(s): {sorted(unknown)}")

    optics_fields = _merge_section(doc, "optics")
    try:
        optics = OpticalConfig(**optics_fields)
    except DomainError as exc:
        raise ParseError(f"invalid optics section: {exc}") from exc

    # every section after optics, in the order SECTIONS lists them
    return RunConfig(optics=optics, **{name: _merge_section(doc, name)
                                       for name in list(SECTIONS)[1:]})


def default_config() -> RunConfig:
    return from_dict({})
