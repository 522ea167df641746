"""Field rules and the JSON-object mapper behind every input document.

A field rule is a pair (predicate, description of a valid value).
``validate`` checks a frozen dataclass against a dict of rules, ``read_json``
reads a document file and ``build`` makes a dataclass from its JSON object, one
key per field. Each caller passes the error class its module raises, so a scenario
defect is a ``ScenarioError`` and a plant-parameter defect a ``PlantError``;
either names the file, field or key.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import MISSING, fields
from pathlib import Path


def finite(v) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


POSITIVE = (lambda v: finite(v) and v > 0, "positive and finite")
NON_NEGATIVE = (lambda v: finite(v) and v >= 0, "non-negative and finite")
FINITE = (finite, "finite")


def between(low: float, high: float, zero: bool = False):
    """A number in [low, high], or also 0 when ``zero`` is set."""
    return (lambda v: finite(v) and (low <= v <= high or zero and v == 0),
            f"{'0 or ' if zero else ''}between {low:g} and {high:g}")


def count(low: int):
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low,
            f"an integer >= {low}")


def optional(rule):
    return lambda v: v is None or rule[0](v), f"None or {rule[1]}"


def one_of(*options):
    return lambda v: any(type(v) is type(o) and v == o for o in options), f"one of {options}"


def instance(cls, want: str):
    return lambda v: isinstance(v, cls), want


def entries(n: int, rule):
    return (lambda v: isinstance(v, (tuple, list)) and len(v) == n and all(map(rule[0], v)),
            f"{n} entries, each {rule[1]}")


def validate(error: type[Exception], prefix: str, spec, rules: dict) -> None:
    """Raise ``error`` naming (after ``prefix``) the first field its rule rejects."""
    for name, (ok, want) in rules.items():
        value = getattr(spec, name)
        if not ok(value):
            raise error(f"{prefix}{name}={value!r} must be {want}")


def read_json(error: type[Exception], path: str | Path, kind: str):
    """The JSON document in ``path``; any other file is an ``error`` naming the ``kind`` file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{kind} file {path} is not JSON: {exc}") from exc


def object_fields(error: type[Exception], raw, section: str, names) -> dict:
    """The JSON object ``raw`` with lists as tuples; a key outside ``names`` is refused."""
    if not isinstance(raw, dict):
        raise error(f"{section} must be an object, got {raw!r}")
    for key in raw:
        if key not in names:
            raise error(f"{section} has unknown key {key!r}; known: {', '.join(names)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def build(error: type[Exception], cls, raw, section: str):
    """``cls`` from the JSON object ``raw``, one key per field; ``cls`` checks each value."""
    spec = fields(cls)
    kwargs = object_fields(error, raw, section, [f.name for f in spec])
    for f in spec:
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{section} is missing the key {f.name!r}")
    return cls(**kwargs)
