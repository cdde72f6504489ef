"""FLD v1 on-disk format.

An FLD file is a JSON object::

    {
      "version": 1,
      "ambient_dim": 3,
      "generators": [
        {"id": "min",   "kind": "crit", "degree": 0},
        {"id": "dp0ab", "kind": "pair", "degree": 4,
         "action": 1.0, "partner": "dp0ba"},
        ...
      ],
      "differential": [{"from": "dp0ba", "to": "min"}, ...]
    }

``action`` and ``partner`` appear on pair generators only.  Repeated
differential entries are preserved verbatim (entries count mod 2 when the
matrix is assembled), so a file round-trips without changing the datum.
Export is canonical: generators sort by id, entries sort by (from, to),
floats print in shortest round-trip form — identical datums produce
byte-identical files.

Structural problems (wrong version, missing or unknown fields, wrong
types, non-finite numbers such as ``NaN`` or ``Infinity``) raise
:class:`FormatError`; semantic problems are left to the validation layer.
The degeneration-pattern files of :mod:`pearl_floer.audit` share the
strict JSON reader and the error type.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .floer import FloerDatum, Generator

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
    "datum_to_dict",
    "datum_from_dict",
    "dumps_datum",
    "loads_datum",
    "save_datum",
    "load_datum",
]

FORMAT_VERSION = 1


class FormatError(Exception):
    """The file is not structurally valid FLD v1 (or pattern) data."""


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _require_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise FormatError(f"{where} must be a nonempty string, got {value!r}")
    return value


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise FormatError(f"{where} must be finite, got {value!r}")
    return float(value)


def _reject_constant(name: str) -> None:
    raise FormatError(f"non-finite number {name} is not allowed")


def _parse_json(text: str) -> Any:
    """Strict JSON: NaN and +-Infinity literals are refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise FormatError(f"not valid JSON: {err}") from err


def datum_to_dict(datum: FloerDatum) -> dict:
    """Canonical JSON-ready dictionary for a datum."""
    generators = []
    for gen in sorted(datum.generators, key=lambda g: g.id):
        entry: dict[str, Any] = {
            "id": gen.id,
            "kind": gen.kind,
            "degree": gen.degree,
        }
        if gen.kind == "pair":
            entry["action"] = gen.action
            entry["partner"] = gen.partner
        generators.append(entry)
    differential = [
        {"from": src, "to": dst} for src, dst in sorted(datum.differential)
    ]
    return {
        "version": FORMAT_VERSION,
        "ambient_dim": datum.ambient_dim,
        "generators": generators,
        "differential": differential,
    }


def datum_from_dict(data: Any) -> FloerDatum:
    """Parse one FLD v1 object; raises :class:`FormatError` on bad structure."""
    if not isinstance(data, dict):
        raise FormatError("top level must be a JSON object")
    missing = {"version", "ambient_dim", "generators", "differential"} - set(data)
    if missing:
        raise FormatError(f"missing top-level keys: {sorted(missing)}")
    extra = set(data) - {"version", "ambient_dim", "generators", "differential"}
    if extra:
        raise FormatError(f"unknown top-level keys: {sorted(extra)}")
    version = data["version"]
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format version {version!r} (this reader handles"
            f" version {FORMAT_VERSION})"
        )
    ambient_dim = _require_int(data["ambient_dim"], "ambient_dim")
    if not isinstance(data["generators"], list):
        raise FormatError("generators must be a list")
    generators: list[Generator] = []
    for k, raw in enumerate(data["generators"]):
        where = f"generators[{k}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} must be an object")
        kind = _require_str(raw.get("kind"), f"{where}.kind")
        if kind not in ("crit", "pair"):
            raise FormatError(f"{where}.kind must be 'crit' or 'pair', got {kind!r}")
        allowed = {"id", "kind", "degree"}
        if kind == "pair":
            allowed |= {"action", "partner"}
        extra = set(raw) - allowed
        if extra:
            raise FormatError(f"unknown keys in {where}: {sorted(extra)}")
        gen_id = _require_str(raw.get("id"), f"{where}.id")
        degree = _require_int(raw.get("degree"), f"{where}.degree")
        action = None
        partner = None
        if kind == "pair":
            if "action" not in raw or "partner" not in raw:
                raise FormatError(f"{where}: pair generators need action and partner")
            action = _require_number(raw["action"], f"{where}.action")
            partner = _require_str(raw["partner"], f"{where}.partner")
        generators.append(Generator(gen_id, kind, degree, action=action, partner=partner))
    if not isinstance(data["differential"], list):
        raise FormatError("differential must be a list")
    entries: list[tuple[str, str]] = []
    for k, raw in enumerate(data["differential"]):
        where = f"differential[{k}]"
        if not isinstance(raw, dict) or set(raw) != {"from", "to"}:
            raise FormatError(f"{where} must be an object with keys 'from' and 'to'")
        entries.append(
            (_require_str(raw["from"], f"{where}.from"), _require_str(raw["to"], f"{where}.to"))
        )
    return FloerDatum(
        ambient_dim=ambient_dim,
        generators=tuple(generators),
        differential=tuple(entries),
    )


def dumps_datum(datum: FloerDatum) -> str:
    """Canonical FLD text; a non-finite action raises ValueError."""
    return json.dumps(datum_to_dict(datum), indent=2, allow_nan=False) + "\n"


def loads_datum(text: str) -> FloerDatum:
    return datum_from_dict(_parse_json(text))


def save_datum(datum: FloerDatum, path: str | Path) -> None:
    """Write the datum; an OSError names the path as given."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_datum(datum))
    except OSError as err:
        raise FormatError(f"cannot write {path}: {err}") from err


def _read_text(path: str | Path) -> str:
    """The file's text; an OSError names the path as given (``Path`` would
    drop a leading ``./``)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from err


def load_datum(path: str | Path) -> FloerDatum:
    return loads_datum(_read_text(path))
