"""Degeneration-budget audits and the pattern file format.

A degeneration pattern lists the pieces a broken pearly trajectory splits
into: Morse edges, strips (with branch jumps), ghost strips at a double
point, splices through a double-point couple, boundary pearls, and jumped
pearls sliding into the minimum or out of the maximum.  Each piece
consumes a certified lower bound of index drop; a pattern whose total
exceeds 1 cannot contribute to the differential, and one whose total
exceeds 2 cannot appear among the degenerations of d^2.

A pattern file is a JSON array of tagged pieces, e.g.::

    [{"type": "strip", "ind_u": 1, "jumps": 1},
     {"type": "ghost", "ind_pq": 3}]

Structural problems (unknown tags, missing or extra keys, non-integer
values, non-finite numbers) raise
:class:`pearl_floer.fileformat.FormatError`; parameters that contradict
their piece type raise :class:`pearl_floer.floer.InconsistentPattern`.

Only the ``audit`` subcommand needs this module, so the command line
imports it when that subcommand runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Union, get_args

from .fileformat import (
    FormatError,
    _parse_json,
    _read_text,
    _require_int,
    _require_str,
)
from .floer import InconsistentPattern

__all__ = [
    "MorseEdge",
    "Strip",
    "GhostStrip",
    "Splice",
    "BoundaryPearl",
    "PearlToMin",
    "MaxToPearl",
    "DegenerationPiece",
    "DegenerationPattern",
    "piece_budget",
    "degeneration_budget",
    "AuditRow",
    "AuditReport",
    "audit_pattern",
    "pattern_from_list",
    "load_pattern",
]


@dataclass(frozen=True)
class MorseEdge:
    """A gradient edge between criticals; generic index drop >= 1."""

    tag: ClassVar[str] = "morse"

    drop: int = 1


@dataclass(frozen=True)
class Strip:
    """A non-constant strip of index ind_u with ``jumps`` extra branch jumps."""

    tag: ClassVar[str] = "strip"

    ind_u: int
    jumps: int = 0


@dataclass(frozen=True)
class GhostStrip:
    """A constant strip at an ordered double point of index ind_pq."""

    tag: ClassVar[str] = "ghost"

    ind_pq: int
    # optional redundant copy of the ambient dimension, left out of the audit text
    n: int | None = field(default=None, metadata={"described": False})


@dataclass(frozen=True)
class Splice:
    """Two pearly pieces spliced through a double point couple."""

    tag: ClassVar[str] = "splice"

    ind_out: int | None = None
    ind_in_complement: int | None = None


@dataclass(frozen=True)
class BoundaryPearl:
    """A pearl breaking off at the boundary (type-(e) configuration)."""

    tag: ClassVar[str] = "boundary_pearl"


@dataclass(frozen=True)
class PearlToMin:
    """A jumped pearl sliding into the minimum; needs >= 1 branch jump."""

    tag: ClassVar[str] = "pearl_to_min"

    jumps: int = 1


@dataclass(frozen=True)
class MaxToPearl:
    """A jumped pearl emitted from the maximum; needs >= 1 branch jump."""

    tag: ClassVar[str] = "max_to_pearl"

    jumps: int = 1


DegenerationPiece = Union[
    MorseEdge, Strip, GhostStrip, Splice, BoundaryPearl, PearlToMin, MaxToPearl
]


@dataclass(frozen=True)
class DegenerationPattern:
    pieces: tuple[DegenerationPiece, ...]


def piece_budget(piece: DegenerationPiece, n: int) -> int:
    """Certified lower bound on the index drop consumed by one piece.

    Raises :class:`InconsistentPattern` when the declared parameters are
    impossible for the piece type (or presume a positivity regime that the
    parameters themselves violate).
    """
    if isinstance(piece, MorseEdge):
        if piece.drop < 1:
            raise InconsistentPattern(
                f"a Morse edge drops index by at least 1, got {piece.drop}"
            )
        return piece.drop
    if isinstance(piece, Strip):
        if piece.ind_u < 1:
            raise InconsistentPattern(
                f"a non-constant strip has index >= 1, got {piece.ind_u}"
            )
        if piece.jumps < 0:
            raise InconsistentPattern(f"negative jump count {piece.jumps}")
        return piece.ind_u + 2 * piece.jumps
    if isinstance(piece, GhostStrip):
        if piece.n is not None and piece.n != n:
            raise InconsistentPattern(
                f"ghost strip declares n = {piece.n}, auditing with n = {n}"
            )
        bound = 2 * piece.ind_pq - n
        if bound < 2:
            raise InconsistentPattern(
                f"ghost strip at index {piece.ind_pq} violates strong positivity"
                f" for n = {n} (2*ind - n = {bound} < 2)"
            )
        return bound
    if isinstance(piece, Splice):
        for label, ind in (
            ("outgoing", piece.ind_out),
            ("complement of incoming", piece.ind_in_complement),
        ):
            if ind is not None and 2 * ind - n < 2:
                raise InconsistentPattern(
                    f"splice {label} index {ind} violates strong positivity"
                    f" for n = {n}"
                )
        return 2
    if isinstance(piece, BoundaryPearl):
        return 2
    if isinstance(piece, (PearlToMin, MaxToPearl)):
        if piece.jumps < 1:
            raise InconsistentPattern(
                "pearl-to-minimum / maximum-to-pearl pieces require at least"
                f" one branch jump, got {piece.jumps}"
            )
        return 3
    raise InconsistentPattern(f"unknown degeneration piece {piece!r}")


def degeneration_budget(pattern: DegenerationPattern, n: int) -> int:
    """Sum of the per-piece certified index-drop lower bounds."""
    return sum(piece_budget(p, n) for p in pattern.pieces)


@dataclass(frozen=True)
class AuditRow:
    piece: str
    bound: int


@dataclass(frozen=True)
class AuditReport:
    """Budget audit: patterns with total > 1 cannot contribute to the
    differential; total > 2 cannot appear in d^2 degenerations."""

    rows: tuple[AuditRow, ...]
    total: int

    @property
    def excluded_from_differential(self) -> bool:
        return self.total > 1

    @property
    def excluded_from_square(self) -> bool:
        return self.total > 2


def _describe_piece(piece: DegenerationPiece) -> str:
    """``tag(field=value, ...)`` over the piece's fields, or the bare tag."""
    tag = getattr(piece, "tag", None)
    if tag is None:
        return repr(piece)
    shown = [
        f"{f.name}={getattr(piece, f.name)}"
        for f in dataclasses.fields(piece)
        if f.metadata.get("described", True)
    ]
    return f"{tag}({', '.join(shown)})" if shown else tag


def audit_pattern(pattern: DegenerationPattern, n: int) -> AuditReport:
    """Per-piece bounds plus the total, with exclusion verdicts."""
    rows = tuple(
        AuditRow(piece=_describe_piece(p), bound=piece_budget(p, n))
        for p in pattern.pieces
    )
    return AuditReport(rows=rows, total=sum(r.bound for r in rows))


# ---------------------------------------------------------------------------
# pattern files

_PIECE_TYPES = {cls.tag: cls for cls in get_args(DegenerationPiece)}


def pattern_from_list(data: Any) -> DegenerationPattern:
    """Parse a JSON array of tagged pieces into a pattern."""
    if not isinstance(data, list):
        raise FormatError("a pattern file must contain a JSON array of pieces")
    pieces = []
    for k, raw in enumerate(data):
        where = f"pieces[{k}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} must be an object")
        tag = _require_str(raw.get("type"), f"{where}.type")
        if tag not in _PIECE_TYPES:
            raise FormatError(
                f"{where}: unknown piece type {tag!r}"
                f" (expected one of {sorted(_PIECE_TYPES)})"
            )
        cls = _PIECE_TYPES[tag]
        fields = dataclasses.fields(cls)
        extra = set(raw) - {f.name for f in fields} - {"type"}
        if extra:
            raise FormatError(f"unknown keys in {where}: {sorted(extra)}")
        missing = [
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.name not in raw
        ]
        if missing:
            raise FormatError(f"missing keys in {where}: {missing}")
        kwargs = {
            f.name: _require_int(raw[f.name], f"{where}.{f.name}")
            for f in fields
            if f.name in raw
        }
        pieces.append(cls(**kwargs))
    return DegenerationPattern(pieces=tuple(pieces))


def load_pattern(path: str | Path) -> DegenerationPattern:
    return pattern_from_list(_parse_json(_read_text(path)))
