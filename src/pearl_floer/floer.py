"""Combinatorial layer for immersed Floer-type complexes over GF(2).

A *datum* packages graded generators of two kinds — ``crit`` (critical
points of an auxiliary Morse function, no action) and ``pair`` (ordered
double-point lifts, carrying an action and a partner) — together with
GF(2) differential entries.  This module validates datums, assembles the
differential, computes cohomology ranks, evaluates positivity thresholds,
builds the action filtration, and emits the rank-inequality report backed
by the spectral pages of the filtration.  Degeneration-budget audits live
in :mod:`pearl_floer.audit`; only their error type,
:class:`InconsistentPattern`, is defined here, so that the command line
can map it to exit 1 without loading the audit layer.

Action discipline
-----------------
The energy of a strip from gamma_- to gamma_+ with branch-jump multiset
Delta is ``E = A(out) - A(in) - sum_j A(jump_j)`` and must be positive for
a non-constant holomorphic strip.  Specialising to single differential
entries this forces, on the parity-reduced entry set:

* pair -> pair: action strictly increases;
* crit -> pair: the target action is positive;
* pair -> crit: the source action is negative;
* crit -> crit: unrestricted (ordinary Morse edges).

The same discipline is what makes the three-level action filtration
(negative pairs at level 0, criticals at level 1, non-negative pairs at
level 2, in the decreasing convention of :mod:`pearl_floer.gf2`) respect
the differential.

Records
-------
Every record here (generators, datums and reports) is a
``typing.NamedTuple``: immutable, compared and hashed by value, and
printed as ``Name(field=value, ...)``.  Being tuples, they also index,
iterate and compare equal to a plain tuple of their fields.  The module
does not import ``dataclasses``, whose per-class code generation would
dominate the start-up of the algebra subcommands on small datums.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .gf2 import (
    FilteredComplex,
    GF2Matrix,
    GradedComplex,
    SpectralTable,
    spectral_pages,
)

__all__ = [
    "TOL_ACTION",
    "FloerError",
    "ValidationFailed",
    "InconsistentPattern",
    "ZeroActionPairWarning",
    "Generator",
    "FloerDatum",
    "ValidationReport",
    "validate_datum",
    "assemble_differential",
    "floer_cohomology",
    "PositivityRow",
    "PositivityReport",
    "positivity_threshold",
    "check_positivity",
    "action_filtration",
    "filtration_levels",
    "RankInequalityReport",
    "rank_inequality_report",
    "MorseData",
    "two_point_morse",
]

#: Tolerance for the cancellation of partner actions during validation.
TOL_ACTION = 1e-8


class FloerError(Exception):
    """Base class for datum-layer failures."""


class ValidationFailed(FloerError):
    """A datum flunked validation; carries the itemized report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(
            "datum validation failed:\n  " + "\n  ".join(report.violations)
        )
        self.report = report


class InconsistentPattern(FloerError):
    """A degeneration pattern carries parameters that contradict its type
    (raised by :mod:`pearl_floer.audit`)."""


class ZeroActionPairWarning(UserWarning):
    """A pair generator has action exactly 0; it is filed with the
    non-negative side of the filtration, which is an arbitrary choice."""


class Generator(NamedTuple):
    """One generator: a Morse critical point or an ordered double-point lift."""

    id: str
    kind: str  # "crit" or "pair"
    degree: int
    action: float | None = None
    partner: str | None = None


class FloerDatum(NamedTuple):
    """Generators plus GF(2) differential entries (parity of repetition)."""

    ambient_dim: int
    generators: tuple[Generator, ...]
    differential: tuple[tuple[str, str], ...] = ()

    def by_id(self) -> dict[str, Generator]:
        return {g.id: g for g in self.generators}

    def pairs(self) -> list[Generator]:
        return [g for g in self.generators if g.kind == "pair"]

    def criticals(self) -> list[Generator]:
        return [g for g in self.generators if g.kind == "crit"]

    def net_entries(self) -> list[tuple[str, str]]:
        """Differential entries with even repetitions cancelled, sorted."""
        seen: set[tuple[str, str]] = set()
        for entry in self.differential:
            key = (entry[0], entry[1])
            seen.symmetric_difference_update({key})
        return sorted(seen)


class ValidationReport(NamedTuple):
    """Itemized validation outcome; ``ok`` means no violations (warnings allowed)."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_datum(datum: FloerDatum) -> ValidationReport:
    """Check every datum invariant and return the itemized report.

    Partner actions must sum to zero within :data:`TOL_ACTION`.

    Degree and action discipline are checked on the *net* (parity-reduced)
    entry set, consistent with GF(2) semantics: an entry listed an even
    number of times is absent from the differential.
    """
    violations: list[str] = []
    warns: list[str] = []
    if datum.ambient_dim < 1:
        violations.append(f"ambient dimension must be >= 1, got {datum.ambient_dim}")
    ids: dict[str, Generator] = {}
    for g in datum.generators:
        if g.id in ids:
            violations.append(f"duplicate generator id '{g.id}'")
        else:
            ids[g.id] = g
    n = datum.ambient_dim
    seen_couples: set[frozenset[str]] = set()
    for g in datum.generators:
        if g.kind == "crit":
            if g.action is not None:
                violations.append(f"critical generator '{g.id}' carries an action")
            if g.partner is not None:
                violations.append(f"critical generator '{g.id}' carries a partner")
        elif g.kind == "pair":
            if g.action is None:
                violations.append(f"pair generator '{g.id}' is missing its action")
            elif not math.isfinite(g.action):
                violations.append(f"pair generator '{g.id}' has non-finite action {g.action}")
            if g.partner is None:
                violations.append(f"pair generator '{g.id}' is missing its partner")
                continue
            if g.partner == g.id:
                violations.append(f"pair generator '{g.id}' is partnered with itself")
                continue
            mate = ids.get(g.partner)
            if mate is None:
                violations.append(
                    f"pair generator '{g.id}' names unknown partner '{g.partner}'"
                )
                continue
            if mate.kind != "pair":
                violations.append(
                    f"pair generator '{g.id}' is partnered with non-pair '{mate.id}'"
                )
                continue
            couple = frozenset((g.id, mate.id))
            if couple in seen_couples:
                continue
            seen_couples.add(couple)
            if mate.partner != g.id:
                violations.append(
                    f"partnering is not mutual between '{g.id}' and '{mate.id}'"
                )
            if g.degree + mate.degree != n:
                violations.append(
                    f"partner degrees of '{g.id}' and '{mate.id}' sum to"
                    f" {g.degree + mate.degree}, expected n = {n}"
                )
            if g.action is not None and mate.action is not None:
                if abs(g.action + mate.action) > TOL_ACTION:
                    violations.append(
                        f"partner actions of '{g.id}' and '{mate.id}' sum to"
                        f" {g.action + mate.action:.3e}, expected 0"
                    )
                if g.action == 0.0:
                    warns.append(f"pair generator '{g.id}' has action exactly 0")
        else:
            violations.append(f"generator '{g.id}' has unknown kind '{g.kind}'")

    for src, dst in datum.differential:
        if src not in ids:
            violations.append(f"differential entry from unknown id '{src}'")
        if dst not in ids:
            violations.append(f"differential entry to unknown id '{dst}'")

    for src, dst in datum.net_entries():
        if src not in ids or dst not in ids:
            continue
        gs, gd = ids[src], ids[dst]
        if gd.degree != gs.degree + 1:
            violations.append(
                f"entry '{src}' -> '{dst}' maps degree {gs.degree} to"
                f" degree {gd.degree}"
            )
        if gs.kind == "pair" and gd.kind == "pair":
            if gs.action is not None and gd.action is not None:
                if not gd.action > gs.action:
                    violations.append(
                        f"entry '{src}' -> '{dst}' does not increase action"
                        f" ({gs.action:g} -> {gd.action:g})"
                    )
        elif gs.kind == "crit" and gd.kind == "pair":
            if gd.action is not None and not gd.action > 0:
                violations.append(
                    f"entry '{src}' -> '{dst}' targets a pair of non-positive"
                    f" action {gd.action:g}"
                )
        elif gs.kind == "pair" and gd.kind == "crit":
            if gs.action is not None and not gs.action < 0:
                violations.append(
                    f"entry '{src}' -> '{dst}' leaves a pair of non-negative"
                    f" action {gs.action:g}"
                )
    return ValidationReport(tuple(violations), tuple(warns))


def _assemble_unchecked(datum: FloerDatum) -> GradedComplex:
    index = {g.id: i for i, g in enumerate(datum.generators)}
    n = len(datum.generators)
    entries = [(index[dst], index[src]) for src, dst in datum.differential]
    return GradedComplex(
        degrees=tuple(g.degree for g in datum.generators),
        differential=GF2Matrix.from_entries(n, n, entries),
        labels=tuple(g.id for g in datum.generators),
    )


def assemble_differential(datum: FloerDatum) -> GradedComplex:
    """Build the graded GF(2) complex of a valid datum.

    Raises :class:`ValidationFailed` when :func:`validate_datum` reports
    violations.  Whether d^2 = 0 is left to ``verify_square_zero``; the
    datum layer cannot know which strip counts the user intended.
    """
    report = validate_datum(datum)
    if not report.ok:
        raise ValidationFailed(report)
    return _assemble_unchecked(datum)


def floer_cohomology(datum: FloerDatum) -> dict[int, int]:
    """Cohomology ranks per degree; NotAComplex if d^2 != 0.

    A rank is the number of unpaired generators of that degree under the
    pairing reduction of :mod:`pearl_floer.gf2`; every degree that has
    generators is a key, zeros included.
    """
    return assemble_differential(datum).cohomology_ranks()


# ---------------------------------------------------------------------------
# positivity


class PositivityRow(NamedTuple):
    id: str
    action: float
    degree: int
    threshold: float
    ok: bool


class PositivityReport(NamedTuple):
    mode: str
    ambient_dim: int
    rows: tuple[PositivityRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def positivity_threshold(n: int, mode: str) -> float:
    """Degree threshold for positive-action pairs: weak 3, strong max{(n+2)/2, 3}."""
    if mode == "weak":
        return 3.0
    if mode == "strong":
        return max((n + 2) / 2.0, 3.0)
    raise ValueError(f"unknown positivity mode '{mode}' (use 'weak' or 'strong')")


def check_positivity(datum: FloerDatum, mode: str = "strong") -> PositivityReport:
    """Compare every positive-action pair degree against the mode's threshold."""
    threshold = positivity_threshold(datum.ambient_dim, mode)
    rows = [
        PositivityRow(
            id=g.id,
            action=float(g.action),
            degree=g.degree,
            threshold=threshold,
            ok=g.degree >= threshold,
        )
        for g in sorted(datum.pairs(), key=lambda g: g.id)
        if g.action is not None and g.action > 0
    ]
    return PositivityReport(mode=mode, ambient_dim=datum.ambient_dim, rows=tuple(rows))


# ---------------------------------------------------------------------------
# action filtration and the rank inequality


def filtration_levels(datum: FloerDatum) -> tuple[int, ...]:
    """Levels of the action filtration (decreasing convention).

    Negative-action pairs sit at level 0, criticals at level 1,
    non-negative-action pairs at level 2.  A pair with action exactly 0 is
    ambiguous; it is routed to level 2 with :class:`ZeroActionPairWarning`.
    """
    levels = []
    for g in datum.generators:
        if g.kind == "crit":
            levels.append(1)
        else:
            action = g.action if g.action is not None else 0.0
            if action == 0.0:
                warnings.warn(
                    f"pair generator '{g.id}' has action exactly 0; filing it"
                    " with the non-negative-action side of the filtration",
                    ZeroActionPairWarning,
                    stacklevel=3,
                )
            levels.append(0 if action < 0 else 2)
    return tuple(levels)


def action_filtration(datum: FloerDatum) -> FilteredComplex:
    """Three-level filtration by action sign class.

    The filtration invariant is *checked*, not assumed: a datum whose
    entries break the action discipline across sign classes surfaces
    :class:`pearl_floer.gf2.FiltrationViolated` here.
    """
    return FilteredComplex(_assemble_unchecked(datum), filtration_levels(datum))


class RankInequalityReport(NamedTuple):
    """card_R >= sum_betti - sum_HF, with the spectral table as evidence."""

    card_R: int
    sum_betti: int
    sum_HF: int
    inequality_holds: bool
    pages: SpectralTable
    morse_ranks: dict[int, int]
    floer_ranks: dict[int, int]


def rank_inequality_report(
    datum: FloerDatum, r_max: int | None = None
) -> RankInequalityReport:
    """Count pair generators against the Morse-block and total cohomologies.

    The spectral pages of the action filtration come from one pairing
    reduction, after one d^2 = 0 check.  The Floer ranks are E_inf summed by
    total degree, which equals the cohomology, with a zero for every degree
    that has generators.  Raises ``FiltrationViolated`` before
    ``NotAComplex``.
    """
    fc = action_filtration(datum)
    pages = spectral_pages(fc, r_max)
    floer_ranks = dict.fromkeys(fc.complex.degree_indices(), 0)
    for (p, q), rank in pages.e_inf.items():
        floer_ranks[p + q] += rank
    crits = datum.criticals()
    crit_ids = {g.id for g in crits}
    crit_index = {g.id: i for i, g in enumerate(crits)}
    morse_entries = [
        (crit_index[dst], crit_index[src])
        for src, dst in datum.net_entries()
        if src in crit_ids and dst in crit_ids
    ]
    morse_block = GradedComplex(
        degrees=tuple(g.degree for g in crits),
        differential=GF2Matrix.from_entries(len(crits), len(crits), morse_entries),
        labels=tuple(g.id for g in crits),
    )
    morse_ranks = morse_block.cohomology_ranks()
    card_r = len(datum.pairs())
    sum_betti = sum(morse_ranks.values())
    sum_hf = sum(floer_ranks.values())
    return RankInequalityReport(
        card_R=card_r,
        sum_betti=sum_betti,
        sum_HF=sum_hf,
        inequality_holds=card_r >= sum_betti - sum_hf,
        pages=pages,
        morse_ranks=morse_ranks,
        floer_ranks=floer_ranks,
    )


# ---------------------------------------------------------------------------
# Morse data (consumed by the immersion pipeline when emitting datums)


class MorseData(NamedTuple):
    """Critical points (id, Morse index) and parity-counted gradient edges."""

    criticals: tuple[tuple[str, int], ...]
    trajectories: tuple[tuple[str, str], ...] = ()


def two_point_morse(n: int) -> MorseData:
    """The perfect two-critical-point Morse data of an n-sphere: critical
    points "min" of index 0 and "max" of index n."""
    return MorseData(criticals=(("min", 0), ("max", n)))
