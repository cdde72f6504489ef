"""Tests for the datum layer: validation, assembly, positivity, budgets,
filtration, and the rank inequality."""

from __future__ import annotations

import time

import numpy as np
import pytest

from pearl_floer.floer import (
    AuditReport,
    BoundaryPearl,
    DegenerationPattern,
    FloerDatum,
    Generator,
    GhostStrip,
    InconsistentPattern,
    MaxToPearl,
    MorseEdge,
    PearlToMin,
    Splice,
    Strip,
    ValidationFailed,
    ZeroActionPairWarning,
    action_filtration,
    assemble_differential,
    audit_pattern,
    check_positivity,
    degeneration_budget,
    filtration_levels,
    floer_cohomology,
    piece_budget,
    positivity_threshold,
    rank_inequality_report,
    strip_energy,
    two_point_morse,
    validate_datum,
)
from pearl_floer.gf2 import (
    FiltrationViolated,
    GradedComplex,
    GF2Matrix,
    NotAComplex,
)

from _helpers import brute_cohomology, random_valid_datum


def model_datum(n: int) -> FloerDatum:
    """Two criticals, one double-point couple, two unit strip counts."""
    return FloerDatum(
        ambient_dim=n,
        generators=(
            Generator("min", "crit", 0),
            Generator("max", "crit", n),
            Generator("dp_pos", "pair", n + 1, 1.0, "dp_neg"),
            Generator("dp_neg", "pair", -1, -1.0, "dp_pos"),
        ),
        differential=(("dp_neg", "min"), ("max", "dp_pos")),
    )


def embedded_datum(n: int) -> FloerDatum:
    return FloerDatum(
        ambient_dim=n,
        generators=(Generator("min", "crit", 0), Generator("max", "crit", n)),
    )


# ---------------------------------------------------------------------------
# validation


def test_model_datum_validates():
    for n in range(2, 7):
        report = validate_datum(model_datum(n))
        assert report.ok
        assert report.violations == ()


def test_partner_degree_sum_violation():
    datum = FloerDatum(
        3,
        (
            Generator("a", "pair", 3, 1.0, "b"),
            Generator("b", "pair", 1, -1.0, "a"),
        ),
    )
    report = validate_datum(datum)
    assert not report.ok
    assert any("sum to 4" in v for v in report.violations)


def test_positive_pair_to_crit_violation():
    datum = FloerDatum(
        3,
        (
            Generator("c", "crit", 3),
            Generator("a", "pair", 2, 1.0, "b"),
            Generator("b", "pair", 1, -1.0, "a"),
        ),
        differential=(("a", "c"),),
    )
    report = validate_datum(datum)
    assert not report.ok
    assert any("non-negative action" in v for v in report.violations)


def test_assorted_violations():
    n = 2
    cases = {
        "crit action": FloerDatum(n, (Generator("c", "crit", 0, action=1.0),)),
        "crit partner": FloerDatum(n, (Generator("c", "crit", 0, partner="c"),)),
        "dup id": FloerDatum(
            n, (Generator("c", "crit", 0), Generator("c", "crit", 1))
        ),
        "unknown kind": FloerDatum(n, (Generator("c", "weird", 0),)),
        "missing partner": FloerDatum(n, (Generator("p", "pair", 1, 1.0, None),)),
        "unknown partner": FloerDatum(n, (Generator("p", "pair", 1, 1.0, "q"),)),
        "self partner": FloerDatum(n, (Generator("p", "pair", 1, 1.0, "p"),)),
        "partner is crit": FloerDatum(
            n, (Generator("p", "pair", 1, 1.0, "c"), Generator("c", "crit", 1))
        ),
        "non-mutual": FloerDatum(
            n,
            (
                Generator("p", "pair", 1, 1.0, "q"),
                Generator("q", "pair", 1, -1.0, "r"),
                Generator("r", "pair", 1, -1.0, "q"),
            ),
        ),
        "action sum": FloerDatum(
            n,
            (
                Generator("p", "pair", 1, 1.0, "q"),
                Generator("q", "pair", 1, -0.5, "p"),
            ),
        ),
        "entry ids": FloerDatum(
            n, (Generator("c", "crit", 0),), (("c", "ghost"),)
        ),
        "degree step": FloerDatum(
            n,
            (Generator("c", "crit", 0), Generator("d", "crit", 2)),
            (("c", "d"),),
        ),
        "bad dimension": FloerDatum(0, ()),
    }
    for name, datum in cases.items():
        assert not validate_datum(datum).ok, name


def test_entries_cancel_before_discipline():
    # an illegal entry listed twice has coefficient 0 and raises no violation
    datum = FloerDatum(
        3,
        (
            Generator("c", "crit", 3),
            Generator("a", "pair", 2, 1.0, "b"),
            Generator("b", "pair", 1, -1.0, "a"),
        ),
        differential=(("a", "c"), ("a", "c")),
    )
    assert validate_datum(datum).ok
    assert datum.net_entries() == []


def test_zero_action_warning_in_report():
    datum = FloerDatum(
        2,
        (
            Generator("p", "pair", 1, 0.0, "q"),
            Generator("q", "pair", 1, 0.0, "p"),
        ),
    )
    report = validate_datum(datum)
    assert report.ok
    assert any("action exactly 0" in w for w in report.warnings)


def test_non_finite_action_is_a_violation():
    # NaN actions slip past the partner-sum check (NaN > tol is False);
    # without strips no differential entry touches the pair
    datum = model_datum(3)
    nan = float("nan")
    datum = FloerDatum(
        datum.ambient_dim,
        tuple(
            Generator(g.id, g.kind, g.degree, nan, g.partner) if g.kind == "pair" else g
            for g in datum.generators
        ),
    )
    report = validate_datum(datum)
    assert not report.ok
    assert sum("non-finite action" in v for v in report.violations) == 2


# ---------------------------------------------------------------------------
# assembly and cohomology


def test_assemble_model_datum():
    cx = assemble_differential(model_datum(4))
    assert len(cx) == 4
    assert sum(1 for _ in cx.differential.entries()) == 2
    assert cx.verify_square_zero().ok
    assert cx.degrees == (0, 4, 5, -1)


def test_assemble_rejects_invalid():
    datum = FloerDatum(3, (Generator("c", "crit", 0, action=1.0),))
    with pytest.raises(ValidationFailed) as err:
        assemble_differential(datum)
    assert err.value.report.violations


def test_duplicate_entries_assemble_to_zero():
    datum = FloerDatum(
        2,
        (Generator("a", "crit", 0), Generator("b", "crit", 1)),
        (("a", "b"), ("a", "b")),
    )
    assert assemble_differential(datum).differential.is_zero()


def test_morse_only_assembly():
    datum = FloerDatum(
        2,
        (Generator("a", "crit", 0), Generator("b", "crit", 1)),
        (("a", "b"),),
    )
    cx = assemble_differential(datum)
    assert cx.cohomology_ranks() == {0: 0, 1: 0}


def test_model_cohomology_vanishes():
    for n in range(2, 7):
        ranks = floer_cohomology(model_datum(n))
        assert set(ranks.values()) == {0}
        assert set(ranks) == {-1, 0, n, n + 1}


def test_embedded_cohomology_is_sphere():
    for n in (2, 5):
        assert floer_cohomology(embedded_datum(n)) == {0: 1, n: 1}


def test_no_strip_datum_adds_pair_ranks():
    datum = FloerDatum(3, model_datum(3).generators)  # strip entries removed
    assert floer_cohomology(datum) == {-1: 1, 0: 1, 3: 1, 4: 1}


def test_cohomology_requires_square_zero():
    datum = FloerDatum(
        2,
        (
            Generator("a", "crit", 0),
            Generator("b", "crit", 1),
            Generator("c", "crit", 2),
        ),
        (("a", "b"), ("b", "c")),
    )
    with pytest.raises(NotAComplex):
        floer_cohomology(datum)


def test_euler_characteristic_preserved():
    rng = np.random.default_rng(41)
    for _ in range(50):
        datum = random_valid_datum(rng, max_gens=20)
        ranks = floer_cohomology(datum)
        chi_gens = sum((-1) ** g.degree for g in datum.generators)
        chi_coh = sum((-1) ** k * r for k, r in ranks.items())
        assert chi_gens == chi_coh


def test_r_empty_reduces_to_morse():
    rng = np.random.default_rng(42)
    found = 0
    while found < 20:
        datum = random_valid_datum(rng, max_gens=10)
        if datum.pairs():
            continue
        found += 1
        report = rank_inequality_report(datum)
        assert report.floer_ranks == report.morse_ranks


def test_square_zero_mutation_property():
    rng = np.random.default_rng(43)
    for _ in range(50):
        datum = random_valid_datum(rng, max_gens=20)
        cx = assemble_differential(datum)
        n = len(cx)
        legal = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if cx.degrees[i] == cx.degrees[j] + 1 and not cx.differential.get(i, j)
        ]
        if not legal:
            continue
        i, j = legal[int(rng.integers(0, len(legal)))]
        mutated = GradedComplex(
            cx.degrees,
            cx.differential + GF2Matrix.from_entries(n, n, [(i, j)]),
            cx.labels,
        )
        report = mutated.verify_square_zero()
        assert report.ok or report.witness is not None


# ---------------------------------------------------------------------------
# positivity


def test_positivity_thresholds():
    assert positivity_threshold(4, "weak") == 3.0
    assert positivity_threshold(2, "strong") == 3.0
    assert positivity_threshold(4, "strong") == 3.0
    assert positivity_threshold(6, "strong") == 4.0
    assert positivity_threshold(7, "strong") == 4.5
    with pytest.raises(ValueError):
        positivity_threshold(3, "medium")


def test_model_datum_positivity_boundary():
    for n in range(2, 7):
        assert check_positivity(model_datum(n), "strong").ok
    report = check_positivity(model_datum(1), "strong")
    assert not report.ok
    assert report.rows[0].degree == 2
    assert report.rows[0].threshold == 3.0


def test_positivity_rows_only_positive_actions():
    report = check_positivity(model_datum(3), "weak")
    assert [row.id for row in report.rows] == ["dp_pos"]
    assert report.rows[0].ok


def test_degree_five_pair_passes_both_modes():
    datum = FloerDatum(
        4,
        (
            Generator("p", "pair", 5, 2.0, "q"),
            Generator("q", "pair", -1, -2.0, "p"),
        ),
    )
    assert check_positivity(datum, "weak").ok
    assert check_positivity(datum, "strong").ok


# ---------------------------------------------------------------------------
# energy and budgets


def test_strip_energy_examples():
    assert strip_energy(1.0, 1.0) == 0.0
    assert strip_energy(1.0, 0.0) == 1.0
    assert strip_energy(3.0, 1.0, [0.5]) == 1.5


def test_piece_budgets():
    assert piece_budget(GhostStrip(3), 4) == 2
    assert piece_budget(Strip(1, 1), 4) == 3
    assert piece_budget(BoundaryPearl(), 4) == 2
    assert piece_budget(MorseEdge(), 4) == 1
    assert piece_budget(Splice(), 4) == 2
    assert piece_budget(Splice(3, 3), 4) == 2
    assert piece_budget(PearlToMin(2), 4) == 3
    assert piece_budget(MaxToPearl(1), 4) == 3


def test_inconsistent_pieces_rejected():
    with pytest.raises(InconsistentPattern):
        piece_budget(GhostStrip(3), 8)  # 2*3 - 8 < 2
    with pytest.raises(InconsistentPattern):
        piece_budget(GhostStrip(3, n=4), 6)  # declared n disagrees
    with pytest.raises(InconsistentPattern):
        piece_budget(Strip(0), 4)
    with pytest.raises(InconsistentPattern):
        piece_budget(Strip(1, -1), 4)
    with pytest.raises(InconsistentPattern):
        piece_budget(MorseEdge(0), 4)
    with pytest.raises(InconsistentPattern):
        piece_budget(PearlToMin(0), 4)
    with pytest.raises(InconsistentPattern):
        piece_budget(Splice(2, 3), 4)  # 2*2 - 4 < 2


def test_budget_monotone_under_appending():
    rng = np.random.default_rng(44)
    n = 4
    pool = [
        MorseEdge(),
        Strip(1, 0),
        Strip(2, 1),
        GhostStrip(3),
        Splice(),
        BoundaryPearl(),
        PearlToMin(1),
        MaxToPearl(2),
    ]
    pieces: list = []
    previous = 0
    for _ in range(30):
        pieces.append(pool[int(rng.integers(0, len(pool)))])
        total = degeneration_budget(DegenerationPattern(tuple(pieces)), n)
        assert total >= previous
        previous = total


def test_audit_report_exclusions():
    ghost = audit_pattern(DegenerationPattern((GhostStrip(3),)), 4)
    assert ghost.total == 2
    assert ghost.excluded_from_differential
    assert not ghost.excluded_from_square
    assert ghost.rows[0].piece == "ghost(ind_pq=3)"

    morse = audit_pattern(DegenerationPattern((MorseEdge(),)), 4)
    assert morse.total == 1
    assert not morse.excluded_from_differential

    strip = audit_pattern(DegenerationPattern((Strip(1, 1),)), 4)
    assert strip.total == 3
    assert strip.excluded_from_differential
    assert strip.excluded_from_square

    assert isinstance(ghost, AuditReport)
    assert audit_pattern(DegenerationPattern(()), 4).total == 0


# ---------------------------------------------------------------------------
# filtration


def test_model_filtration_levels():
    fc = action_filtration(model_datum(3))
    assert fc.levels == (1, 1, 2, 0)
    assert fc.max_level == 2


def test_embedded_filtration_single_level():
    fc = action_filtration(embedded_datum(3))
    assert set(fc.levels) == {1}


def test_discipline_violation_surfaces_as_filtration_error():
    datum = FloerDatum(
        3,
        (
            Generator("c", "crit", 3),
            Generator("a", "pair", 2, 1.0, "b"),
            Generator("b", "pair", 1, -1.0, "a"),
        ),
        differential=(("a", "c"),),
    )
    with pytest.raises(FiltrationViolated):
        action_filtration(datum)


def test_zero_action_pair_warns_and_goes_high():
    datum = FloerDatum(
        2,
        (
            Generator("p", "pair", 1, 0.0, "q"),
            Generator("q", "pair", 1, 0.0, "p"),
        ),
    )
    with pytest.warns(ZeroActionPairWarning):
        levels = filtration_levels(datum)
    assert levels == (2, 2)


def test_discipline_implies_filtration_over_random_datums():
    rng = np.random.default_rng(45)
    for _ in range(100):
        action_filtration(random_valid_datum(rng, max_gens=24))  # must not raise


# ---------------------------------------------------------------------------
# rank inequality


def test_model_rank_inequality_tight():
    report = rank_inequality_report(model_datum(3))
    assert report.card_R == 2
    assert report.sum_betti == 2
    assert report.sum_HF == 0
    assert report.inequality_holds
    assert report.card_R == report.sum_betti - report.sum_HF
    assert report.pages.e_inf == {}
    assert sum(report.pages.pages[1].values()) == 4


def test_embedded_rank_inequality():
    report = rank_inequality_report(embedded_datum(4))
    assert report.card_R == 0
    assert report.sum_betti == 2
    assert report.sum_HF == 2
    assert report.inequality_holds


def test_rank_inequality_random_datums():
    rng = np.random.default_rng(46)
    for _ in range(100):
        report = rank_inequality_report(random_valid_datum(rng, max_gens=24))
        assert report.inequality_holds


def test_rank_inequality_floer_ranks_match_brute_cohomology():
    rng = np.random.default_rng(47)
    datums = [random_valid_datum(rng, max_gens=24) for _ in range(200)]
    start = time.perf_counter()
    for datum in datums:
        ranks = rank_inequality_report(datum).floer_ranks
        brute = brute_cohomology(assemble_differential(datum))
        assert list(ranks.items()) == list(brute.items())
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_rank_inequality_checks_filtration_then_square_zero():
    crits = (
        Generator("a", "crit", 0),
        Generator("b", "crit", 1),
        Generator("c", "crit", 2),
    )
    with pytest.raises(NotAComplex, match=r"witness a -> c"):
        rank_inequality_report(FloerDatum(2, crits, (("a", "b"), ("b", "c"))))
    both = FloerDatum(
        3,
        (
            Generator("c", "crit", 3),
            Generator("x", "crit", 4),
            Generator("a", "pair", 2, 1.0, "b"),
            Generator("b", "pair", 1, -1.0, "a"),
        ),
        differential=(("a", "c"), ("c", "x")),
    )
    with pytest.raises(FiltrationViolated):
        rank_inequality_report(both)


def test_two_point_morse_preset():
    morse = two_point_morse(5)
    assert morse.criticals == (("min", 0), ("max", 5))
    assert morse.trajectories == ()
