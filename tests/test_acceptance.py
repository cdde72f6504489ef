"""Acceptance suite: one test per release criterion.

Every test checks a single headline guarantee of the package at its stated
tolerance and, where a wall-clock budget applies, asserts the measured
runtime.  Each test ends by printing one ``ACCEPTANCE k: PASS`` line (shown
with ``pytest -s`` or ``-rP``); a failing assertion marks that criterion
FAILED in the ordinary pytest report.

The criteria:

 1. sphere model, n = 2..6 at resolution 128: exactly one geometric double
    point, at the origin to 1e-8, with rounded indices {n+1, -1}
 2. strong positivity holds for the sphere datum iff n >= 2
 3. the sphere datum's cohomology vanishes in every degree, n = 2..6
 4. rank inequality: tight on the sphere, 0 >= 0 when embedded, and holding
    on 500 random valid datums
 5. spectral-page ranks at E_infinity sum to the cohomology ranks, exactly,
    on 500 random filtered complexes
 6. Kahler angles of planted plane pairs recovered to 1e-9; index
    complement identity to 2e-9
 7. boundary action of the holomorphic disc family equals +1 to 1e-6
 8. GF(2) ranks and cohomology match exhaustive subspace enumeration
 9. degeneration budgets: ghost strips, jumped strips and boundary pearls
    are excluded from index-1 differential counts
10. gates: the unit circle is flagged NotGraded (holonomy 2), a non-exact
    loop is flagged NotExact
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from _helpers import (
    brute_cohomology,
    planted_pair,
    random_filtered_complex,
    random_gf2_matrix,
    random_graded_complex,
    random_valid_datum,
    span_size,
    to_numpy,
)
from pearl_floer.audit import (
    BoundaryPearl,
    DegenerationPattern,
    GhostStrip,
    Strip,
    audit_pattern,
)
from pearl_floer.floer import (
    FloerDatum,
    Generator,
    check_positivity,
    floer_cohomology,
    rank_inequality_report,
)
from pearl_floer.geom import index_of_pair, kahler_angles
from pearl_floer.gf2 import spectral_pages
from pearl_floer.immersion import (
    NotExact,
    NotGraded,
    compute_grading,
    compute_primitive,
    find_double_points,
    sample_immersion,
)
from pearl_floer.models import get_model
from pearl_floer.sphere import DiscFamily, sphere_datum


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_acceptance_01_sphere_double_point_and_indices():
    timings = []
    for n in range(2, 7):
        start = time.perf_counter()
        spec, _ = get_model("sphere", n)
        mesh = sample_immersion(spec, 128)
        compute_primitive(mesh)
        compute_grading(mesh)
        records = find_double_points(mesh)
        elapsed = time.perf_counter() - start

        # one geometric double point, recorded once in each order
        assert len(records) == 2
        first, second = records
        assert {first.p_id, first.q_id} == {second.p_id, second.q_id}
        for rec in records:
            assert np.linalg.norm(np.asarray(rec.point)) <= 1e-8
            assert rec.residual < 1e-4
        assert sorted(rec.index for rec in records) == [-1, n + 1]
        assert elapsed < 10.0, f"n={n} took {elapsed:.2f}s"
        timings.append(elapsed)
    _report(
        1,
        "sphere n=2..6 at resolution 128: one double point at the origin,"
        f" indices {{n+1, -1}}, residual < 1e-4; slowest run"
        f" {max(timings):.2f}s < 10s",
    )


def test_acceptance_02_strong_positivity_boundary():
    for n in range(2, 7):
        assert check_positivity(sphere_datum(n), mode="strong").ok
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degenerate = sphere_datum(1)
    report = check_positivity(degenerate, mode="strong")
    assert not report.ok
    failing = [row for row in report.rows if not row.ok]
    assert failing and all(row.degree == 2 and row.threshold == 3 for row in failing)
    _report(2, "strong positivity holds for n=2..6 and fails for n=1 (2 < 3)")


def test_acceptance_03_sphere_cohomology_vanishes():
    for n in range(2, 7):
        ranks = floer_cohomology(sphere_datum(n))
        assert set(ranks.values()) == {0}, (n, ranks)
    _report(3, "sphere datum cohomology is 0 in every degree for n=2..6")


def test_acceptance_04_rank_inequality():
    start = time.perf_counter()
    for n in range(2, 7):
        report = rank_inequality_report(sphere_datum(n))
        assert (report.card_R, report.sum_betti, report.sum_HF) == (2, 2, 0)
        assert report.inequality_holds
        assert report.card_R == report.sum_betti - report.sum_HF  # tight

    embedded = FloerDatum(
        ambient_dim=3,
        generators=(Generator("min", "crit", 0), Generator("max", "crit", 3)),
        differential=(),
    )
    report = rank_inequality_report(embedded)
    assert (report.card_R, report.sum_betti, report.sum_HF) == (0, 2, 2)
    assert report.inequality_holds

    rng = np.random.default_rng(20260815)
    for _ in range(500):
        datum = random_valid_datum(rng, max_gens=40)
        assert rank_inequality_report(datum).inequality_holds
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(
        4,
        "rank inequality tight on the sphere (2 >= 2 - 0), 0 >= 0 embedded,"
        f" and holds on 500 random valid datums in {elapsed:.2f}s < 30s",
    )


def test_acceptance_05_spectral_pages_converge_to_cohomology():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for _ in range(500):
        filtered = random_filtered_complex(rng, max_gens=12, max_level=2)
        table = spectral_pages(filtered)
        sums: dict[int, int] = {}
        for (p, q), rank in table.e_inf.items():
            sums[p + q] = sums.get(p + q, 0) + rank
        ranks = brute_cohomology(filtered.complex)
        for k in set(ranks) | set(sums):
            assert sums.get(k, 0) == ranks.get(k, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(
        5,
        "E_infinity ranks sum to cohomology ranks on 500 random filtered"
        f" complexes (exact) in {elapsed:.2f}s < 30s",
    )


def test_acceptance_06_angle_recovery_and_complement():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst_angle = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        f1, f2, planted = planted_pair(rng, n)
        forward = kahler_angles(f1, f2)
        backward = kahler_angles(f2, f1)
        err = float(np.max(np.abs(np.asarray(forward.values) - planted)))
        worst_angle = max(worst_angle, err)
        total = (
            index_of_pair(0.0, 0.0, forward, n).raw
            + index_of_pair(0.0, 0.0, backward, n).raw
        )
        worst_sum = max(worst_sum, abs(total - n))
    elapsed = time.perf_counter() - start
    assert worst_angle < 1e-9
    assert worst_sum < 2e-9
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(
        6,
        f"1000 planted pairs: angle error {worst_angle:.2e} < 1e-9, complement"
        f" defect {worst_sum:.2e} < 2e-9, in {elapsed:.2f}s < 10s",
    )


def test_acceptance_07_disc_boundary_action_is_one():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(20):
            x = rng.standard_normal(n)
            a = complex(*rng.uniform(-0.6, 0.6, size=2))
            beta = float(rng.uniform(0.0, 2.0 * np.pi))
            disc = DiscFamily(x, a=a, beta=beta)
            worst = max(worst, abs(disc.boundary_action() - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(
        7,
        f"60 random discs: |boundary action - 1| <= {worst:.2e} < 1e-6,"
        f" in {elapsed:.2f}s < 10s",
    )


def test_acceptance_08_gf2_matches_exhaustive_enumeration():
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    for _ in range(1000):
        complex_ = random_graded_complex(rng, max_gens=12)
        assert complex_.cohomology_ranks() == brute_cohomology(complex_)

        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        matrix = random_gf2_matrix(rng, rows, cols)
        dense = to_numpy(matrix)
        masks = [int(sum(v << j for j, v in enumerate(row))) for row in dense]
        assert 2 ** matrix.rank() == span_size(masks)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(
        8,
        "1000 random complexes/matrices: cohomology and rank equal exhaustive"
        f" enumeration, in {elapsed:.2f}s < 60s",
    )


def test_acceptance_09_degeneration_budgets():
    for n in (2, 4, 6):
        ghost = audit_pattern(
            DegenerationPattern((GhostStrip(ind_pq=(n + 2) // 2),)), n
        )
        assert ghost.total == 2
        assert ghost.excluded_from_differential

    strip = audit_pattern(DegenerationPattern((Strip(ind_u=1, jumps=1),)), 3)
    assert strip.total >= 3
    assert strip.excluded_from_differential and strip.excluded_from_square

    pearl = audit_pattern(DegenerationPattern((BoundaryPearl(),)), 3)
    assert pearl.total == 2
    assert pearl.excluded_from_differential
    _report(
        9,
        "ghost at ind=(n+2)/2 -> 2, strip with one jump -> >= 3,"
        " boundary pearl -> 2; all excluded from index-1 counts",
    )


def test_acceptance_10_exactness_and_grading_gates():
    spec, _ = get_model("circle", None)
    mesh = sample_immersion(spec, 64)
    with pytest.raises(NotGraded) as graded_err:
        compute_grading(mesh)
    assert graded_err.value.holonomy == 2
    with pytest.raises(NotExact):
        compute_primitive(mesh)

    cylinder, _ = get_model("cylinder", None)
    with pytest.raises(NotExact):
        compute_primitive(sample_immersion(cylinder, 32))
    _report(
        10,
        "unit circle: NotGraded with holonomy 2 and NotExact;"
        " non-exact loop on the cylinder: NotExact",
    )
