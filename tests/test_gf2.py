"""Tests for the exact GF(2) layer: matrices, complexes, cones, spectral pages."""

from __future__ import annotations

import time

import numpy as np
import pytest

from pearl_floer.floer import action_filtration
from pearl_floer.gf2 import (
    DegreeViolation,
    FilteredComplex,
    FiltrationViolated,
    GF2Matrix,
    GradedComplex,
    NotAComplex,
    NotChainMap,
    ShapeMismatch,
    is_quasi_iso,
    mapping_cone,
    spectral_pages,
    verify_chain_map,
)

from _helpers import (
    brute_cohomology,
    brute_pages,
    gf2_rank,
    quasi_iso_pair,
    random_chain_map,
    random_filtered_complex,
    random_gf2_matrix,
    random_graded_complex,
    random_valid_datum,
    span_size,
    to_numpy,
)


# ---------------------------------------------------------------------------
# matrices


def test_from_entries_cancels_in_pairs():
    m = GF2Matrix.from_entries(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m.get(0, 1) == 0
    assert m.get(1, 0) == 1


def test_dense_roundtrip_and_entries():
    dense = [[1, 0, 1], [0, 1, 0]]
    m = GF2Matrix.from_dense(dense)
    assert m.to_dense() == dense
    assert sorted(m.entries()) == [(0, 0), (0, 2), (1, 1)]
    assert m.column(0) == 0b01
    assert m.column(1) == 0b10


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        GF2Matrix(2, 2, [0b100, 0])  # bit beyond column count
    with pytest.raises(ShapeMismatch):
        GF2Matrix.from_entries(2, 2, [(2, 0)])
    with pytest.raises(ShapeMismatch):
        GF2Matrix.zeros(2, 3) @ GF2Matrix.zeros(2, 3)
    with pytest.raises(ShapeMismatch):
        GF2Matrix.zeros(2, 3) + GF2Matrix.zeros(3, 2)


def test_arithmetic_against_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r, k, c = (int(x) for x in rng.integers(1, 9, 3))
        a = random_gf2_matrix(rng, r, k)
        b = random_gf2_matrix(rng, k, c)
        assert np.array_equal(to_numpy(a @ b), (to_numpy(a) @ to_numpy(b)) % 2)
        a2 = random_gf2_matrix(rng, r, k)
        assert np.array_equal(to_numpy(a + a2), (to_numpy(a) + to_numpy(a2)) % 2)
        assert np.array_equal(to_numpy(a.transpose()), to_numpy(a).T)


def test_rank_against_span_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = random_gf2_matrix(rng, 8, 8)
        assert span_size(m.data) == 1 << gf2_rank(m.data)


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r, c = (int(x) for x in rng.integers(1, 12, 2))
        m = random_gf2_matrix(rng, r, c)
        assert gf2_rank(m.data) == gf2_rank(m.transpose().data)


# ---------------------------------------------------------------------------
# graded complexes


def chain_abc() -> GradedComplex:
    """Degrees 0, 1, 2 with d(a) = b and d(b) = c: not a complex."""
    d = GF2Matrix.from_entries(3, 3, [(1, 0), (2, 1)])
    return GradedComplex((0, 1, 2), d, labels=("a", "b", "c"))


def test_degree_discipline_enforced():
    with pytest.raises(DegreeViolation):
        GradedComplex((0, 0), GF2Matrix.from_entries(2, 2, [(1, 0)]))


def test_square_zero_witness():
    rep = chain_abc().verify_square_zero()
    assert not rep.ok
    assert rep.witness == ("a", "c")
    assert rep.witness_indices == (0, 2)


def test_square_zero_passes_on_honest_complexes():
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert random_graded_complex(rng).verify_square_zero().ok


def test_cohomology_zero_differential():
    cx = GradedComplex((0, 0, 1, 3), GF2Matrix.zeros(4, 4))
    assert cx.cohomology_ranks() == {0: 2, 1: 1, 3: 1}


def test_cohomology_acyclic_two_term():
    cx = GradedComplex((0, 1), GF2Matrix.from_entries(2, 2, [(1, 0)]))
    assert cx.cohomology_ranks() == {0: 0, 1: 0}


def test_cohomology_requires_square_zero():
    with pytest.raises(NotAComplex):
        chain_abc().cohomology_ranks()


def test_cohomology_against_enumeration_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        cx = random_graded_complex(rng)
        assert cx.cohomology_ranks() == brute_cohomology(cx)


# ---------------------------------------------------------------------------
# chain maps, cones, quasi-isomorphisms


def two_term() -> GradedComplex:
    return GradedComplex((0, 1), GF2Matrix.from_entries(2, 2, [(1, 0)]),
                         labels=("a", "b"))


def test_verify_chain_map_identity_and_zero():
    cx = two_term()
    assert verify_chain_map(cx, cx, GF2Matrix.identity(2))
    assert verify_chain_map(cx, cx, GF2Matrix.zeros(2, 2))


def test_verify_chain_map_detects_failure():
    cx = two_term()
    phi = GF2Matrix.from_entries(2, 2, [(0, 0)])  # a -> a, b -> 0
    assert not verify_chain_map(cx, cx, phi)


def test_verify_chain_map_guards():
    cx = two_term()
    with pytest.raises(ShapeMismatch):
        verify_chain_map(cx, cx, GF2Matrix.zeros(3, 2))
    with pytest.raises(DegreeViolation):
        verify_chain_map(cx, cx, GF2Matrix.from_entries(2, 2, [(1, 0)]))


def test_chain_map_against_dense_products():
    rng = np.random.default_rng(10)
    for _ in range(50):
        c1, c2, phi = quasi_iso_pair(rng)
        lhs = (to_numpy(phi) @ to_numpy(c1.differential)) % 2
        rhs = (to_numpy(c2.differential) @ to_numpy(phi)) % 2
        assert verify_chain_map(c1, c2, phi) == bool(np.array_equal(lhs, rhs))
        assert verify_chain_map(c1, c2, phi)


def test_mapping_cone_shape_and_acyclicity_of_identity():
    cx = two_term()
    cone = mapping_cone(cx, cx, GF2Matrix.identity(2))
    assert cone.degrees == (-1, 0, 0, 1)
    assert cone.verify_square_zero().ok
    assert all(r == 0 for r in cone.cohomology_ranks().values())
    assert is_quasi_iso(cx, cx, GF2Matrix.identity(2))


def test_mapping_cone_requires_chain_map():
    cx = two_term()
    phi = GF2Matrix.from_entries(2, 2, [(0, 0)])
    with pytest.raises(NotChainMap):
        mapping_cone(cx, cx, phi)
    with pytest.raises(NotChainMap):
        is_quasi_iso(cx, cx, phi)


def test_quasi_iso_negative_cases():
    point = GradedComplex((0,), GF2Matrix.zeros(1, 1))
    empty = GradedComplex((), GF2Matrix.zeros(0, 0))
    # zero map to the empty complex is a chain map but kills H^0
    assert verify_chain_map(point, empty, GF2Matrix.zeros(0, 1))
    assert not is_quasi_iso(point, empty, GF2Matrix.zeros(0, 1))
    # inclusion into a complex with an extra cohomology class
    bigger = GradedComplex((0, 2), GF2Matrix.zeros(2, 2))
    incl = GF2Matrix.from_entries(2, 1, [(0, 0)])
    assert verify_chain_map(point, bigger, incl)
    assert not is_quasi_iso(point, bigger, incl)


def test_quasi_iso_constructed_pairs():
    rng = np.random.default_rng(11)
    for _ in range(30):
        c1, c2, phi = quasi_iso_pair(rng)
        assert is_quasi_iso(c1, c2, phi)


def test_quasi_iso_against_brute_cone_cohomology():
    rng = np.random.default_rng(17)
    maps = [random_chain_map(rng) for _ in range(300)]
    maps += [quasi_iso_pair(rng) for _ in range(50)]
    start = time.perf_counter()
    verdicts = set()
    for c1, c2, phi in maps:
        assert verify_chain_map(c1, c2, phi)
        brute = brute_cohomology(mapping_cone(c1, c2, phi))
        verdict = is_quasi_iso(c1, c2, phi)
        assert verdict == all(r == 0 for r in brute.values())
        verdicts.add(verdict)
    elapsed = time.perf_counter() - start
    assert verdicts == {True, False}
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_quasi_iso_propagates_broken_complex():
    cx = two_term()
    with pytest.raises(NotAComplex):
        is_quasi_iso(chain_abc(), chain_abc(), GF2Matrix.identity(3))
    del cx


# ---------------------------------------------------------------------------
# filtered complexes and spectral pages


def test_filtration_violation_detected():
    cx = two_term()
    with pytest.raises(FiltrationViolated):
        FilteredComplex(cx, (1, 0))
    with pytest.raises(FiltrationViolated):
        FilteredComplex(cx, (-1, 0))
    with pytest.raises(ShapeMismatch):
        FilteredComplex(cx, (0,))
    FilteredComplex(cx, (0, 1))  # raising filtration is fine


def test_single_level_pages_equal_cohomology():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cx = random_graded_complex(rng)
        fc = FilteredComplex(cx, (0,) * len(cx))
        table = spectral_pages(fc)
        ranks = cx.cohomology_ranks()
        for k, r in ranks.items():
            assert table.rank(1, 0, k) == r
            assert table.e_inf_rank(0, k) == r
        assert sum(table.pages[1].values()) == sum(ranks.values())


def test_three_level_hand_example():
    # generators: w (deg -1, level 0), y (deg 0, level 1),
    #             y' (deg 3, level 1), v (deg 4, level 2); d(w) = y, d(y') = v
    cx = GradedComplex(
        (-1, 0, 3, 4),
        GF2Matrix.from_entries(4, 4, [(1, 0), (3, 2)]),
        labels=("w", "y", "yp", "v"),
    )
    fc = FilteredComplex(cx, (0, 1, 1, 2))
    table = spectral_pages(fc)
    assert table.max_level == 2
    assert table.r_stable == 3
    assert table.pages[1] == {(0, -1): 1, (1, -1): 1, (1, 2): 1, (2, 2): 1}
    assert table.pages[2] == {}
    assert table.e_inf == {}
    assert table.rank(99, 0, -1) == 0


def test_page_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        fc = random_filtered_complex(rng)
        table = spectral_pages(fc)
        for r in range(len(table.pages) - 1):
            for key, rank in table.pages[r + 1].items():
                assert rank <= table.rank(r, *key)


def test_pages_converge_to_cohomology():
    rng = np.random.default_rng(14)
    for _ in range(300):
        fc = random_filtered_complex(rng)
        table = spectral_pages(fc)
        ranks = fc.complex.cohomology_ranks()
        degrees = set(ranks) | {p + q for p, q in table.e_inf}
        for k in degrees:
            total = sum(
                table.e_inf_rank(p, k - p) for p in range(fc.max_level + 1)
            )
            assert total == ranks.get(k, 0)


def test_pages_require_square_zero():
    fc = FilteredComplex(chain_abc(), (0, 0, 0))
    with pytest.raises(NotAComplex, match=r"witness a -> c"):
        spectral_pages(fc)


def test_r_max_extension():
    rng = np.random.default_rng(15)
    fc = random_filtered_complex(rng)
    table = spectral_pages(fc, r_max=fc.max_level + 4)
    assert len(table.pages) == fc.max_level + 5
    for key, rank in table.pages[-1].items():
        assert table.e_inf_rank(*key) == rank


def test_pages_match_the_approximate_cycle_oracle():
    rng = np.random.default_rng(16)
    filtered = [random_filtered_complex(rng) for _ in range(300)]
    filtered += [action_filtration(random_valid_datum(rng)) for _ in range(50)]
    start = time.perf_counter()
    for fc in filtered:
        r_top = fc.max_level + 3
        table = spectral_pages(fc, r_max=r_top)
        assert list(table.pages) == brute_pages(fc, r_top)
        assert table.e_inf == table.pages[fc.max_level + 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
