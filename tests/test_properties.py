"""Property tests (hypothesis): invariants that must hold for any input."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from pearl_floer.fileformat import (  # noqa: E402
    datum_from_dict,
    datum_to_dict,
    dumps_datum,
    loads_datum,
)
from pearl_floer.floer import (  # noqa: E402
    FloerDatum,
    Generator,
    ValidationReport,
    validate_datum,
)
from pearl_floer.gf2 import GradedComplex  # noqa: E402

from _helpers import gf2_from_dense, random_graded_complex, to_numpy  # noqa: E402


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cohomology_invariant_under_change_of_basis(seed, data):
    cx = random_graded_complex(np.random.default_rng(seed))
    n = len(cx)
    p = np.eye(n, dtype=np.int64)
    p_inv = np.eye(n, dtype=np.int64)
    for idx in cx.degree_indices().values():
        # P restricted to one degree is a product of transvections, each
        # its own inverse over GF(2), so P^-1 is their reversed product
        moves = data.draw(
            st.lists(st.tuples(st.sampled_from(idx), st.sampled_from(idx)), max_size=8)
        )
        for i, j in moves:
            if i != j:
                e = np.eye(n, dtype=np.int64)
                e[i, j] = 1
                p = (p @ e) % 2
                p_inv = (e @ p_inv) % 2
    assert np.array_equal((p @ p_inv) % 2, np.eye(n, dtype=np.int64))
    d = (p @ to_numpy(cx.differential) @ p_inv) % 2
    moved = GradedComplex(cx.degrees, gf2_from_dense(d.tolist()))
    assert moved.cohomology_ranks() == cx.cohomology_ranks()


def legal_entry(src: Generator, dst: Generator) -> bool:
    """Whether src -> dst may stand in a valid datum's net differential."""
    if dst.degree != src.degree + 1:
        return False
    if src.kind == "pair" and dst.kind == "pair":
        return dst.action > src.action
    if src.kind == "crit" and dst.kind == "pair":
        return dst.action > 0
    if src.kind == "pair" and dst.kind == "crit":
        return src.action < 0
    return True


@st.composite
def valid_datums(draw):
    """Any datum that validates: unicode ids, any finite actions (zero and
    -0.0 included), legal entries listed any number of times, and illegal
    ones an even number of times, so that they cancel."""
    n, n_crit, n_pairs = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    size = n_crit + 2 * n_pairs
    names = st.text(min_size=1, max_size=4)
    ids = draw(st.lists(names, min_size=size, max_size=size, unique=True))
    gens = [Generator(gen_id, "crit", draw(st.integers(0, n))) for gen_id in ids[2 * n_pairs :]]
    for a, b in zip(ids[: 2 * n_pairs : 2], ids[1 : 2 * n_pairs : 2]):
        degree = draw(st.integers(-1, n + 1))
        action = draw(st.floats(allow_nan=False, allow_infinity=False))
        gens.append(Generator(a, "pair", degree, action, b))
        gens.append(Generator(b, "pair", n - degree, -action, a))
    order = draw(st.permutations(range(len(gens))))
    gens = [gens[k] for k in order]
    couples = [(g, h) for g in gens for h in gens if g.id != h.id]
    legal = [(g.id, h.id) for g, h in couples if legal_entry(g, h)]
    illegal = [(g.id, h.id) for g, h in couples if not legal_entry(g, h)]
    entries = []
    if legal:
        entries += draw(st.lists(st.sampled_from(legal), max_size=8))
    if illegal:
        entries += 2 * draw(st.lists(st.sampled_from(illegal), max_size=3))
    entries = draw(st.permutations(entries))
    return FloerDatum(n, tuple(gens), tuple(entries))


@given(valid_datums())
def test_fld_round_trip_is_byte_stable(datum):
    assert validate_datum(datum).ok
    text = dumps_datum(datum)
    assert dumps_datum(loads_datum(text)) == text


@st.composite
def structurally_valid_datums(draw):
    """A valid datum with some fields replaced by arbitrary values that the
    FLD reader still accepts: the ambient dimension, a generator's kind,
    degree, action or partner, a repeated id, and entries naming any ids,
    known or not."""
    datum = draw(valid_datums())
    ids = [g.id for g in datum.generators] + ["ghost"]
    gens = list(datum.generators)
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        k = draw(st.integers(0, len(gens) - 1))
        degree = draw(st.integers(-3, 8))
        if draw(st.booleans()):
            gens[k] = Generator(gens[k].id, "crit", degree)
        else:
            action = draw(st.floats(allow_nan=False, allow_infinity=False))
            gens[k] = Generator(gens[k].id, "pair", degree, action, draw(st.sampled_from(ids)))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    entries = list(datum.differential)
    entries += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    return FloerDatum(draw(st.integers(-1, 5)), tuple(gens), tuple(entries))


@given(structurally_valid_datums())
def test_validate_datum_never_raises_on_structurally_valid_input(datum):
    assert datum_from_dict(datum_to_dict(datum)) is not None
    report = validate_datum(datum)
    assert isinstance(report, ValidationReport)
    assert all(isinstance(v, str) for v in report.violations + report.warnings)
