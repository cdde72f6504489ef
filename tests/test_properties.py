"""Property tests (hypothesis): invariants that must hold for any input."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from pearl_floer.gf2 import GF2Matrix, GradedComplex  # noqa: E402

from _helpers import random_graded_complex, to_numpy  # noqa: E402


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
    moved = GradedComplex(cx.degrees, GF2Matrix.from_dense(d.tolist()))
    assert moved.cohomology_ranks() == cx.cohomology_ranks()
