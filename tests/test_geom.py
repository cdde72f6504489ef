"""Tests for the linear-geometry kernel."""

from __future__ import annotations

import numpy as np
import pytest

from pearl_floer.geom import (
    AmbientSpace,
    Degenerate,
    DimensionMismatch,
    KahlerAngles,
    LagrangianFrame,
    NotLagrangian,
    NotTransverse,
    det_squared_phase,
    index_of_pair,
    kahler_angles,
    make_unitary_frame,
)

from _helpers import (
    cofactor_det,
    planted_pair,
    random_orthogonal,
    random_unitary,
    transversality_check,
)


def identity_frame(n: int) -> LagrangianFrame:
    return LagrangianFrame(np.eye(n, dtype=complex))


def phase_frame(n: int, phi: float) -> LagrangianFrame:
    return LagrangianFrame(np.exp(1j * phi) * np.eye(n, dtype=complex))


# ---------------------------------------------------------------------------
# ambient conventions


def test_ambient_space_forms():
    amb = AmbientSpace(2)
    e1 = np.array([1.0, 0.0], dtype=complex)
    ie1 = np.array([1j, 0.0])
    assert amb.omega(e1, ie1) == pytest.approx(1.0)
    assert amb.omega(e1, e1) == pytest.approx(0.0)
    # sigma at z in direction v = (1/2) Im <z, v>
    z = np.array([2.0 + 0j, 0.0])
    assert amb.sigma(z, ie1) == pytest.approx(1.0)
    assert amb.sigma(z, e1) == pytest.approx(0.0)


def test_ambient_space_rejects_nonpositive_dimension():
    with pytest.raises(DimensionMismatch):
        AmbientSpace(0)


# ---------------------------------------------------------------------------
# frame construction


def test_make_unitary_frame_rescales_real_axes():
    f = make_unitary_frame([np.array([2.0, 0.0], dtype=complex),
                            np.array([0.0, -3.0], dtype=complex)])
    assert np.allclose(np.abs(f.columns.conj().T @ f.columns), np.eye(2))
    # same plane as the identity frame: all angles would be degenerate
    assert not transversality_check(f, identity_frame(2))


def test_make_unitary_frame_rejects_non_lagrangian_pair():
    e1 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NotLagrangian):
        make_unitary_frame([e1, 1j * e1])


def test_make_unitary_frame_rejects_non_lagrangian_graph():
    # graph of (s, t) -> (s + i t, 0): tangent vectors e1 and i e1 in C^2
    with pytest.raises(NotLagrangian):
        make_unitary_frame([np.array([1.0, 0.0], dtype=complex),
                            np.array([1j, 0.0])])


def test_make_unitary_frame_rejects_dependent_vectors():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(Degenerate):
        make_unitary_frame([e1 + e2, e1 + e2])
    with pytest.raises(Degenerate):
        make_unitary_frame([e1, 0.0 * e2])


def test_make_unitary_frame_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        make_unitary_frame([np.array([1.0, 0.0], dtype=complex)])


def test_frame_constructor_rejects_skew_columns():
    with pytest.raises(NotLagrangian):
        LagrangianFrame(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


def test_random_lagrangian_spans_pass(rng=np.random.default_rng(7)):
    # real-linear recombinations of a unitary frame still span the plane
    for _ in range(50):
        n = int(rng.integers(1, 7))
        u = random_unitary(rng, n)
        mix = rng.standard_normal((n, n))
        while abs(np.linalg.det(mix)) < 1e-2:
            mix = rng.standard_normal((n, n))
        f = make_unitary_frame(u @ mix)
        # the rebuilt frame spans the same plane: F = U O for O orthogonal
        o = u.conj().T @ f.columns
        assert np.max(np.abs(np.imag(o))) < 1e-10
        assert np.max(np.abs(o.T @ o - np.eye(n))) < 1e-10


def gram_schmidt_frame(columns: np.ndarray) -> np.ndarray:
    """Reference: Gram-Schmidt for Re<.,.>, re-orthogonalised once."""
    q = np.empty_like(columns)
    for j in range(columns.shape[1]):
        v = columns[:, j]
        for _ in range(2):
            for i in range(j):
                v = v - np.real(np.vdot(q[:, i], v)) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


def test_make_unitary_frame_stack_matches_single_frames_and_gram_schmidt():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 6):
        stack = np.array([random_unitary(rng, n) @ rng.standard_normal((n, n)) for _ in range(9)])
        frames = make_unitary_frame(stack)
        assert frames.shape == (9, n, n)
        for columns, frame in zip(stack, frames):
            assert np.array_equal(make_unitary_frame(columns).columns, frame)
            assert np.max(np.abs(frame - gram_schmidt_frame(columns))) < 1e-12


def test_make_unitary_frame_stack_reports_first_failure():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    good = np.column_stack([e1, e2])
    dependent = np.column_stack([e1 + e2, e1 + e2])
    skew = np.column_stack([e1, 1j * e1])
    stack = np.array([good, good, dependent, skew])
    with pytest.raises(Degenerate) as info:
        make_unitary_frame(stack)
    assert info.value.index == 2
    with pytest.raises(Degenerate) as single:
        make_unitary_frame(dependent)
    assert str(info.value) == str(single.value)
    with pytest.raises(NotLagrangian) as info:
        make_unitary_frame(stack[[0, 3, 2]])
    assert info.value.index == 1


# ---------------------------------------------------------------------------
# Kahler angles


def test_kahler_angles_single_line():
    f1 = identity_frame(1)
    f2 = phase_frame(1, np.pi / 4)
    ang = kahler_angles(f1, f2)
    assert ang.values == pytest.approx((0.125,))
    assert ang.total == pytest.approx(0.125)


def test_kahler_angles_diagonal_branch_pair():
    # the two planes exp(i pi/4) R^n and exp(3 i pi/4) R^n sit at angles 1/4
    for n in (1, 2, 3, 6):
        ang = kahler_angles(phase_frame(n, np.pi / 4), phase_frame(n, 3 * np.pi / 4))
        assert ang.values == pytest.approx((0.25,) * n)
        assert ang.total == pytest.approx(n / 4)


def test_kahler_angles_not_transverse():
    with pytest.raises(NotTransverse):
        kahler_angles(identity_frame(3), identity_frame(3))
    # one shared direction in an otherwise rotated plane
    f2 = LagrangianFrame(np.diag([np.exp(1j * np.pi / 4), 1.0]).astype(complex))
    with pytest.raises(NotTransverse):
        kahler_angles(identity_frame(2), f2)


def test_kahler_angles_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kahler_angles(identity_frame(2), identity_frame(3))


def test_planted_angles_recovered():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        f1, f2, alphas = planted_pair(rng, n)
        got = np.array(kahler_angles(f1, f2).values)
        assert np.max(np.abs(got - alphas)) < 1e-9


def test_angles_invariant_under_frame_choice():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        f1, f2, alphas = planted_pair(rng, n)
        o1 = random_orthogonal(rng, n)
        o2 = random_orthogonal(rng, n)
        g1 = LagrangianFrame(f1.columns @ o1)
        g2 = LagrangianFrame(f2.columns @ o2)
        a = np.array(kahler_angles(f1, f2).values)
        b = np.array(kahler_angles(g1, g2).values)
        assert np.max(np.abs(a - b)) < 1e-9


def test_angles_invariant_under_simultaneous_unitary():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        f1, f2, _ = planted_pair(rng, n)
        w = random_unitary(rng, n)
        g1 = LagrangianFrame(w @ f1.columns)
        g2 = LagrangianFrame(w @ f2.columns)
        a = np.array(kahler_angles(f1, f2).values)
        b = np.array(kahler_angles(g1, g2).values)
        assert np.max(np.abs(a - b)) < 1e-9


def test_angle_complement_under_order_swap():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        f1, f2, _ = planted_pair(rng, n)
        fwd = np.array(kahler_angles(f1, f2).values)
        bwd = np.array(kahler_angles(f2, f1).values)
        assert np.max(np.abs(np.sort(0.5 - fwd) - bwd)) < 1e-9
        assert fwd.sum() + bwd.sum() == pytest.approx(n / 2, abs=2e-9)


# ---------------------------------------------------------------------------
# squared-determinant phase


def test_det_squared_phase_basics():
    assert det_squared_phase(identity_frame(4)) == pytest.approx(0.0)
    for n in (1, 2, 3, 5):
        expect = (n / 4.0) % 1.0
        assert det_squared_phase(phase_frame(n, np.pi / 4)) == pytest.approx(expect)


def test_det_squared_phase_against_cofactor_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        u = random_unitary(rng, n)
        f = LagrangianFrame(u)
        det = cofactor_det(u)
        expect = (np.angle(det) / np.pi) % 1.0
        got = det_squared_phase(f)
        diff = abs(got - expect) % 1.0
        assert min(diff, 1.0 - diff) < 1e-10


def test_det_squared_phase_plane_invariance():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        u = random_unitary(rng, n)
        o = random_orthogonal(rng, n)
        a = det_squared_phase(LagrangianFrame(u))
        b = det_squared_phase(LagrangianFrame(u @ o))
        diff = abs(a - b) % 1.0
        assert min(diff, 1.0 - diff) < 1e-10


# ---------------------------------------------------------------------------
# index of a graded intersection


def test_index_of_pair_examples():
    ang = KahlerAngles((0.25,) * 1)
    # n = 3: theta jump 3/2, one angle totalling 1/4
    val = index_of_pair(0.0, 1.5, KahlerAngles((0.25,)), 3)
    assert val.raw == pytest.approx(4.0)
    assert val.rounded == 4
    assert val.residual < 1e-12
    # n = 2: equal phases, angles totalling 1/2
    val = index_of_pair(0.25, 0.25, KahlerAngles((0.2, 0.3)), 2)
    assert val.raw == pytest.approx(1.0)
    assert val.rounded == 1
    del ang


def test_index_residual_reported_not_raised():
    val = index_of_pair(0.0, 0.3, KahlerAngles((0.1,)), 1)
    assert val.raw == pytest.approx(1.1)
    assert val.rounded == 1
    assert val.residual == pytest.approx(0.1)


def test_index_complement_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        f1, f2, _ = planted_pair(rng, n)
        tp = float(rng.uniform(-2, 2))
        tq = float(rng.uniform(-2, 2))
        fwd = index_of_pair(tp, tq, kahler_angles(f1, f2), n)
        bwd = index_of_pair(tq, tp, kahler_angles(f2, f1), n)
        assert fwd.raw + bwd.raw == pytest.approx(n, abs=2e-9)


# ---------------------------------------------------------------------------
# transversality predicate


def test_transversality_check():
    assert not transversality_check(identity_frame(2), identity_frame(2))
    assert transversality_check(identity_frame(2), phase_frame(2, np.pi / 4))
    with pytest.raises(DimensionMismatch):
        transversality_check(identity_frame(2), identity_frame(3))
