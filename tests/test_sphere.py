"""Sphere model tests: closed forms, full pipeline agreement, disc family.

Oracle values used below (hand-derived from the closed forms in the module
docstring): the double point sits at the origin with branch frames
e^{i pi/4} I and e^{3 i pi/4} I, all Kahler angles equal 1/4, actions are
+-1, ordered indices are n + 1 and -1, and every holomorphic disc of the
family has boundary primitive integral exactly +1.
"""

from __future__ import annotations

import numpy as np
import pytest

from pearl_floer.floer import (
    check_positivity,
    floer_cohomology,
    rank_inequality_report,
    two_point_morse,
    validate_datum,
)
from pearl_floer.geom import kahler_angles
from pearl_floer.immersion import (
    compute_grading,
    compute_primitive,
    emit_datum,
    find_double_points,
    sample_immersion,
)
from pearl_floer.sphere import (
    DiscFamily,
    sphere_curve,
    sphere_curve_derivative,
    sphere_datum,
    sphere_immersion,
    sphere_sample_count,
)

from _helpers import (
    fiber_parameter,
    quadratic_potential,
    sphere_branch_frames,
    sphere_h,
    sphere_theta,
)


def run_pipeline(n, resolution):
    spec = sphere_immersion(n)
    mesh = sample_immersion(spec, resolution)
    compute_primitive(mesh)
    compute_grading(mesh)
    return mesh, find_double_points(mesh)


# ---------------------------------------------------------------------------
# closed forms


def test_curve_squares_to_shifted_fiber():
    t = np.linspace(0.01, 0.99, 57)
    c = sphere_curve(t)
    assert np.allclose(c * c, np.exp(2j * np.pi * t) - 1.0, atol=1e-12)


def test_curve_derivative_matches_finite_differences():
    eps = 1e-7
    for t in np.linspace(0.05, 0.95, 19):
        fd = (sphere_curve(t + eps) - sphere_curve(t - eps)) / (2 * eps)
        assert abs(sphere_curve_derivative(t) - fd) < 1e-6


def test_h_closed_form_endpoints():
    assert sphere_h(0.0) == pytest.approx(0.0)
    assert sphere_h(1.0) == pytest.approx(1.0)
    t = np.linspace(0.0, 1.0, 101)
    assert np.all(np.diff(sphere_h(t)) > 0)


def test_branch_frames_and_angles():
    for n in (1, 2, 3, 5):
        f0, f1 = sphere_branch_frames(n)
        angles = kahler_angles(f0, f1)
        assert np.allclose(angles.values, 0.25, atol=1e-12)
        assert angles.total == pytest.approx(n / 4.0)


def test_potential_lies_over_unit_circle_on_every_chart():
    for n in (2, 3):
        spec = sphere_immersion(n)
        mesh = sample_immersion(spec, 16)
        for k, point in enumerate(mesh.points):
            chart_id = spec.charts[mesh.chart_index[k]].id
            t = fiber_parameter(chart_id, mesh.sample_params(k))
            expected = np.exp(2j * np.pi * t)
            assert abs(quadratic_potential(point) - expected) < 1e-12


def test_immersion_input_validation():
    with pytest.raises(ValueError, match="dimension"):
        sphere_immersion(0)
    with pytest.raises(ValueError, match="seam"):
        sphere_immersion(2, seam=0.6)


# ---------------------------------------------------------------------------
# full pipeline against the closed forms


@pytest.fixture(scope="module")
def pipeline_n2():
    return run_pipeline(2, 64)


def test_pipeline_finds_single_origin_double_point(pipeline_n2):
    mesh, records = pipeline_n2
    assert mesh.exactness_residual < 1e-10
    assert mesh.grading_residual < 1e-8
    assert len(records) == 2
    for r in records:
        assert np.linalg.norm(np.asarray(r.point)) < 1e-8
    assert {records[0].p_chart, records[0].q_chart} == {"cap0", "cap1"}


def test_pipeline_actions_indices_angles(pipeline_n2):
    _, records = pipeline_n2
    pos, neg = records
    assert pos.action == pytest.approx(1.0, abs=1e-9)
    assert neg.action == pytest.approx(-1.0, abs=1e-9)
    assert pos.index == 3 and neg.index == -1
    assert pos.index_raw == pytest.approx(3.0, abs=1e-6)
    for r in records:
        assert np.allclose(r.angles.values, 0.25, atol=1e-9)
        assert r.residual < 1e-6


def test_pipeline_h_and_theta_match_closed_forms():
    mesh, _ = run_pipeline(3, 32)
    assert mesh.chart_index[0] == mesh.chart_number("annulus")
    t0 = mesh.params[0, 0]
    offsets_h = []
    offsets_theta = []
    annulus = mesh.chart_index == mesh.chart_number("annulus")
    for h, theta, t in zip(mesh.h[annulus], mesh.theta[annulus], mesh.params[annulus, 0]):
        offsets_h.append(h - (sphere_h(t) - sphere_h(t0)))
        offsets_theta.append(theta - sphere_theta(t, 3))
    assert np.max(np.abs(offsets_h)) < 1e-9
    # the grading lift may differ from the closed form by one fixed integer
    shift = round(offsets_theta[0])
    assert np.allclose(offsets_theta, shift, atol=1e-9)


def test_pipeline_n4_indices():
    _, records = run_pipeline(4, 32)
    assert [r.index for r in records] == [5, -1]
    assert records[0].action == pytest.approx(1.0, abs=1e-8)


def test_emitted_datum_matches_closed_form_generators(pipeline_n2):
    mesh, records = pipeline_n2
    datum = emit_datum(mesh, records, two_point_morse(2))
    closed = sphere_datum(2)
    emitted = {g.id: (g.kind, g.degree) for g in datum.generators}
    expected = {g.id: (g.kind, g.degree) for g in closed.generators}
    assert emitted == expected
    by_id = {g.id: g for g in datum.generators}
    assert by_id["dp0ab"].action == pytest.approx(1.0, abs=1e-9)
    assert by_id["dp0ab"].partner == "dp0ba"
    # the pipeline emits only the Morse block; the strip entries are the
    # closed-form part of the model datum
    assert datum.differential == ()
    assert set(closed.differential) == {("dp0ba", "min"), ("max", "dp0ab")}


# ---------------------------------------------------------------------------
# the closed-form datum


def test_sphere_datum_is_valid_and_acyclic():
    for n in range(2, 7):
        datum = sphere_datum(n)
        assert validate_datum(datum).ok
        ranks = floer_cohomology(datum)
        assert all(rank == 0 for rank in ranks.values())


def test_sphere_datum_positivity_threshold():
    for n in range(2, 7):
        report = check_positivity(sphere_datum(n), mode="strong")
        assert report.ok
        assert report.rows[0].degree == n + 1
    with pytest.warns(UserWarning, match="degenerate"):
        degenerate = sphere_datum(1)
    report = check_positivity(degenerate, mode="strong")
    assert not report.ok  # degree 2 sits below the strong threshold 3


def test_sphere_datum_rank_inequality_is_tight():
    report = rank_inequality_report(sphere_datum(3))
    assert report.inequality_holds
    assert report.card_R == 2
    assert report.sum_betti == 2
    assert report.sum_HF == 0


# ---------------------------------------------------------------------------
# the disc family through the double point


def test_disc_corner_maps_to_double_point():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        x = rng.normal(size=n)
        a = (rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())).item()
        disc = DiscFamily(x, a=a, beta=rng.uniform(0, 2 * np.pi))
        corner = disc.corner
        assert abs(abs(corner) - 1.0) < 1e-12
        assert np.linalg.norm(disc.map(corner)) < 1e-7


def test_disc_boundary_lies_on_sphere_image():
    rng = np.random.default_rng(42)
    disc = DiscFamily(
        rng.normal(size=3), a=0.3 + 0.2j, beta=1.1
    )
    for s in rng.uniform(0.05, 2 * np.pi - 0.05, size=25):
        z = disc.boundary_point(float(np.angle(disc.corner)) + s)
        w = quadratic_potential(z) - 1.0
        # the boundary stays over the unit fiber circle ...
        assert abs(abs(w + 1.0) - 1.0) < 1e-12
        # ... and equals c(t) x for the branch parameter t of that fiber
        t = float(np.angle(w + 1.0) / (2 * np.pi)) % 1.0
        assert np.allclose(z, sphere_curve(t) * disc.x, atol=1e-9)


def test_disc_boundary_action_is_plus_one():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        for _ in range(2):
            x = rng.normal(size=n)
            a = (rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform())).item()
            disc = DiscFamily(x, a=a, beta=rng.uniform(0, 2 * np.pi))
            assert disc.boundary_action() == pytest.approx(1.0, abs=1e-6)


def test_disc_input_validation():
    with pytest.raises(ValueError, match="unit disc"):
        DiscFamily(np.array([1.0, 0.0]), a=1.2)
    with pytest.raises(ValueError, match="nonzero"):
        DiscFamily(np.array([0.0, 0.0]))


def test_sphere_sample_count_matches_the_atlas():
    for n in range(1, 6):
        charts = sphere_immersion(n).charts
        for resolution in (8, 9, 16, 24, 33, 64):
            assert sphere_sample_count(n, resolution) == sum(
                chart.sample_count(resolution) for chart in charts
            )
