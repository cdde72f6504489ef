"""Pipeline tests: charts, meshing, primitive/grading passes, double points.

The figure-eight assertions use hand-derived closed forms for the model
z(t) = sin(4 pi t)/2 + i sin(2 pi t):

- pullback of the primitive: (1/2) Im(conj(z) z') = pi sin^3(2 pi t), so
  h(t) = (2/3 - cos(2 pi t) + cos(2 pi t)^3 / 3) / 2, giving h = 0 at t = 0
  and h = 2/3 at t = 1/2 (actions +-2/3 at the double point);
- tangent arguments at the crossing: pi/4 at t = 0 and -pi/4 at t = 1/2,
  so the single Kahler angle is 1/4 and the phase lift jumps by 3/2,
  giving ordered indices 1 + 3/2 - 1/2 = 2 and 1 - 3/2 - 1/2 = -1.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from pearl_floer import immersion
from pearl_floer.floer import MorseData
from pearl_floer.geom import AmbientSpace, NotLagrangian, det_squared_phase
from pearl_floer.immersion import (
    BoxChart,
    ImmersionSpec,
    NonTransverseDoublePoint,
    NotExact,
    NotGraded,
    PipelineError,
    SpokeBallChart,
    SuspensionChart,
    TripleOrWorse,
    compute_grading,
    compute_primitive,
    emit_datum,
    find_double_points,
    sample_immersion,
    tangent_basis,
)
from pearl_floer.models import get_model
from pearl_floer.sphere import sphere_immersion

from _helpers import refine_each


def eight_h(t):
    u = np.cos(2 * np.pi * np.asarray(t, dtype=float))
    return (2.0 / 3.0 - u + u**3 / 3.0) / 2.0


def run_pipeline(spec, resolution):
    mesh = sample_immersion(spec, resolution)
    compute_primitive(mesh)
    compute_grading(mesh)
    return mesh, find_double_points(mesh)


# ---------------------------------------------------------------------------
# charts


def test_tangent_basis_is_orthonormal_complement():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        basis = tangent_basis(x)
        assert basis.shape == (n, n - 1)
        assert np.allclose(basis.T @ basis, np.eye(n - 1), atol=1e-12)
        assert np.allclose(x @ basis, 0.0, atol=1e-12)


def test_tangent_basis_trivial_in_dimension_one():
    assert tangent_basis(np.array([1.0])).shape == (1, 0)


def test_box_chart_sample_counts_and_wrap_edge():
    chart = BoxChart(id="b", lo=(0.0, -1.0), hi=(1.0, 1.0), periodic=(True, False))
    pts = chart.sample_points(8)
    assert len(pts) == 8 * 9
    edges = [tuple(e) for e in chart.sample_edges(8).tolist()]
    index = {tuple(np.round(p, 12)): k for k, p in enumerate(pts)}
    a = index[(7.0 / 8.0, -1.0)]
    b = index[(0.0, -1.0)]
    assert (a, b) in edges or (b, a) in edges


def test_box_chart_edges_match_loop_reference():
    chart = BoxChart(
        id="b", lo=(0.0, 0.0, -1.0), hi=(1.0, 2.0, 1.0), periodic=(True, False, True)
    )
    shape = (8, 9, 8)
    expected = []
    for flat in range(int(np.prod(shape))):
        coords = np.unravel_index(flat, shape)
        stride = 1
        for k in reversed(range(3)):
            if coords[k] + 1 < shape[k]:
                expected.append((k, flat, flat + stride))
            elif chart.periodic[k]:
                expected.append((k, flat, flat - coords[k] * stride))
            stride *= shape[k]
    expected.sort(key=lambda edge: (edge[1], edge[0]))
    edges = chart.sample_edges(8)
    assert edges.tolist() == [[a, b] for _k, a, b in expected]


def test_box_chart_displace_stays_below_the_periodic_end():
    chart = BoxChart(id="b", lo=(0.0,), hi=(1.0,), periodic=(True,))
    out = chart.displace(np.array([[0.0]]), np.array([[-1e-17]]))
    assert 0.0 <= out[0, 0] < 1.0


def test_box_chart_displace_wraps_periodic_axis():
    chart = BoxChart(id="b", lo=(0.0,), hi=(1.0,), periodic=(True,))
    out = chart.displace(np.array([[0.9]]), np.array([[0.3]]))
    assert out[0, 0] == pytest.approx(0.2)


def test_box_chart_path_takes_shortest_wrap():
    chart = BoxChart(id="b", lo=(0.0,), hi=(1.0,), periodic=(True,))
    mid, velocity = chart.path(np.array([[0.95]]), np.array([[0.05]]), np.array([0.5]))
    assert mid[0, 0, 0] == pytest.approx(1.0)
    assert velocity[0, 0, 0] == pytest.approx(0.1)


def test_suspension_displace_stays_on_sphere():
    rng = np.random.default_rng(5)
    chart = SuspensionChart(
        id="s",
        t_lo=0.0,
        t_hi=1.0,
        directions=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    )
    for _ in range(50):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        params = np.concatenate(([0.3], x))
        moved = chart.displace(params[None], rng.normal(scale=0.2, size=(1, 3)))
        assert np.linalg.norm(moved[0, 1:]) == pytest.approx(1.0, abs=1e-12)


def test_suspension_path_endpoints_and_velocity():
    chart = SuspensionChart(
        id="s", t_lo=0.0, t_hi=1.0, directions=((1.0, 0.0), (0.0, 1.0))
    )
    pa = np.array([0.2, 1.0, 0.0])
    pb = np.array([0.6, 0.0, 1.0])
    def at(tau):
        params, velocity = chart.path(pa[None], pb[None], np.array([tau]))
        return params[0, 0], velocity[0, 0]

    p0, _ = at(0.0)
    p1, _ = at(1.0)
    assert np.allclose(p0, pa, atol=1e-12)
    assert np.allclose(p1, pb, atol=1e-12)
    eps = 1e-6
    mid, velocity = at(0.5)
    lo, _ = at(0.5 - eps)
    hi, _ = at(0.5 + eps)
    assert np.allclose((hi - lo) / (2 * eps), velocity, atol=1e-6)
    assert np.linalg.norm(mid[1:]) == pytest.approx(1.0, abs=1e-12)


def test_suspension_rejects_antipodal_geodesic():
    chart = SuspensionChart(
        id="s", t_lo=0.0, t_hi=1.0, directions=((1.0, 0.0), (-1.0, 0.0))
    )
    with pytest.raises(PipelineError, match="antipodal"):
        chart.path(
            np.array([[0.1, 1.0, 0.0]]), np.array([[0.2, -1.0, 0.0]]), np.array([0.5])
        )


@pytest.mark.parametrize(
    "chart",
    [
        BoxChart(id="b", lo=(0.0, -1.0, 0.0), hi=(1.0, 1.0, 2.0), periodic=(True, False, True)),
        BoxChart(id="f", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        SuspensionChart(
            id="s", t_lo=0.1, t_hi=0.9, directions=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
        ),
        SpokeBallChart(id="c", radius=0.5, directions=((1.0, 0.0), (0.0, 1.0))),
    ],
    ids=lambda chart: type(chart).__name__,
)
def test_sample_count_matches_sample_points(chart):
    for resolution in (8, 9, 16, 33, 64):
        assert chart.sample_count(resolution) == len(chart.sample_points(resolution))


def test_sample_limit_is_checked_before_sampling(monkeypatch):
    spec, _ = get_model("flat", 4)

    def refuse(self, resolution):
        raise AssertionError("sample_points called")

    monkeypatch.setattr(BoxChart, "sample_points", refuse)
    monkeypatch.setattr(immersion, "MAX_SAMPLES", 17**4 - 1)
    with pytest.raises(ValueError, match=f"{17**4} samples"):
        sample_immersion(spec, 16)


def test_frame_entry_limit_is_checked_before_sampling(monkeypatch):
    spec, _ = get_model("flat", 4)

    def refuse(self, resolution):
        raise AssertionError("sample_points called")

    monkeypatch.setattr(BoxChart, "sample_points", refuse)
    monkeypatch.setattr(immersion, "MAX_FRAME_ENTRIES", 17**4 * 16 - 1)
    with pytest.raises(ValueError, match=f"{17**4 * 16} frame entries"):
        sample_immersion(spec, 16)


def test_spoke_chart_spokes_reach_boundary():
    chart = SpokeBallChart(id="c", radius=0.5, directions=((1.0, 0.0), (0.0, 1.0)))
    pts = chart.sample_points(64)
    assert np.allclose(pts[0], 0.0)
    radii = sorted({round(float(np.linalg.norm(p)), 12) for p in pts})
    assert radii[0] == 0.0
    assert radii[-1] == pytest.approx(0.5)
    edges = chart.sample_edges(64)
    assert len(edges) == 2 * max(4, 64 // 8)
    assert all(any(e[0] == 0 for e in edges[k::]) for k in (0,))


# ---------------------------------------------------------------------------
# sampling and the two continuation passes


def test_flat_model_has_trivial_h_theta_and_no_double_points():
    spec, _ = get_model("flat", 3)
    mesh = sample_immersion(spec, 8)
    compute_primitive(mesh)
    compute_grading(mesh)
    assert np.max(np.abs(mesh.h)) < 1e-12
    assert np.max(np.abs(mesh.theta)) < 1e-12
    assert mesh.exactness_residual < 1e-12
    assert find_double_points(mesh) == []


def test_resolution_floor_is_enforced():
    spec, _ = get_model("flat", 2)
    with pytest.raises(ValueError, match="resolution"):
        sample_immersion(spec, 4)


def test_double_points_require_both_passes():
    spec, _ = get_model("flat", 2)
    mesh = sample_immersion(spec, 8)
    with pytest.raises(PipelineError, match="compute_primitive"):
        find_double_points(mesh)


def test_finite_difference_jacobian_matches_analytic():
    spec = sphere_immersion(3)
    fd_spec = dataclasses.replace(spec, differential=None)
    rng = np.random.default_rng(23)
    for chart_id in ("annulus", "cap0", "cap1"):
        for _ in range(5):
            if chart_id == "annulus":
                x = rng.normal(size=3)
                x /= np.linalg.norm(x)
                params = np.concatenate(([rng.uniform(0.2, 0.8)], x))
            else:
                v = rng.normal(size=3)
                v *= rng.uniform(0.1, 0.7) / np.linalg.norm(v)
                params = v
            exact = spec.jacobian(chart_id, params[None])[0]
            approx = fd_spec.jacobian(chart_id, params[None])[0]
            assert np.max(np.abs(exact - approx)) < 3e-7


BUILT_IN_MODELS = [("flat", 3), ("circle", 1), ("figure_eight", 1), ("cylinder", 2)] + [
    ("sphere", n) for n in (1, 2, 3, 5, 8)
]


def _interior_params(chart, rng, m):
    """m raw parameter vectors strictly inside ``chart``'s domain."""
    if isinstance(chart, BoxChart):
        lo, hi = np.array(chart.lo), np.array(chart.hi)
        return lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(m, len(lo)))
    if isinstance(chart, SuspensionChart):
        x = rng.normal(size=(m, chart.sphere_dim + 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        t = chart.t_lo + (chart.t_hi - chart.t_lo) * rng.uniform(0.1, 0.9, size=(m, 1))
        return np.hstack([t, x])
    v = rng.normal(size=(m, chart.dim))
    v *= chart.radius * rng.uniform(0.1, 0.9, size=(m, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return v


@pytest.mark.parametrize("name, dim", BUILT_IN_MODELS)
def test_five_point_jacobian_matches_every_built_in_model(name, dim):
    # the five-point stencil at FD_STEP errs by O(step^4) plus rounding;
    # the loop models' derivatives grow fastest (figure_eight worst)
    spec, _ = get_model(name, dim)
    fd_spec = dataclasses.replace(spec, differential=None)
    rng = np.random.default_rng(29)
    for chart in spec.charts:
        params = _interior_params(chart, rng, 64)
        exact = spec.jacobian(chart.id, params)
        approx = fd_spec.jacobian(chart.id, params)
        assert np.max(np.abs(exact - approx)) < 1e-11, chart.id


@pytest.mark.parametrize("name, dim", BUILT_IN_MODELS)
def test_mesh_phase_is_that_of_each_chart_in_one_call(name, dim):
    # the mesh reads the phase batch by batch; one call per chart must agree to the bit
    spec, _ = get_model(name, dim)
    mesh = sample_immersion(spec, 16)
    for c, chart in enumerate(spec.charts):
        frames = immersion._frames_at(spec, chart, mesh.chart_params(c))
        expected = det_squared_phase(frames)
        got = mesh.phase[mesh.offsets[c] : mesh.offsets[c + 1]]
        assert got.tobytes() == expected.tobytes(), chart.id


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_frame_probe_is_seeded_and_small_on_the_sphere(dim):
    spec, _ = get_model("sphere", dim)
    mesh = sample_immersion(spec, 16)
    compute_primitive(mesh)
    compute_grading(mesh)
    records = find_double_points(mesh)
    assert records
    for seed in range(4):
        worst = immersion.probe_frame_invariance(mesh, records, seed=seed)
        assert worst < 1e-9
        assert immersion.probe_frame_invariance(mesh, records, seed=seed) == worst


def test_non_lagrangian_chart_reports_location():
    chart = BoxChart(id="band", lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(True, False))

    def position(chart_id, params):
        t, s = params[:, 0], params[:, 1]
        return np.stack([(1.0 + s) * np.exp(2j * np.pi * t), s + 0j], axis=1)

    spec = ImmersionSpec(ambient=AmbientSpace(2), charts=(chart,), position=position)
    with pytest.raises(NotLagrangian, match="band"):
        sample_immersion(spec, 8)


def test_glue_must_land_on_samples_and_coincide():
    spec = sphere_immersion(2)
    bad = dataclasses.replace(
        spec, glue=(("annulus", (0.123, 1.0, 0.0), "cap0", (0.1, 0.0)),)
    )
    with pytest.raises(ValueError, match="not a mesh sample"):
        sample_immersion(bad, 16)


def test_circle_is_not_exact():
    spec, _ = get_model("circle")
    mesh = sample_immersion(spec, 64)
    with pytest.raises(NotExact) as info:
        compute_primitive(mesh)
    assert info.value.residual == pytest.approx(np.pi, abs=1e-6)


def test_circle_grading_holonomy_is_two():
    spec, _ = get_model("circle")
    mesh = sample_immersion(spec, 64)
    with pytest.raises(NotGraded) as info:
        compute_grading(mesh)
    assert info.value.holonomy == 2


def test_cylinder_loop_is_not_exact():
    spec, _ = get_model("cylinder")
    mesh = sample_immersion(spec, 16)
    with pytest.raises(NotExact) as info:
        compute_primitive(mesh)
    assert info.value.residual == pytest.approx(np.pi, abs=1e-6)


# ---------------------------------------------------------------------------
# non-finite callback values


def eight_with_nan(where):
    """The figure-eight, its position NaN at the params where ``where`` holds."""
    spec, _ = get_model("figure_eight")

    def position(chart_id, P):
        z = spec.position(chart_id, P)
        return np.where(where(P[:, :1]), np.nan, z)

    return dataclasses.replace(spec, position=position)


def test_non_finite_sample_positions_are_refused():
    bad = np.array([5, 40, 99]) / 128
    spec = eight_with_nan(lambda t: np.isin(t, bad))
    with pytest.raises(ValueError, match=r"chart 'loop': position is not finite at params \[0.0390625\]"):
        sample_immersion(spec, 128)


def test_non_finite_tangent_frames_are_refused():
    base, _ = get_model("figure_eight")
    spec = dataclasses.replace(
        base,
        differential=lambda chart_id, P: np.where(
            P[:, :, None] == 0.25, np.inf, base.differential(chart_id, P)
        ),
    )
    with pytest.raises(ValueError, match=r"chart 'loop': tangent frame is not finite at params \[0.25\]"):
        sample_immersion(spec, 128)


def eight_with_nan_intrinsic(where):
    """The figure-eight, its intrinsic point NaN at the params where ``where`` holds."""
    spec, _ = get_model("figure_eight")

    def intrinsic(chart_id, P):
        return np.where(where(P[:, :1]), np.nan, spec.intrinsic(chart_id, P))

    return dataclasses.replace(spec, intrinsic=intrinsic)


def test_non_finite_sample_intrinsic_points_are_refused():
    bad = np.array([10, 70]) / 128
    spec = eight_with_nan_intrinsic(lambda t: np.isin(t, bad))
    with pytest.raises(
        ValueError, match=r"chart 'loop': intrinsic point is not finite at params \[0.078125\]"
    ):
        sample_immersion(spec, 128)


def test_non_finite_intrinsic_point_at_a_root_is_refused():
    # finite on every sample, NaN everywhere between them (the roots)
    off_grid = lambda t: np.abs(t * 128 - np.round(t * 128)) > 1e-9
    mesh = sample_immersion(eight_with_nan_intrinsic(off_grid), 128)
    compute_primitive(mesh)
    compute_grading(mesh)
    with pytest.raises(ValueError, match="chart 'loop': intrinsic point is not finite"):
        find_double_points(mesh)


def eight_with_intrinsic(reshape):
    """The figure-eight, its intrinsic stack passed through ``reshape(P, w)``."""
    spec, _ = get_model("figure_eight")
    intrinsic = lambda chart_id, P: reshape(P, spec.intrinsic(chart_id, P))
    return dataclasses.replace(spec, intrinsic=intrinsic)


def test_intrinsic_stacks_of_the_wrong_shape_are_refused():
    short = eight_with_intrinsic(lambda P, w: w[:-1])
    with pytest.raises(
        ValueError,
        match=r"chart 'loop': intrinsic callback returned shape \(127, 2\), expected \(128, 2\)",
    ):
        sample_immersion(short, 128)
    # right on every sample, one coordinate short between them (the roots)
    off_grid = lambda P: (np.abs(P * 128 - np.round(P * 128)) > 1e-9).any()
    mesh = sample_immersion(eight_with_intrinsic(lambda P, w: w[:, :1] if off_grid(P) else w), 128)
    compute_primitive(mesh)
    compute_grading(mesh)
    with pytest.raises(
        ValueError,
        match=r"chart 'loop': intrinsic callback returned shape \(\d+, 1\), expected \(\d+, 2\)",
    ):
        find_double_points(mesh)


def test_nan_between_the_samples_is_not_exact():
    # finite on every sample, NaN at the quadrature nodes of a few edges
    off_grid = lambda t: (0.3 < t) & (t < 0.32) & (np.abs(t * 128 - np.round(t * 128)) > 1e-9)
    mesh = sample_immersion(eight_with_nan(off_grid), 128)
    with pytest.raises(NotExact, match="holonomy nan"):
        compute_primitive(mesh)


def test_nan_phase_is_not_graded():
    spec, _ = get_model("figure_eight")
    mesh = sample_immersion(spec, 128)
    mesh.phase[40] = np.nan
    with pytest.raises(NotGraded, match="non-integer phase defect nan"):
        compute_grading(mesh)


# ---------------------------------------------------------------------------
# figure-eight: one transverse double point with known closed forms


@pytest.fixture(scope="module")
def eight_run():
    spec, _ = get_model("figure_eight")
    mesh = sample_immersion(spec, 256)
    compute_primitive(mesh)
    compute_grading(mesh)
    return mesh, find_double_points(mesh)


def test_eight_h_matches_hand_integral(eight_run):
    mesh, _ = eight_run
    for h, t in zip(mesh.h, mesh.params[:, 0]):
        assert h == pytest.approx(eight_h(t), abs=1e-9)
    assert mesh.exactness_residual < 1e-10


def test_eight_theta_quarter_turn(eight_run):
    mesh, _ = eight_run
    # the tangent argument runs from pi/4 at t=0 to pi at t=1/4
    quarter = next(
        k for k, t in enumerate(mesh.params[:, 0]) if t == pytest.approx(0.25, abs=1e-12)
    )
    assert mesh.theta[quarter] - mesh.theta[0] == pytest.approx(0.75, abs=1e-6)


def test_eight_single_double_point_at_origin(eight_run):
    _, records = eight_run
    assert len(records) == 2
    for r in records:
        assert np.linalg.norm(np.asarray(r.point)) < 1e-9
    first = records[0]
    assert first.p_chart == first.q_chart == "loop"
    assert first.p_params[0] == pytest.approx(0.0, abs=1e-9)
    assert first.q_params[0] == pytest.approx(0.5, abs=1e-9)


def test_eight_actions_angles_indices(eight_run):
    _, records = eight_run
    pos, neg = records
    assert pos.action == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert neg.action == pytest.approx(-2.0 / 3.0, abs=1e-9)
    for r in records:
        assert np.allclose(r.angles.values, [0.25], atol=1e-9)
        assert r.residual < 1e-6
    assert pos.index == 2
    assert neg.index == -1
    assert pos.index_raw == pytest.approx(2.0, abs=1e-6)


def test_eight_records_are_mutual(eight_run):
    _, records = eight_run
    pos, neg = records
    assert (pos.p_id, pos.q_id) == (neg.q_id, neg.p_id)
    assert pos.action == pytest.approx(-neg.action, abs=1e-12)
    assert pos.index + neg.index == 1


def test_eight_basepoint_choice_does_not_change_records():
    spec, _ = get_model("figure_eight")
    mesh = sample_immersion(spec, 128)
    compute_primitive(mesh, basepoint=77)
    compute_grading(mesh, basepoint=77)
    records = find_double_points(mesh)
    assert len(records) == 2
    assert records[0].action == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert records[0].index == 2
    assert records[1].index == -1


def test_eight_resolution_convergence():
    spec, _ = get_model("figure_eight")
    actions = []
    for resolution in (128, 256):
        mesh = sample_immersion(spec, resolution)
        compute_primitive(mesh)
        compute_grading(mesh)
        records = find_double_points(mesh)
        actions.append(records[0].action)
    assert actions[0] == pytest.approx(actions[1], abs=1e-9)


def test_eight_emit_datum(eight_run):
    mesh, records = eight_run
    datum = emit_datum(mesh, records, MorseData(criticals=()))
    assert datum.ambient_dim == 1
    ids = sorted(g.id for g in datum.generators)
    assert ids == ["dp0ab", "dp0ba"]
    by_id = {g.id: g for g in datum.generators}
    assert by_id["dp0ab"].degree == 2
    assert by_id["dp0ab"].partner == "dp0ba"
    assert by_id["dp0ab"].action == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert by_id["dp0ba"].degree == -1
    assert datum.differential == ()


def test_eight_preimage_just_below_the_seam_keeps_its_id():
    # shifted by 1e-10, the figure-eight's t = 0 preimage becomes a Newton
    # root at t = 1 - 1e-10; it must still be dp0a, as on the seam
    shift = 1e-10
    spec, morse = get_model("figure_eight")
    shifted = dataclasses.replace(
        spec,
        position=lambda chart_id, P: spec.position(chart_id, P + shift),
        differential=lambda chart_id, P: spec.differential(chart_id, P + shift),
        intrinsic=lambda chart_id, P: spec.intrinsic(chart_id, P + shift),
    )
    mesh, records = run_pipeline(shifted, 128)
    first = records[0]
    assert (first.p_id, first.q_id) == ("dp0a", "dp0b")
    assert first.p_params[0] == pytest.approx(1.0 - shift, abs=1e-12)
    assert first.q_params[0] == pytest.approx(0.5 - shift, abs=1e-12)
    assert first.index == 2
    by_id = {g.id: g for g in emit_datum(mesh, records, morse).generators}
    assert (by_id["dp0ab"].degree, by_id["dp0ba"].degree) == (2, -1)


def test_eight_results_are_deterministic_and_independent_of_block_size(monkeypatch):
    spec, _ = get_model("figure_eight")

    def run():
        mesh = sample_immersion(spec, 128)
        compute_primitive(mesh)
        compute_grading(mesh)
        return mesh, find_double_points(mesh)

    runs = [run(), run()]
    monkeypatch.setattr(immersion, "QUAD_BLOCK", 1)
    runs.append(run())
    reference_mesh, reference = runs[0]
    assert len(reference) == 2
    for mesh, records in runs[1:]:
        assert np.array_equal(mesh.params, reference_mesh.params)
        assert np.array_equal(mesh.h, reference_mesh.h)
        assert np.array_equal(mesh.theta, reference_mesh.theta)
        assert len(records) == len(reference)
        for a, b in zip(reference, records):
            assert a.p_id == b.p_id and a.q_id == b.q_id
            assert a.action == b.action
            assert a.index_raw == b.index_raw
            assert a.p_params == b.p_params and a.q_params == b.q_params


def test_batched_lstsq_matches_numpy_lstsq():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((6, 4, 4))
    a[1, :, 3] = a[1, :, 0]  # rank 3
    a[2] = 0.0  # rank 0
    a[3, 3] = 1e-17 * a[3, 0]  # rank 3 under the cutoff
    b = rng.standard_normal((6, 4))
    x = immersion._lstsq(a, b)
    for k in range(6):
        expected, *_ = np.linalg.lstsq(a[k], b[k], rcond=None)
        assert np.max(np.abs(x[k] - expected)) < 1e-10


# ---------------------------------------------------------------------------
# degenerate crossings


def test_triple_point_is_rejected():
    charts = tuple(
        BoxChart(id=f"line{k}", lo=(-1.0,), hi=(1.0,)) for k in range(3)
    )
    phases = {f"line{k}": np.exp(1j * np.pi * k / 3) for k in range(3)}

    def position(chart_id, params):
        return phases[chart_id] * params

    def differential(chart_id, params):
        return np.full((len(params), 1, 1), phases[chart_id])

    spec = ImmersionSpec(
        ambient=AmbientSpace(1),
        charts=charts,
        position=position,
        differential=differential,
    )
    mesh = sample_immersion(spec, 16)
    compute_primitive(mesh)
    compute_grading(mesh)
    with pytest.raises(TripleOrWorse, match="3 preimages"):
        find_double_points(mesh)


def test_tangential_crossing_is_rejected():
    charts = (
        BoxChart(id="up", lo=(-1.0,), hi=(1.0,)),
        BoxChart(id="down", lo=(-1.0,), hi=(1.0,)),
    )

    def position(chart_id, params):
        t = params
        if chart_id == "up":
            return t + 1j * t * t
        return t - 1j * t * t

    def differential(chart_id, params):
        t = params[:, :, None]
        if chart_id == "up":
            return 1.0 + 2j * t
        return 1.0 - 2j * t

    spec = ImmersionSpec(
        ambient=AmbientSpace(1),
        charts=charts,
        position=position,
        differential=differential,
    )
    mesh = sample_immersion(spec, 64)
    compute_primitive(mesh)
    compute_grading(mesh)
    with pytest.raises(NonTransverseDoublePoint):
        find_double_points(mesh)


# ---------------------------------------------------------------------------
# broad phase: _candidate_pairs against independent oracles


def brute_pairs(coords, radius, keep):
    """Every pair i < j with norm(coords[j] - coords[i]) <= radius that keep
    accepts, by checking all m(m - 1)/2 pairs."""
    found = []
    for i in range(len(coords) - 1):
        j = i + 1 + np.flatnonzero(
            np.linalg.norm(coords[i + 1 :] - coords[i], axis=1) <= radius
        )
        found.append(np.stack([np.full(len(j), i), j], axis=1))
    pairs = np.concatenate(found) if found else np.zeros((0, 2), dtype=np.intp)
    return pairs[keep(pairs[:, 0], pairs[:, 1])] if len(pairs) else pairs


def checked_keep(coords, radius, calls):
    """A deterministic keep that drops every third pair and checks its input."""

    def keep(i, j):
        assert np.all(i < j)
        assert np.all(np.linalg.norm(coords[j] - coords[i], axis=1) <= radius)
        calls.append(np.stack([i, j], axis=1))
        return (i + 2 * j) % 3 != 0

    return keep


def assert_pairs_match_brute_force(coords, radius):
    calls = []
    got = immersion._candidate_pairs(coords, radius, checked_keep(coords, radius, calls))
    want = brute_pairs(coords, radius, checked_keep(coords, radius, []))
    assert got.dtype == np.intp and got.shape[1:] == (2,)
    assert np.array_equal(got, want)
    offered = np.concatenate(calls) if calls else np.zeros((0, 2), dtype=np.intp)
    # keep saw every near pair exactly once
    assert len(offered) == len({tuple(p) for p in offered.tolist()})
    assert len(offered) == len(brute_pairs(coords, radius, lambda i, j: i >= 0))


def random_cloud(rng, m, width, radius):
    kind = rng.integers(3)
    if kind == 0:  # a blob a few radii across
        coords = rng.normal(scale=3 * radius, size=(m, width))
    elif kind == 1:  # a curve, as a mesh of one-dimensional charts gives
        t = np.sort(rng.uniform(0, 40 * radius, size=m))
        coords = 5 * radius * np.cos(t[:, None] / (5 * radius) + np.arange(width))
    else:  # points on cell faces: integer multiples of the radius
        coords = rng.integers(-4, 5, size=(m, width)) * radius
    if m > 2:  # duplicate points
        coords[rng.integers(m, size=m // 5)] = coords[rng.integers(m, size=m // 5)]
    return coords


def test_candidate_pairs_match_brute_force_on_random_clouds():
    rng = np.random.default_rng(61)
    for width in range(1, 17):
        for m in (0, 1, 2, 7, 60, 250):
            radius = float(rng.choice([0.25, 1.0, 1e-3, 0.37]))
            assert_pairs_match_brute_force(random_cloud(rng, m, width, radius), radius)


def test_candidate_pairs_survive_extents_beyond_int64_cell_codes():
    # 2^23 cells per axis: a code built by multiplying three extents would
    # need 69 bits
    rng = np.random.default_rng(67)
    radius = 1.0
    for width in (3, 6):
        base = rng.integers(0, 2**23, size=(150, width)).astype(float)
        base[:, 0] = np.linspace(0, 2**23, len(base))
        partners = base + rng.uniform(-0.6, 0.6, size=base.shape)
        coords = np.concatenate([base, partners, base[:5]])
        assert np.ptp(coords[:, 0]) / radius > 2**22
        assert_pairs_match_brute_force(coords, radius)


def test_within_agrees_with_the_norm_at_the_boundary():
    rng = np.random.default_rng(71)
    for width in (1, 2, 6, 16):
        delta = rng.normal(size=(4000, width))
        radius = 0.7
        # norms spread over a few ulps around the radius, and exact ties
        delta *= (radius * (1 + rng.integers(-8, 9, size=4000) * 2e-16)
                  / np.linalg.norm(delta, axis=1))[:, None]
        delta[:50] = 0.0
        delta[:50, 0] = radius
        assert np.array_equal(
            immersion._within(delta, radius), np.linalg.norm(delta, axis=1) <= radius
        )


def broad_phase_inputs(name, dim, resolution):
    """(coords, radius, keep) that find_double_points hands the broad phase."""
    captured = {}
    real = immersion._candidate_pairs

    def spy(coords, radius, keep):
        captured.update(coords=coords, radius=radius, keep=keep)
        return real(coords, radius, keep)

    spec, _ = get_model(name, dim)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(immersion, "_candidate_pairs", spy)
        run_pipeline(spec, resolution)
    return captured["coords"], captured["radius"], captured["keep"]


@pytest.mark.parametrize(
    "name, dim, resolution",
    [("sphere", n, 16) for n in range(2, 9)]
    + [("flat", 1, 64), ("flat", 2, 16), ("flat", 3, 8), ("figure_eight", 1, 256)],
)
def test_candidate_pairs_match_kdtree_on_model_meshes(name, dim, resolution):
    spatial = pytest.importorskip("scipy.spatial")
    coords, radius, keep = broad_phase_inputs(name, dim, resolution)
    pairs = spatial.cKDTree(coords).query_pairs(radius * (1 + 1e-9), output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.intp)
    pairs = pairs[np.linalg.norm(coords[pairs[:, 1]] - coords[pairs[:, 0]], axis=1) <= radius]
    pairs = pairs[keep(pairs[:, 0], pairs[:, 1])]
    assert np.array_equal(immersion._candidate_pairs(coords, radius, keep), pairs)


# ---------------------------------------------------------------------------
# Newton refinement: merged seeds against refine_each, every seed on its own


def refine_calls(name, dim, resolution):
    """The arguments of every ``_refine_seeds`` call the pipeline makes: one
    per chart pair, with the seeds of its own broad phase."""
    calls = []
    real = immersion._refine_seeds

    def spy(*args):
        calls.append(args)
        return real(*args)

    spec, _ = get_model(name, dim)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(immersion, "_refine_seeds", spy)
        run_pipeline(spec, resolution)
    return calls


def distinct_roots(roots, tol):
    """Group the roots (rows) in order: each joins the first group whose
    first root is within ``tol`` on every coordinate, or starts one.
    Returns the first roots and the group of each root."""
    firsts, labels = [], []
    for root in roots:
        near = [k for k, first in enumerate(firsts) if np.max(np.abs(root - first)) <= tol]
        if not near:
            near = [len(firsts)]
            firsts.append(root)
        labels.append(near[0])
    return np.array(firsts), labels


@pytest.mark.parametrize(
    "name, dim, resolution",
    [("sphere", n, 16) for n in range(2, 7)] + [("figure_eight", 1, 256)],
)
def test_merged_newton_matches_refining_each_seed(name, dim, resolution):
    calls = refine_calls(name, dim, resolution)
    assert calls
    for spec, chart_a, chart_b, pa, pb in calls:
        *got, leader = immersion._refine_seeds(spec, chart_a, chart_b, pa, pb)
        want = refine_each(spec, chart_a, chart_b, pa, pb)
        seeds = np.arange(len(pa))
        assert np.all(leader <= seeds) and np.array_equal(leader[leader], leader)
        leads = leader == seeds
        for g, w in zip(got, want):
            assert np.array_equal(g[leads], w[leads])  # bit for bit
        roots = np.concatenate(got[:2], axis=1)
        oracle = np.concatenate(want[:2], axis=1)
        assert np.max(np.abs(roots - oracle)) <= 1e-6
        got_firsts, got_labels = distinct_roots(roots, 1e-6)
        want_firsts, want_labels = distinct_roots(oracle, 1e-6)
        assert got_labels == want_labels
        assert np.array_equal(got_firsts, want_firsts)


def test_merged_newton_solves_fewer_systems(monkeypatch):
    # every seed refined on its own solves 2,913 rows on this mesh
    rows = []
    real = immersion._lstsq

    def counting(a, b):
        rows.append(len(a))
        return real(a, b)

    monkeypatch.setattr(immersion, "_lstsq", counting)
    run_pipeline(get_model("sphere", 7)[0], 16)
    assert 0 < sum(rows) <= 1800


def test_merge_keeps_the_lowest_seed_of_each_cell():
    tol = immersion.MERGE_TOL
    pa = np.array([[0.0], [0.3 * tol], [-0.3 * tol], [5 * tol], [np.nan], [np.nan], [5.2 * tol]])
    pb = np.zeros((len(pa), 2))
    leader = np.arange(len(pa))
    live = immersion._merge_coinciding(np.arange(len(pa)), pa, pb, leader)
    assert live.tolist() == [0, 3, 4, 5]
    assert leader.tolist() == [0, 0, 0, 3, 4, 5, 3]


def test_flat_meshes_send_no_seed_to_newton():
    # pairs at exactly the broad phase's radius are the same sheet
    for dim, resolution in ((1, 64), (2, 16), (3, 8)):
        assert refine_calls("flat", dim, resolution) == []


# ---------------------------------------------------------------------------
# model registry


def test_model_registry_validates_names_and_dimensions():
    with pytest.raises(ValueError, match="unknown model"):
        get_model("torus")
    with pytest.raises(ValueError, match="fixed ambient dimension"):
        get_model("circle", 2)
    assert get_model("circle")[0].ambient.n == 1
    assert get_model("sphere")[0].ambient.n == 2
    spec, morse = get_model("sphere", 3)
    assert spec.ambient.n == 3
    assert [c[0] for c in morse.criticals] == ["min", "max"]
