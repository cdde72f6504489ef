"""Discretisation pipeline for parameterized Lagrangian immersions in C^n.

The pipeline turns chart callbacks into verified geometric data in four
passes:

1. :func:`sample_immersion` — evaluate positions and tangent frames on a
   chart atlas mesh (frames must pass ``make_unitary_frame``: the map is
   required to be Lagrangian at every sample);
2. :func:`compute_primitive` — integrate the primitive ``sigma`` along a
   spanning tree to obtain h with ``iota* sigma = dh``, and reject meshes
   whose loops carry nonzero ``sigma``-holonomy (non-exact immersions);
3. :func:`compute_grading` — lift the squared-determinant phase to a real
   grading theta along a spanning tree, rejecting nonzero integer holonomy
   (ungradable immersions);
4. :func:`find_double_points` — a sorted-cell-list broad phase plus Newton
   refinement of self-intersections, emitting two ordered records per
   geometric double point with angles, actions and indices.

Callback contract
-----------------
Callbacks are batched: they take a chart id and a stack ``P`` of m raw
chart parameter vectors, shape (m, d), and answer for every row at once.

- ``position(chart_id, P)`` returns the points of C^n, shape (m, n).  It
  must be defined in a small neighbourhood of the sampled domain
  (suspension charts are evaluated slightly off the unit sphere by the
  finite-difference fallback).
- ``differential(chart_id, P)``, when given, returns the raw Jacobians,
  shape (m, n, d); when absent, five-point central differences with
  relative step :data:`FD_STEP` are used (one ``position`` call per Jacobian
  stack).
- ``intrinsic(chart_id, P)``, when given, embeds the abstract domain
  manifold into some R^k, shape (m, k); it is used to tell genuine double
  points (far apart on the domain) from self-proximity of a single sheet,
  which is essential for multi-chart atlases.

Charts follow the same convention: ``sample_points`` returns an (m, d)
array, ``sample_edges`` an (E, 2) index array, and ``path``, ``displace``,
``local_basis`` and ``param_distance`` act on stacks.  ``sample_count``
gives ``len(sample_points(resolution))`` by arithmetic, so that
:func:`sample_immersion` can refuse a mesh above :data:`MAX_SAMPLES`
samples or :data:`MAX_FRAME_ENTRIES` frame entries before it allocates
anything.

Edge integrals use trapezoid sums at two dyadic subdivisions combined by
one Richardson step, which keeps the loop-residual noise of smooth exact
immersions near machine precision at desk-scale resolutions.  The
callbacks see them in blocks of at most :data:`QUAD_BLOCK` quadrature
points, which bounds the memory of the pass independently of the mesh.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import product
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .floer import FloerDatum, Generator, MorseData, validate_datum, ValidationFailed
from .geom import (
    AmbientSpace,
    Degenerate,
    KahlerAngles,
    LagrangianFrame,
    NotLagrangian,
    NotTransverse,
    TOL_FRAME,
    TOL_TRANSVERSE,
    det_squared_phase,
    index_of_pair,
    kahler_angles,
    make_unitary_frame,
)

__all__ = [
    "DEFAULT_RESOLUTION",
    "MIN_RESOLUTION",
    "MAX_SAMPLES",
    "MAX_FRAME_ENTRIES",
    "TOL_EXACT",
    "TOL_INDEX",
    "PipelineError",
    "NotExact",
    "NotGraded",
    "NonTransverseDoublePoint",
    "TripleOrWorse",
    "IndexNotIntegral",
    "tangent_basis",
    "check_mesh_size",
    "BoxChart",
    "SuspensionChart",
    "SpokeBallChart",
    "ImmersionSpec",
    "ImmersionMesh",
    "DoublePointRecord",
    "sample_immersion",
    "compute_primitive",
    "compute_grading",
    "find_double_points",
    "emit_datum",
    "probe_frame_invariance",
]

#: Documented default mesh resolution (cells per parameter dimension).
DEFAULT_RESOLUTION = 64
#: Below this the integration and continuation passes are not trustworthy.
MIN_RESOLUTION = 8
#: Most samples a mesh may have; the count grows as resolution^n, so the
#: pipeline refuses a larger projected total (ValueError) before sampling.
MAX_SAMPLES = 1_000_000
#: Most complex entries of the tangent frames a mesh builds: samples times
#: n^2, at 16 bytes each 256 MiB.  Refused like MAX_SAMPLES.
MAX_FRAME_ENTRIES = 1 << 24
#: Default bound on sigma-holonomy of mesh loops (exactness residual).
TOL_EXACT = 1e-8
#: Default bound on the raw-index residual at double points.
TOL_INDEX = 1e-4
#: Relative step of the five-point finite-difference Jacobian fallback:
#: its O(step^4) truncation and its rounding stay below 1e-11 on the
#: built-in models (analytic Jacobians as reference).
FD_STEP = 1e-4
#: Trapezoid panels of the coarse edge quadrature (the fine one has twice as many).
QUAD_PANELS = 8
#: A loop's phase defect this close to an integer certifies a grading.
TOL_INTEGER = 1e-6
#: A refined Newton root whose two images are this close is a double point.
REFINE_TOL = 1e-9
#: Random frame changes per double-point record in the frame probe.
PROBE_TRIALS = 4
#: Newton refinement stops at this step size (or 40 iterations).
NEWTON_STEP_TOL = 1e-12
NEWTON_MAX_ITER = 40
#: Self-proximity exclusion radius, in units of the local mesh spacing.
EXCLUSION_CELLS = 3.0
#: Most quadrature points handed to one callback call by the edge
#: integrals (a block always holds at least one whole edge).
QUAD_BLOCK = 256
#: Most Newton seeds refined together (one callback call per chart).
BATCH = 64
#: Newton seeds of one chart pair whose iterates round to the same
#: multiple of this on every parameter coordinate are refined as one; two
#: roots of a double point this close count as the same preimage.
MERGE_TOL = 1e-6
#: Most candidate pairs whose distance the broad phase checks in one array
#: operation; the pairs found near go to diagonal suppression in batches
#: of about this many.
PAIR_BLOCK = 1024


class PipelineError(Exception):
    """Base class for immersion-pipeline failures."""


class NotExact(PipelineError):
    """Some mesh loop carries nonzero integral of the primitive."""

    def __init__(self, message: str, residual: float, edge: tuple[int, int]):
        super().__init__(message)
        self.residual = residual
        self.edge = edge


class NotGraded(PipelineError):
    """The squared-determinant phase has nonzero winding on some loop."""

    def __init__(self, message: str, holonomy: int, edge: tuple[int, int]):
        super().__init__(message)
        self.holonomy = holonomy
        self.edge = edge


class NonTransverseDoublePoint(PipelineError):
    """Two sheets meet tangentially (some Kahler angle is 0 mod 1/2)."""


class TripleOrWorse(PipelineError):
    """More than two preimages cluster at one ambient point."""


class IndexNotIntegral(PipelineError):
    """A double-point index is too far from an integer."""


def _wrap_half(x):
    """Wrap to [-1/2, 1/2] (the representative closest to zero)."""
    return x - np.round(x)


def check_mesh_size(samples: int, n: int, resolution: int) -> None:
    """Refuse (ValueError) a mesh of more than :data:`MAX_SAMPLES` samples,
    or whose (samples, n, n) tangent frames, built in batches to read the
    phase, would total more than :data:`MAX_FRAME_ENTRIES` entries."""
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"resolution {resolution} would take {samples} samples, above the"
            f" limit of {MAX_SAMPLES}"
        )
    if samples * n * n > MAX_FRAME_ENTRIES:
        raise ValueError(
            f"resolution {resolution} would take {samples} samples with {n}x{n}"
            f" frames, {samples * n * n} frame entries, above the limit of"
            f" {MAX_FRAME_ENTRIES}"
        )


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of the unit sphere at x.

    Returns an (n, n-1) matrix whose columns complete x to an orthonormal
    basis of R^n, built from a Householder reflection (deterministic in x).
    A stack of points (m, n) gives a stack of bases (m, n, n-1).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n == 1:
        return np.zeros(x.shape + (0,))
    v = x.copy()
    v[..., 0] += np.where(x[..., 0] >= 0, 1.0, -1.0)
    h = np.eye(n) - 2.0 * (v[..., :, None] * v[..., None, :]) / np.sum(
        v * v, axis=-1
    )[..., None, None]
    return h[..., :, 1:]


# ---------------------------------------------------------------------------
# charts


def _identity_basis(m: int, dim: int) -> np.ndarray:
    return np.broadcast_to(np.eye(dim), (m, dim, dim))


def _segments(
    start: np.ndarray, delta: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points and velocities (E, Q, d) of the segments start[e] + tau * delta[e]."""
    tau = np.asarray(tau, dtype=float)[None, :, None]
    points = start[:, None, :] + tau * delta[:, None, :]
    return points, np.broadcast_to(delta[:, None, :], points.shape)


@dataclass(frozen=True)
class BoxChart:
    """An axis-aligned box of raw parameters, optionally periodic per axis.

    ``resolution`` means cells per dimension: a non-periodic axis gets
    resolution + 1 samples inclusive of both ends, a periodic axis gets
    resolution samples with a wrap-around edge.
    """

    id: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    periodic: tuple[bool, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.lo)

    def _periodic(self) -> tuple[bool, ...]:
        return self.periodic or (False,) * self.dim

    def _axes(self, resolution: int) -> list[np.ndarray]:
        axes = []
        for lo, hi, wrap in zip(self.lo, self.hi, self._periodic()):
            if wrap:
                axes.append(np.linspace(lo, hi, resolution, endpoint=False))
            else:
                axes.append(np.linspace(lo, hi, resolution + 1))
        return axes

    def _shortest(self, delta: np.ndarray) -> np.ndarray:
        """Parameter differences reduced to the shortest periodic representative."""
        for k, wrap in enumerate(self._periodic()):
            if wrap:
                width = self.hi[k] - self.lo[k]
                delta[..., k] -= width * np.round(delta[..., k] / width)
        return delta

    def sample_count(self, resolution: int) -> int:
        return math.prod(resolution if wrap else resolution + 1 for wrap in self._periodic())

    def sample_points(self, resolution: int) -> np.ndarray:
        grids = np.meshgrid(*self._axes(resolution), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def sample_edges(self, resolution: int) -> np.ndarray:
        shape = tuple(len(a) for a in self._axes(resolution))
        flat = np.arange(int(np.prod(shape))).reshape(shape)
        heads, keep = [], []
        for k, wrap in enumerate(self._periodic()):
            heads.append(np.roll(flat, -1, axis=k))
            ok = np.ones(shape, dtype=bool)
            if not (wrap and shape[k] > 2):
                ok[(slice(None),) * k + (-1,)] = False
            keep.append(ok)
        tails = np.broadcast_to(flat[..., None], shape + (len(shape),))
        heads_arr = np.stack(heads, axis=-1)
        keep_arr = np.stack(keep, axis=-1)
        # boolean indexing runs in C order: by tail sample, then by axis
        return np.stack([tails[keep_arr], heads_arr[keep_arr]], axis=1)

    def displace(self, params: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = np.asarray(params, dtype=float) + xi
        for k, wrap in enumerate(self._periodic()):
            if wrap:
                width = self.hi[k] - self.lo[k]
                wrapped = self.lo[k] + (out[..., k] - self.lo[k]) % width
                # a tiny negative offset rounds up to a full width: keep [lo, hi)
                out[..., k] = np.where(wrapped >= self.hi[k], self.lo[k], wrapped)
        return out

    def local_basis(self, params: np.ndarray) -> np.ndarray:
        return _identity_basis(len(params), self.dim)

    def path(
        self, pa: np.ndarray, pb: np.ndarray, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities (E, Q, d) of the paths pa[e] -> pb[e] at times tau."""
        pa = np.asarray(pa, dtype=float)
        return _segments(pa, self._shortest(np.asarray(pb, dtype=float) - pa), tau)

    def param_distance(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        delta = self._shortest(np.asarray(pb, dtype=float) - np.asarray(pa, dtype=float))
        return np.linalg.norm(delta, axis=-1)


@dataclass(frozen=True)
class SuspensionChart:
    """Parameters (t, x) with t in an interval and x on the unit sphere S^{n-1}.

    Raw parameters have length n + 1; the chart dimension is n.  The sphere
    factor is sampled at the fixed ``directions``; ``resolution`` sets the
    number of t samples.  ``direction_edges`` (pairs of direction indices)
    are materialised at the middle t row, ``round((resolution - 1) / 2)``,
    to give the mesh transverse loops.
    """

    id: str
    t_lo: float
    t_hi: float
    directions: tuple[tuple[float, ...], ...]
    direction_edges: tuple[tuple[int, int], ...] = ()

    @property
    def sphere_dim(self) -> int:
        return len(self.directions[0]) - 1

    @property
    def dim(self) -> int:
        return 1 + self.sphere_dim

    def _t_values(self, resolution: int) -> np.ndarray:
        return np.linspace(self.t_lo, self.t_hi, resolution)

    def sample_count(self, resolution: int) -> int:
        return len(self.directions) * resolution

    def sample_points(self, resolution: int) -> np.ndarray:
        ts = self._t_values(resolution)
        directions = np.asarray(self.directions, dtype=float)
        return np.concatenate(
            [
                np.tile(ts, len(directions))[:, None],
                np.repeat(directions, len(ts), axis=0),
            ],
            axis=1,
        )

    def sample_edges(self, resolution: int) -> np.ndarray:
        m = len(self._t_values(resolution))
        starts = (np.arange(len(self.directions))[:, None] * m + np.arange(m - 1)).ravel()
        edges = [np.stack([starts, starts + 1], axis=1)]
        if self.direction_edges:
            edges.append(np.asarray(self.direction_edges) * m + round((m - 1) / 2))
        return np.concatenate(edges)

    def displace(self, params: np.ndarray, xi: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        t = params[:, :1] + xi[:, :1]
        x = params[:, 1:]
        if self.sphere_dim:
            y = x + (tangent_basis(x) @ xi[:, 1:, None])[..., 0]
            y = y / np.linalg.norm(y, axis=1)[:, None]
        else:
            y = x
        return np.concatenate([t, y], axis=1)

    def local_basis(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        b = np.zeros((len(params), self.dim + 1, self.dim))
        b[:, 0, 0] = 1.0
        if self.sphere_dim:
            b[:, 1:, 1:] = tangent_basis(params[:, 1:])
        return b

    def path(
        self, pa: np.ndarray, pb: np.ndarray, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities (E, Q, d) of the paths pa[e] -> pb[e] at times
        tau: linear in t, great-circle arcs in x."""
        pa = np.asarray(pa, dtype=float)
        pb = np.asarray(pb, dtype=float)
        ta, xa = pa[:, 0, None], pa[:, None, 1:]
        tb, xb = pb[:, 0, None], pb[:, None, 1:]
        dot = np.clip(np.sum(xa * xb, axis=-1), -1.0, 1.0)
        omega = np.arccos(dot)[:, :, None]  # (E, 1, 1)
        if np.any(omega > np.pi - 1e-9):
            raise PipelineError(
                f"chart '{self.id}': no canonical geodesic between antipodal"
                " directions"
            )
        tau = np.asarray(tau, dtype=float)
        t = ta + tau[None, :] * (tb - ta)
        w = tau[None, :, None]
        still = omega < 1e-12
        s = np.where(still, 1.0, np.sin(omega))
        x = (np.sin((1 - w) * omega) * xa + np.sin(w * omega) * xb) / s
        v = (-omega * np.cos((1 - w) * omega) * xa + omega * np.cos(w * omega) * xb) / s
        x = np.where(still, xa, x)
        v = np.where(still, 0.0, v)
        dt = np.broadcast_to((tb - ta)[:, :, None], t.shape + (1,))
        return np.concatenate([t[..., None], x], axis=2), np.concatenate([dt, v], axis=2)

    def param_distance(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        pa = np.asarray(pa, dtype=float)
        pb = np.asarray(pb, dtype=float)
        dot = np.clip(np.sum(pa[..., 1:] * pb[..., 1:], axis=-1), -1.0, 1.0)
        return np.hypot(pa[..., 0] - pb[..., 0], np.arccos(dot))


@dataclass(frozen=True)
class SpokeBallChart:
    """A ball around the origin of R^n sampled along radial spokes.

    One sample sits at the exact center; each of the ``directions`` carries
    ``max(4, resolution // 8)`` radial samples out to ``radius``.  Raw
    parameters are full R^n coordinates, so displacement is plain addition.
    """

    id: str
    radius: float
    directions: tuple[tuple[float, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.directions[0])

    @staticmethod
    def _spoke_samples(resolution: int) -> int:
        return max(4, resolution // 8)

    def _radii(self, resolution: int) -> np.ndarray:
        m = self._spoke_samples(resolution)
        return np.linspace(0.0, self.radius, m + 1)[1:]

    def sample_count(self, resolution: int) -> int:
        return 1 + len(self.directions) * self._spoke_samples(resolution)

    def sample_points(self, resolution: int) -> np.ndarray:
        directions = np.asarray(self.directions, dtype=float)
        spokes = self._radii(resolution)[None, :, None] * directions[:, None, :]
        return np.concatenate([np.zeros((1, self.dim)), spokes.reshape(-1, self.dim)])

    def sample_edges(self, resolution: int) -> np.ndarray:
        m = len(self._radii(resolution))
        base = 1 + m * np.arange(len(self.directions))[:, None]
        heads = base + np.arange(m)  # (directions, m): the samples of each spoke
        tails = np.concatenate([np.zeros_like(base), heads[:, :-1]], axis=1)
        return np.stack([tails.ravel(), heads.ravel()], axis=1)

    def displace(self, params: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return np.asarray(params, dtype=float) + xi

    def local_basis(self, params: np.ndarray) -> np.ndarray:
        return _identity_basis(len(params), self.dim)

    def path(
        self, pa: np.ndarray, pb: np.ndarray, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities (E, Q, d) of the segments pa[e] -> pb[e] at times tau."""
        pa = np.asarray(pa, dtype=float)
        return _segments(pa, np.asarray(pb, dtype=float) - pa, tau)

    def param_distance(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.asarray(pa) - np.asarray(pb), axis=-1)


Chart = BoxChart | SuspensionChart | SpokeBallChart


# ---------------------------------------------------------------------------
# immersion specification and mesh


@dataclass(frozen=True)
class ImmersionSpec:
    """Chart atlas plus batched evaluation callbacks for one immersed Lagrangian."""

    ambient: AmbientSpace
    charts: tuple[Chart, ...]
    position: Callable[[str, np.ndarray], np.ndarray]
    differential: Callable[[str, np.ndarray], np.ndarray] | None = None
    intrinsic: Callable[[str, np.ndarray], np.ndarray] | None = None
    glue: tuple[tuple[str, tuple[float, ...], str, tuple[float, ...]], ...] = ()
    frame_tol: float = TOL_FRAME

    def jacobian(self, chart_id: str, params: np.ndarray) -> np.ndarray:
        """Raw Jacobians (m, n, d) at params (m, d): analytic callback or
        the five-point central difference (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h."""
        params = np.asarray(params, dtype=float)
        if self.differential is not None:
            return np.asarray(self.differential(chart_id, params), dtype=complex)
        m, d = params.shape
        step = FD_STEP * (1.0 + np.abs(params))  # (m, d)
        shifts = np.eye(d)[:, None, :] * step  # (d, m, d): coordinate k moved by its step
        probes = np.concatenate(
            [params + 2 * shifts, params + shifts, params - shifts, params - 2 * shifts]
        ).reshape(-1, d)
        z = np.asarray(self.position(chart_id, probes), dtype=complex).reshape(4, d, m, -1)
        columns = (8.0 * (z[1] - z[2]) - (z[0] - z[3])) / (12.0 * step.T[:, :, None])
        return np.moveaxis(columns, 0, 2)  # (d, m, n) -> (m, n, d)


@dataclass
class ImmersionMesh:
    """Sample arrays plus connectivity; h and theta are filled by later passes.

    Sample k lies on chart ``spec.charts[chart_index[k]]``; the samples of
    chart c form the contiguous block ``offsets[c]:offsets[c + 1]``.  Rows
    of ``params`` are padded with NaN past the chart's raw parameter
    length ``param_dims[c]``.  ``glue[e]`` marks the edges that join two
    charts at a declared glue point.
    """

    spec: ImmersionSpec
    chart_index: np.ndarray  # (N,) int
    offsets: np.ndarray  # (C + 1,) int
    param_dims: tuple[int, ...]
    params: np.ndarray  # (N, max d) float
    points: np.ndarray  # (N, n) complex
    phase: np.ndarray  # (N,) in [0, 1): det^2 phase of the unitary tangent frames
    intrinsic: np.ndarray | None  # (N, k)
    edges: np.ndarray  # (E, 2) int
    glue: np.ndarray  # (E,) bool
    h: np.ndarray | None = None
    theta: np.ndarray | None = None
    exactness_residual: float | None = None
    grading_residual: float | None = None
    _forests: dict = field(default_factory=dict, repr=False, compare=False)

    def chart(self, chart_id: str) -> Chart:
        return self.spec.charts[self.chart_number(chart_id)]

    def chart_number(self, chart_id: str) -> int:
        for c, chart in enumerate(self.spec.charts):
            if chart.id == chart_id:
                return c
        raise KeyError(chart_id)

    def chart_params(self, c: int) -> np.ndarray:
        """Raw parameters (m, d) of the samples of chart number c."""
        return self.params[self.offsets[c] : self.offsets[c + 1], : self.param_dims[c]]

    def sample_params(self, k: int) -> np.ndarray:
        return self.params[k, : self.param_dims[self.chart_index[k]]]


def _require_finite(chart: Chart, params: np.ndarray, values: np.ndarray, what: str) -> None:
    """Refuse (ValueError) a stack of callback values with a non-finite
    entry, naming the chart and the params of the first such row."""
    bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if bad.any():
        where = params[int(np.argmax(bad))].tolist()
        raise ValueError(f"chart '{chart.id}': {what} is not finite at params {where}")


def _intrinsic_at(spec: ImmersionSpec, chart: Chart, params: np.ndarray, k: int | None) -> np.ndarray:
    """The intrinsic points (m, k) at a stack of m parameter points.  A
    wrong shape or a non-finite entry is refused (ValueError); ``k=None``
    accepts the width the callback returns, as on the first chart."""
    w = np.asarray(spec.intrinsic(chart.id, params), dtype=float)
    if k is None and w.ndim == 2:
        k = w.shape[1]
    if w.shape != (len(params), k):
        raise ValueError(
            f"chart '{chart.id}': intrinsic callback returned shape {w.shape},"
            f" expected ({len(params)}, {'k' if k is None else k})"
        )
    _require_finite(chart, params, w, "intrinsic point")
    return w


def _frames_at(spec: ImmersionSpec, chart: Chart, params: np.ndarray) -> np.ndarray:
    """Unitary tangent frames (m, n, n) at a stack of parameter points;
    tangent vectors that are not finite are refused (ValueError)."""
    jacobians = spec.jacobian(chart.id, params)
    _require_finite(chart, params, jacobians, "tangent frame")
    columns = jacobians @ chart.local_basis(params)
    try:
        return make_unitary_frame(columns, tol=spec.frame_tol)
    except (NotLagrangian, Degenerate) as err:
        where = np.asarray(params)[getattr(err, "index", 0)].tolist()
        raise type(err)(f"at chart '{chart.id}' params {where}: {err}") from err


def _frame_at(spec: ImmersionSpec, chart: Chart, params: np.ndarray) -> LagrangianFrame:
    """Unitary tangent frame at one parameter point."""
    return LagrangianFrame(_frames_at(spec, chart, np.asarray(params, dtype=float)[None])[0])


def sample_immersion(spec: ImmersionSpec, resolution: int = DEFAULT_RESOLUTION) -> ImmersionMesh:
    """Evaluate the atlas on a mesh, verify its tangent frames and keep
    their squared-determinant phase.

    A position, tangent frame or intrinsic point that is not finite is
    refused (ValueError), naming the chart and the sample's params, and so
    is a position or intrinsic stack of the wrong shape.  Intrinsic points
    have the same width k on every chart.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(
            f"resolution {resolution} below the supported minimum {MIN_RESOLUTION}"
        )
    n = spec.ambient.n
    check_mesh_size(sum(chart.sample_count(resolution) for chart in spec.charts), n, resolution)
    params, points, phase, intrinsic, edges = [], [], [], [], []
    offsets = [0]
    for chart in spec.charts:
        p = np.asarray(chart.sample_points(resolution), dtype=float)
        z = np.asarray(spec.position(chart.id, p), dtype=complex)
        if z.shape != (len(p), n):
            raise ValueError(
                f"position callback returned shape {z.shape}, expected"
                f" ({len(p)}, {n})"
            )
        _require_finite(chart, p, z, "position")
        params.append(p)
        points.append(z)
        for start in range(0, len(p), BATCH):
            frames = _frames_at(spec, chart, p[start : start + BATCH])
            phase.append(det_squared_phase(frames))
        if spec.intrinsic is not None:
            intrinsic.append(
                _intrinsic_at(spec, chart, p, intrinsic[0].shape[1] if intrinsic else None)
            )
        edges.append(np.asarray(chart.sample_edges(resolution), dtype=np.intp) + offsets[-1])
        offsets.append(offsets[-1] + len(p))

    param_dims = tuple(p.shape[1] for p in params)
    padded = np.full((offsets[-1], max(param_dims)), np.nan)
    for c, p in enumerate(params):
        padded[offsets[c] : offsets[c + 1], : p.shape[1]] = p
    mesh = ImmersionMesh(
        spec=spec,
        chart_index=np.repeat(np.arange(len(spec.charts)), np.diff(offsets)),
        offsets=np.asarray(offsets),
        param_dims=param_dims,
        params=padded,
        points=np.concatenate(points),
        phase=np.concatenate(phase),
        intrinsic=np.concatenate(intrinsic) if spec.intrinsic is not None else None,
        edges=np.concatenate(edges),
        glue=np.zeros(0, dtype=bool),
    )

    glue_edges = []
    for chart_a, params_a, chart_b, params_b in spec.glue:
        ia = _locate_sample(mesh, chart_a, params_a)
        ib = _locate_sample(mesh, chart_b, params_b)
        gap = float(np.linalg.norm(mesh.points[ia] - mesh.points[ib]))
        if gap > 1e-9:
            raise ValueError(
                f"glue between '{chart_a}' and '{chart_b}' joins points"
                f" {gap:.3e} apart"
            )
        glue_edges.append((ia, ib))
    mesh.glue = np.arange(len(mesh.edges) + len(glue_edges)) >= len(mesh.edges)
    if glue_edges:
        mesh.edges = np.concatenate([mesh.edges, np.asarray(glue_edges, dtype=np.intp)])
    return mesh


def _locate_sample(
    mesh: ImmersionMesh, chart_id: str, params: tuple[float, ...], tol: float = 1e-9
) -> int:
    target = np.asarray(params, dtype=float)
    try:
        c = mesh.chart_number(chart_id)
    except KeyError:
        c = None
    if c is not None and target.shape == (mesh.param_dims[c],):
        hits = np.flatnonzero(np.max(np.abs(mesh.chart_params(c) - target), axis=1) <= tol)
        if len(hits):
            return int(mesh.offsets[c] + hits[0])
    raise ValueError(
        f"glue point {list(params)} of chart '{chart_id}' is not a mesh sample"
    )


# ---------------------------------------------------------------------------
# integration and continuation passes


def _path_integrals(
    spec: ImmersionSpec,
    chart: Chart,
    pa: np.ndarray,
    pb: np.ndarray,
) -> np.ndarray:
    """Integrals of the primitive along the chart paths pa[e] -> pb[e].

    Trapezoid sums at :data:`QUAD_PANELS` and twice as many panels are
    combined by one Richardson extrapolation step.  Paths are evaluated in
    blocks of at most :data:`QUAD_BLOCK` quadrature points.
    """
    fine = 2 * QUAD_PANELS
    tau = np.arange(fine + 1) / fine
    per_block = max(1, QUAD_BLOCK // (fine + 1))
    out = np.empty(len(pa))
    for start in range(0, len(pa), per_block):
        block = slice(start, start + per_block)
        params, velocity = chart.path(pa[block], pb[block], tau)
        d = params.shape[-1]
        params = params.reshape(-1, d)
        z = np.asarray(spec.position(chart.id, params), dtype=complex)
        dz = np.sum(spec.jacobian(chart.id, params) * velocity.reshape(-1, 1, d), axis=-1)
        values = spec.ambient.sigma(z, dz).reshape(-1, fine + 1)
        t_fine = (values[:, 0] / 2 + values[:, 1:-1].sum(axis=1) + values[:, -1] / 2) / fine
        coarse = values[:, ::2]
        t_coarse = (
            coarse[:, 0] / 2 + coarse[:, 1:-1].sum(axis=1) + coarse[:, -1] / 2
        ) / QUAD_PANELS
        out[block] = (4.0 * t_fine - t_coarse) / 3.0
    return out


@dataclass(frozen=True)
class _Forest:
    """BFS spanning forest: tree moves in visit order plus the other edges."""

    moves: list[tuple[int, int, int, int]]  # (parent, child, edge, orientation)
    non_tree: np.ndarray  # edge indices, ascending


def _spanning_forest(mesh: ImmersionMesh, basepoint: int) -> _Forest:
    """Deterministic BFS forest, built once per (mesh, basepoint).

    Orientation is +1 when the edge is stored as (parent, child).  The
    first component is rooted at ``basepoint``, further components at
    their lowest sample index; neighbours are visited by sample index,
    then by edge.
    """
    n = len(mesh.points)
    if not 0 <= basepoint < n:
        raise ValueError(f"basepoint {basepoint} is not a sample index")
    cached = mesh._forests.get(basepoint)
    if cached is not None:
        return cached
    edges = mesh.edges
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    others = np.concatenate([edges[:, 1], edges[:, 0]])
    edge_ids = np.tile(np.arange(len(edges)), 2)
    # sort by (sample, neighbour, edge): stable sorts from the last key on
    order = np.argsort(edge_ids, kind="stable")
    order = order[np.argsort(others[order], kind="stable")]
    order = order[np.argsort(ends[order], kind="stable")]
    starts = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    neighbours = others[order].tolist()
    via = edge_ids[order].tolist()
    tails = edges[:, 0].tolist()

    visited = [False] * n
    used = np.zeros(len(edges), dtype=bool)
    moves: list[tuple[int, int, int, int]] = []
    for root in [basepoint] + [k for k in range(n) if k != basepoint]:
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for slot in range(starts[i], starts[i + 1]):
                j = neighbours[slot]
                if visited[j]:
                    continue
                visited[j] = True
                e = via[slot]
                used[e] = True
                moves.append((i, j, e, 1 if tails[e] == i else -1))
                queue.append(j)
    forest = _Forest(moves=moves, non_tree=np.flatnonzero(~used))
    mesh._forests[basepoint] = forest
    return forest


def _integrate(
    mesh: ImmersionMesh, basepoint: int, cochain: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate an edge cochain along the spanning forest.

    ``cochain[e]`` is the increment from ``edges[e, 0]`` to ``edges[e, 1]``;
    each tree root keeps its value from ``roots``.  Returns the potentials
    and, for the non-tree edges (i, j) in index order, the loop defects
    ``p[j] - p[i] - cochain[e]`` together with i and j.
    """
    forest = _spanning_forest(mesh, basepoint)
    values = roots.tolist()
    steps = cochain.tolist()
    for i, j, e, orientation in forest.moves:
        values[j] = values[i] + orientation * steps[e]
    potentials = np.asarray(values)
    i, j = mesh.edges[forest.non_tree].T
    return potentials, potentials[j] - potentials[i] - cochain[forest.non_tree], i, j


def compute_primitive(
    mesh: ImmersionMesh,
    basepoint: int = 0,
    tol_exact: float = TOL_EXACT,
) -> ImmersionMesh:
    """Integrate the primitive along a spanning tree; verify loop residuals.

    h is normalised to 0 at ``basepoint`` (and at the lowest-index sample
    of any further connected component).  Every non-tree edge closes a
    mesh loop; its sigma-holonomy must vanish within ``tol_exact``, else
    the immersion is not exact and :class:`NotExact` is raised.  A NaN
    holonomy (a callback that is NaN between the samples) fails too.  Edge
    integrals use :data:`QUAD_PANELS` (see :func:`_path_integrals`).
    """
    sigma = np.zeros(len(mesh.edges))
    heads = mesh.chart_index[mesh.edges[:, 0]]
    for c, chart in enumerate(mesh.spec.charts):
        chosen = np.flatnonzero(~mesh.glue & (heads == c))
        if len(chosen):
            ends = mesh.params[mesh.edges[chosen], : mesh.param_dims[c]]
            sigma[chosen] = _path_integrals(mesh.spec, chart, ends[:, 0], ends[:, 1])
    mesh.h, residual, i, j = _integrate(mesh, basepoint, sigma, np.zeros(len(mesh.points)))
    residual = np.abs(residual)
    failing = np.flatnonzero(~(residual <= tol_exact))  # NaN fails too
    if len(failing):
        k = failing[0]
        raise NotExact(
            f"mesh loop through samples ({i[k]}, {j[k]}) has primitive holonomy"
            f" {residual[k]:.6e} > tol_exact {tol_exact:g}: the immersion is"
            " not exact",
            residual=float(residual[k]),
            edge=(int(i[k]), int(j[k])),
        )
    mesh.exactness_residual = float(np.fmax.reduce(residual, initial=0.0))
    return mesh


def compute_grading(mesh: ImmersionMesh, basepoint: int = 0) -> ImmersionMesh:
    """Lift the squared-determinant phase to a real grading along a tree.

    Each tree edge takes the lift with |jump| < 1/2.  Non-tree edges then
    carry an integer defect (the winding of the phase around the loop);
    any nonzero value means the immersion admits no grading.  A defect
    that is not within :data:`TOL_INTEGER` of an integer, NaN included, raises
    :class:`NotGraded` as too coarse to certify.
    """
    jumps = _wrap_half(mesh.phase[mesh.edges[:, 1]] - mesh.phase[mesh.edges[:, 0]])
    mesh.theta, defect, i, j = _integrate(mesh, basepoint, jumps, mesh.phase)
    rounded = np.round(defect)
    off = np.abs(defect - rounded)
    failing = np.flatnonzero(~(off <= TOL_INTEGER) | (rounded != 0))  # NaN fails too
    if len(failing):
        k = failing[0]
        if not off[k] <= TOL_INTEGER:
            raise NotGraded(
                f"loop through samples ({i[k]}, {j[k]}) has non-integer phase defect"
                f" {defect[k]:.6e}; the mesh is too coarse to certify a grading",
                holonomy=0,
                edge=(int(i[k]), int(j[k])),
            )
        winding = int(rounded[k])
        raise NotGraded(
            f"squared-determinant phase winds {winding:+d} times around the"
            f" loop through samples ({i[k]}, {j[k]}): the immersion is not"
            " gradable",
            holonomy=abs(winding),
            edge=(int(i[k]), int(j[k])),
        )
    mesh.grading_residual = float(np.fmax.reduce(off, initial=0.0))
    return mesh


# ---------------------------------------------------------------------------
# double points


@dataclass(frozen=True)
class DoublePointRecord:
    """One ordered lift (p, q) of a geometric double point."""

    p_id: str
    q_id: str
    p_chart: str
    p_params: tuple[float, ...]
    q_chart: str
    q_params: tuple[float, ...]
    point: tuple[complex, ...]
    angles: KahlerAngles
    action: float
    index_raw: float
    index: int
    residual: float


def _median(values: np.ndarray) -> float:
    """Upper median (the middle element of the sorted values); 0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.sort(values)[len(values) // 2])


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of the stacked systems a x = b.

    Singular values at or below eps * max(M, N) times the largest count as
    zero, the cutoff of ``numpy.linalg.lstsq`` with ``rcond=None``.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    ub = (np.swapaxes(u, 1, 2) @ b[:, :, None])[:, :, 0]
    return (np.swapaxes(vt, 1, 2) @ (inverse * ub)[:, :, None])[:, :, 0]


def _merge_coinciding(
    live: np.ndarray, pa: np.ndarray, pb: np.ndarray, leader: np.ndarray
) -> np.ndarray:
    """Merge the live seeds (ascending) whose (pa, pb) round to the same
    multiple of :data:`MERGE_TOL` on every coordinate (cells of that side,
    centred on the multiples, so a root at 0 is not split).

    The lowest seed of each group stays live; the others record it in
    ``leader``.  A seed with a non-finite coordinate is merged with none.
    Returns the seeds left live, ascending.
    """
    if len(live) < 2:
        return live
    cells = np.round(np.concatenate([pa[live], pb[live]], axis=1) / MERGE_TOL)
    order = np.lexsort(cells.T[::-1])  # stable: a cell's lowest seed first
    cells = cells[order]
    first = np.concatenate([[True], np.any(cells[1:] != cells[:-1], axis=1)])
    first |= ~np.isfinite(cells).all(axis=1)
    heads = np.maximum.accumulate(np.where(first, np.arange(len(order)), 0))
    leader[live[order[~first]]] = live[order[heads[~first]]]
    return live[np.sort(order[first])]


def _refine_seeds(
    spec: ImmersionSpec, chart_a: Chart, chart_b: Chart, pa: np.ndarray, pb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton iteration on position(a) - position(b) = 0 for a stack of seeds.

    Step-synchronous: every live seed takes step k before any seed takes
    step k + 1, and each step is done in blocks of at most :data:`BATCH`
    seeds.  A seed stops after a step shorter than ``NEWTON_STEP_TOL`` or
    after ``NEWTON_MAX_ITER`` steps; it stops as failed, with gap inf, when
    its residual or Newton system is not finite.  After each step the seeds
    still moving are merged by :func:`_merge_coinciding`: of the seeds whose
    iterates round to the same multiples of :data:`MERGE_TOL`, the lowest,
    the leader, keeps iterating and the others stop.  At the end each merged
    seed takes the final params, midpoint and gap of its leader, following
    chains of leaders to the end.  A leader follows exactly the trajectory
    it would follow alone, so the first seed of every root keeps its root
    to the bit.

    Returns the refined params, the midpoints of the two images, the final
    residual norms, and for each seed the seed whose result it took
    (itself unless merged).
    """
    pa, pb = pa.copy(), pb.copy()
    za = np.empty((len(pa), spec.ambient.n), dtype=complex)
    zb = np.empty_like(za)
    for start in range(0, len(pa), BATCH):
        block = slice(start, start + BATCH)
        za[block] = spec.position(chart_a.id, pa[block])
        zb[block] = spec.position(chart_b.id, pb[block])
    leader = np.arange(len(pa))
    live = leader.copy()
    failed = np.zeros(len(pa), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if not len(live):
            break
        moving = []
        for start in range(0, len(live), BATCH):
            rows = live[start : start + BATCH]
            qa, qb = pa[rows], pb[rows]
            residual = za[rows] - zb[rows]
            ja = spec.jacobian(chart_a.id, qa) @ chart_a.local_basis(qa)
            jb = spec.jacobian(chart_b.id, qb) @ chart_b.local_basis(qb)
            system = np.concatenate([ja, -jb], axis=2)
            finite = np.isfinite(residual).all(axis=1) & np.isfinite(system).all(axis=(1, 2))
            if not finite.all():
                failed[rows[~finite]] = True
                rows, qa, qb = rows[finite], qa[finite], qb[finite]
                residual, system = residual[finite], system[finite]
            step = _lstsq(
                np.concatenate([system.real, system.imag], axis=1),
                np.concatenate([-residual.real, -residual.imag], axis=1),
            )
            qa = chart_a.displace(qa, step[:, : chart_a.dim])
            qb = chart_b.displace(qb, step[:, chart_a.dim :])
            pa[rows], pb[rows] = qa, qb
            za[rows] = spec.position(chart_a.id, qa)
            zb[rows] = spec.position(chart_b.id, qb)
            moving.append(rows[np.linalg.norm(step, axis=1) >= NEWTON_STEP_TOL])
        live = _merge_coinciding(np.concatenate(moving), pa, pb, leader)
    while True:
        ahead = leader[leader]
        if np.array_equal(ahead, leader):
            break
        leader = ahead
    za, zb = za[leader], zb[leader]
    gaps = np.where(failed[leader], np.inf, np.linalg.norm(za - zb, axis=1))
    return pa[leader], pb[leader], (za + zb) / 2.0, gaps, leader


def _same_sheet(
    mesh: ImmersionMesh,
    chart_a: np.ndarray,
    params_a: np.ndarray,
    intrinsic_a: np.ndarray | None,
    chart_b: np.ndarray,
    params_b: np.ndarray,
    intrinsic_b: np.ndarray | None,
    cuts: tuple[float, list[float]],
) -> np.ndarray:
    """Diagonal suppression: which preimage pairs are the same sheet point?

    Preimages are given by chart numbers (arrays, or one number for all),
    NaN-padded params and intrinsic points (None without an intrinsic
    callback).  ``cuts`` holds the intrinsic distance cut and the
    parameter distance cut of each chart; a pair at exactly the cut is the
    same sheet, as the broad phase keeps pairs at exactly its radius.
    """
    intrinsic_cut, param_cut = cuts
    if intrinsic_a is not None and intrinsic_b is not None:
        return np.linalg.norm(intrinsic_a - intrinsic_b, axis=-1) <= intrinsic_cut
    same = np.zeros(len(params_a), dtype=bool)
    for c, chart in enumerate(mesh.spec.charts):
        on_c = np.broadcast_to((chart_a == c) & (chart_b == c), same.shape)
        if on_c.any():
            d = mesh.param_dims[c]
            same[on_c] = chart.param_distance(params_a[on_c, :d], params_b[on_c, :d]) <= param_cut[c]
    return same


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (np.unique would page in ~1 MB of code)."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def _index_in(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in a sorted distinct nonempty table, or -1."""
    pos = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return np.where(table[pos] == values, pos, -1)


def _find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query row in ``table`` (distinct integer rows in
    lexicographic order, at least one), or -1 where it is absent.

    Axes are folded in one at a time, and the codes are re-ranked after
    each, so no code exceeds len(table)**2: keys of any extent are safe,
    where a plain ``ravel_multi_index`` would overflow int64.
    """
    code = np.zeros(len(table), dtype=np.int64)
    found = np.zeros(len(queries), dtype=np.int64)
    for axis in range(table.shape[1]):
        values = _distinct(table[:, axis])
        code = code * len(values) + np.searchsorted(values, table[:, axis])
        step = _index_in(values, queries[:, axis])
        found = np.where((found < 0) | (step < 0), -1, found * len(values) + step)
        ranks = _distinct(code)
        code = np.searchsorted(ranks, code)
        found = _index_in(ranks, found)
    return found


def _cell_keys(coords: np.ndarray, radius: float) -> np.ndarray:
    """Integer cell keys (m, k <= 3) of the broad phase.

    Rows of width at most 3 are keyed as they are; wider rows are first
    projected onto the top three principal axes of the cloud.  An
    orthonormal projection never lengthens a distance, and the cell side
    exceeds ``radius`` by a bound on the rounding of the projection and of
    the division, so two rows within ``radius`` get keys that differ by at
    most one on every axis.
    """
    width = coords.shape[1]
    proj = coords
    if width > 3:
        coords = coords - coords.mean(axis=0)
        _, _, vt = np.linalg.svd(coords.T @ coords)
        proj = coords @ vt[:3].T
    scale = float(np.sqrt(np.max(np.sum(coords * coords, axis=1))))
    slack = 16 * (width + 1) ** 2 * np.finfo(float).eps * (scale + radius)
    return np.floor(proj / (max(radius, 1e-12) + slack)).astype(np.int64)


def _within(delta: np.ndarray, radius: float) -> np.ndarray:
    """``np.linalg.norm(delta, axis=1) <= radius``, decided from a faster
    sum of squares wherever its rounding cannot change the answer."""
    squares = np.einsum("ij,ij->i", delta, delta)
    bound = radius * abs(radius)  # a negative radius admits nothing
    near = squares < bound * (1 - 1e-9)
    unsure = np.flatnonzero(~near & (squares <= bound * (1 + 1e-9)))
    if len(unsure):
        near[unsure] = np.linalg.norm(delta[unsure], axis=1) <= radius
    return near


def _candidate_pairs(
    coords: np.ndarray, radius: float, keep: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The pairs (i, j), i < j, of rows at distance <= radius that ``keep``
    accepts, sorted.

    Broad phase: a sorted cell list.  Rows are keyed into cells of side
    about ``radius`` (see :func:`_cell_keys`) and sorted by cell once.  A
    task pairs a cell with itself or with one of its adjacent cells that
    comes later in key order, so every unordered pair of cells is visited
    once.  The candidate pairs of all tasks are expanded in blocks of at
    most :data:`PAIR_BLOCK`, and their true distances are checked; the
    pairs within ``radius`` go to ``keep`` once at least
    :data:`PAIR_BLOCK` have gathered, and after the last block.
    """
    m = len(coords)
    found = [np.zeros((0, 2), dtype=np.intp)]
    finite = np.flatnonzero(np.isfinite(coords).all(axis=1))  # the others are near nothing
    if len(finite) > 1:
        keys = _cell_keys(coords[finite], radius)
        order = np.lexsort(keys.T[::-1])
        keys, order = keys[order], finite[order]
        starts = np.flatnonzero(
            np.concatenate([[True], np.any(keys[1:] != keys[:-1], axis=1)])
        )
        sizes = np.diff(np.append(starts, len(keys)))
        cells = keys[starts]
        k = cells.shape[1]
        later = np.array([o for o in product((-1, 0, 1), repeat=k) if o >= (0,) * k])
        partner = _find_rows(cells, (cells[:, None, :] + later).reshape(-1, k))
        own = np.repeat(np.arange(len(cells)), len(later))[partner >= 0]
        other = partner[partner >= 0]
        # Task q pairs cell own[q] with cell other[q], itself or later in
        # key order, so every sorted position in other[q] exceeds those in
        # own[q] except within one cell, where a < b keeps each pair once.
        # Its candidates are numbered from firsts[q] on, row-major over
        # (row in own[q], col in other[q]).
        row_start, col_start, cols = starts[own], starts[other], sizes[other]
        counts = sizes[own] * cols
        ends = np.cumsum(counts)
        firsts = ends - counts
        sorted_coords = coords[order]
        total = int(ends[-1])
        near_i, near_j, held = [], [], 0
        for start in range(0, total, PAIR_BLOCK):
            stop = min(start + PAIR_BLOCK, total)
            lo, hi = np.searchsorted(ends, [start, stop - 1], side="right") + [0, 1]
            task = np.repeat(
                np.arange(lo, hi),
                np.minimum(ends[lo:hi], stop) - np.maximum(firsts[lo:hi], start),
            )
            row, col = np.divmod(np.arange(start, stop) - firsts[task], cols[task])
            a, b = row_start[task] + row, col_start[task] + col
            a, b = a[a < b], b[a < b]
            near = _within(sorted_coords.take(b, axis=0) - sorted_coords.take(a, axis=0), radius)
            a, b = order[a[near]], order[b[near]]
            near_i.append(np.minimum(a, b))
            near_j.append(np.maximum(a, b))
            held += len(a)
            if held >= PAIR_BLOCK or (held and stop == total):
                i, j = np.concatenate(near_i), np.concatenate(near_j)
                chosen = keep(i, j)
                found.append(np.stack([i[chosen], j[chosen]], axis=1))
                near_i, near_j, held = [], [], 0
    pairs = np.concatenate(found)
    codes = np.sort(pairs[:, 0] * m + pairs[:, 1])
    return np.stack([codes // m, codes % m], axis=1)


def _distinct_preimages(
    mesh: ImmersionMesh,
    chart: np.ndarray,
    params: np.ndarray,
    intrinsic: np.ndarray | None,
    param_tol: float,
    intrinsic_tol: float,
) -> list[tuple[int, np.ndarray, np.ndarray | None]]:
    """Preimages in order, each kept unless it matches an earlier kept one.

    Two preimages match when they lie on the same chart within
    ``param_tol``, or when their intrinsic points lie within
    ``intrinsic_tol``.
    """
    kept = []
    remaining = np.arange(len(chart))
    while len(remaining):
        first = remaining[0]
        c = int(chart[first])
        d = mesh.param_dims[c]
        same = np.zeros(len(remaining), dtype=bool)
        on_chart = chart[remaining] == c
        same[on_chart] = (
            mesh.spec.charts[c].param_distance(params[remaining[on_chart], :d], params[first, :d])
            <= param_tol
        )
        if intrinsic is not None:
            same |= np.linalg.norm(intrinsic[remaining] - intrinsic[first], axis=1) <= intrinsic_tol
        same[0] = True
        kept.append((c, params[first, :d], None if intrinsic is None else intrinsic[first]))
        remaining = remaining[~same]
    return kept


def _preimage_key(chart: Chart, params: np.ndarray) -> tuple:
    """Sort key of a double point's preimage: chart id, then params rounded
    to 1e-9.  A periodic coordinate is first reduced into [lo, hi), and one
    less than that rounding step below hi is taken as lo, so a root just
    below the seam sorts where a root on the seam does."""
    step = 1e-9
    p = np.array(params, dtype=float)
    if isinstance(chart, BoxChart):
        for k, wrap in enumerate(chart._periodic()):
            if wrap:
                lo, hi = chart.lo[k], chart.hi[k]
                value = lo + (p[k] - lo) % (hi - lo)
                p[k] = lo if hi - value < step else value
    return chart.id, tuple(np.round(p, 9))


def find_double_points(
    mesh: ImmersionMesh, *, tol_index: float = TOL_INDEX
) -> list[DoublePointRecord]:
    """Locate transverse self-intersections and grade them.

    Broad phase: a sorted cell list over the sample points, with cells of
    side the exclusion radius (:data:`EXCLUSION_CELLS` median mesh spacings).
    Points of more than three real coordinates are keyed by their
    projection onto the top three principal axes of the sample cloud,
    which never lengthens a distance, so the search is exact: true
    distances are checked between each cell and its adjacent cells.
    Candidate pairs that survive the self-proximity exclusion (a pair at
    exactly the cut is the same sheet) are polished by Newton iteration,
    the seeds of one chart pair together (:func:`_refine_seeds`: seeds
    whose iterates meet within :data:`MERGE_TOL` are refined once), and a
    root counts when its two images lie within :data:`REFINE_TOL`.  The
    roots are then taken in seed order, the first root of each geometric
    point winning, duplicates are merged, and every surviving geometric
    point is emitted as two ordered records carrying angles, actions and
    indices (angles within :data:`TOL_TRANSVERSE` of 0 mod 1/2 are refused;
    h is continued to each preimage with :data:`QUAD_PANELS`).  The two
    records of point k are ``records[2k]`` and ``records[2k + 1]``: they
    share ``point``, swap ``p_id`` and ``q_id``, and come larger action
    first.  An intrinsic point at a root that is not finite, or an
    intrinsic stack of the wrong shape there, is refused (ValueError).
    """
    if mesh.h is None or mesh.theta is None:
        raise PipelineError(
            "run compute_primitive and compute_grading before double-point"
            " detection"
        )
    spec = mesh.spec
    n = spec.ambient.n
    charts = spec.charts

    inner = mesh.edges[~mesh.glue]
    ti, hi = inner[:, 0], inner[:, 1]
    spacing = max(_median(np.linalg.norm(mesh.points[ti] - mesh.points[hi], axis=1)), 1e-12)
    radius = EXCLUSION_CELLS * spacing
    intrinsic_cut = 0.0
    if mesh.intrinsic is not None:
        intrinsic_cut = EXCLUSION_CELLS * _median(
            np.linalg.norm(mesh.intrinsic[ti] - mesh.intrinsic[hi], axis=1)
        )
    param_cut = []
    for c, chart in enumerate(charts):
        own = inner[mesh.chart_index[ti] == c]
        d = mesh.param_dims[c]
        deltas = chart.param_distance(mesh.params[own[:, 0], :d], mesh.params[own[:, 1], :d])
        param_cut.append(EXCLUSION_CELLS * _median(deltas))
    cuts = (intrinsic_cut, param_cut)

    def apart(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        intrinsic = mesh.intrinsic
        return ~_same_sheet(
            mesh,
            mesh.chart_index[i], mesh.params[i], None if intrinsic is None else intrinsic[i],
            mesh.chart_index[j], mesh.params[j], None if intrinsic is None else intrinsic[j],
            cuts,
        )

    coords = np.concatenate([mesh.points.real, mesh.points.imag], axis=1)
    seeds = _candidate_pairs(coords, radius, apart)

    # --- per chart pair: refine, then drop roots that collapsed onto the
    # diagonal.  A root has two sides: chart, NaN-padded params, intrinsic.
    width = mesh.params.shape[1]
    found: list[tuple] = []  # (seed positions, side charts, side params, side intrinsic, points)
    ca_all = mesh.chart_index[seeds[:, 0]]
    cb_all = mesh.chart_index[seeds[:, 1]]
    for ca, cb in sorted(set(zip(ca_all.tolist(), cb_all.tolist()))):
        chosen = np.flatnonzero((ca_all == ca) & (cb_all == cb))
        da, db = mesh.param_dims[ca], mesh.param_dims[cb]
        pa = mesh.params[seeds[chosen, 0], :da]
        pb = mesh.params[seeds[chosen, 1], :db]
        pa, pb, points, gaps, _ = _refine_seeds(spec, charts[ca], charts[cb], pa, pb)
        close = gaps <= REFINE_TOL
        if not close.any():
            continue
        params = np.full((int(close.sum()), 2, width), np.nan)
        params[:, 0, :da] = pa[close]
        params[:, 1, :db] = pb[close]
        intrinsic = None
        if spec.intrinsic is not None:
            k = mesh.intrinsic.shape[1]
            intrinsic = np.stack(
                [
                    _intrinsic_at(spec, charts[ca], pa[close], k),
                    _intrinsic_at(spec, charts[cb], pb[close], k),
                ],
                axis=1,
            )
        sides = np.broadcast_to(np.array([ca, cb]), (len(params), 2))
        keep = ~_same_sheet(
            mesh,
            ca, params[:, 0], None if intrinsic is None else intrinsic[:, 0],
            cb, params[:, 1], None if intrinsic is None else intrinsic[:, 1],
            cuts,
        )
        found.append(
            (
                chosen[close][keep],
                sides[keep],
                params[keep],
                None if intrinsic is None else intrinsic[keep],
                points[close][keep],
            )
        )

    # --- merge duplicates in seed order: group by geometric point, then
    # by preimage; a group's point is that of its first root
    groups: list[dict] = []
    if found:
        seed_pos, side_chart, side_params, side_intr, points = (
            None if parts[0] is None else np.concatenate(parts) for parts in zip(*found)
        )
        remaining = np.argsort(seed_pos)
        while len(remaining):
            point = points[remaining[0]]
            rest = points[remaining]
            near = np.linalg.norm(rest - point, axis=1) <= MERGE_TOL * (
                1.0 + np.linalg.norm(rest, axis=1)
            )
            near[0] = True
            members = remaining[near]
            remaining = remaining[~near]
            groups.append(
                {
                    "point": point,
                    "preimages": _distinct_preimages(
                        mesh,
                        side_chart[members].ravel(),
                        side_params[members].reshape(-1, width),
                        None
                        if side_intr is None
                        else side_intr[members].reshape(-1, side_intr.shape[-1]),
                        max(MERGE_TOL, 10 * REFINE_TOL),
                        MERGE_TOL,
                    ),
                }
            )

    groups.sort(key=lambda g: tuple(np.round(np.concatenate([g["point"].real, g["point"].imag]), 6)))

    records: list[DoublePointRecord] = []
    for k, group in enumerate(groups):
        preimages = sorted(
            group["preimages"], key=lambda pre: _preimage_key(charts[pre[0]], pre[1])
        )
        if len(preimages) < 2:
            continue  # a diagonal artifact that survived; not a double point
        if len(preimages) > 2:
            raise TripleOrWorse(
                f"{len(preimages)} preimages cluster at ambient point"
                f" {group['point'].tolist()}"
            )
        sides = []
        for c, params, _intr in preimages:
            frame = _frame_at(spec, charts[c], params)
            h_val, theta_val = _continue_h_theta(mesh, c, params, frame)
            sides.append((charts[c].id, params, frame, h_val, theta_val))
        ids = (f"dp{k}a", f"dp{k}b")
        point_tuple = tuple(complex(z) for z in group["point"])
        ordered = []
        for (p, q) in ((0, 1), (1, 0)):
            cp, pp, fp, hp, tp = sides[p]
            cq, pq, fq, hq, tq = sides[q]
            try:
                angles = kahler_angles(fp, fq, tol=TOL_TRANSVERSE)
            except NotTransverse as err:
                raise NonTransverseDoublePoint(
                    f"sheets meet tangentially at ambient point {group['point'].tolist()}"
                ) from err
            value = index_of_pair(tp, tq, angles, n)
            if value.residual > tol_index:
                raise IndexNotIntegral(
                    f"index of ({ids[p]}, {ids[q]}) is {value.raw:.8f}"
                    f" (residual {value.residual:.2e} > {tol_index:g})"
                )
            ordered.append(
                DoublePointRecord(
                    p_id=ids[p],
                    q_id=ids[q],
                    p_chart=cp,
                    p_params=tuple(float(v) for v in pp),
                    q_chart=cq,
                    q_params=tuple(float(v) for v in pq),
                    point=point_tuple,
                    angles=angles,
                    action=hq - hp,
                    index_raw=value.raw,
                    index=value.rounded,
                    residual=value.residual,
                )
            )
        if ordered[0].index + ordered[1].index != n:
            raise IndexNotIntegral(
                f"ordered indices at {group['point'].tolist()} sum to"
                f" {ordered[0].index + ordered[1].index}, expected n = {n}"
            )
        records.extend(sorted(ordered, key=lambda r: -r.action))
    return records


def _continue_h_theta(
    mesh: ImmersionMesh,
    c: int,
    params: np.ndarray,
    frame: LagrangianFrame,
) -> tuple[float, float]:
    """h and theta at an off-mesh parameter point of chart number c,
    continued from the nearest sample of the same chart."""
    chart = mesh.spec.charts[c]
    best = int(mesh.offsets[c]) + int(np.argmin(chart.param_distance(mesh.chart_params(c), params)))
    sigma = _path_integrals(mesh.spec, chart, mesh.sample_params(best)[None], params[None])[0]
    h_val = float(mesh.h[best] + sigma)
    theta_val = float(mesh.theta[best] + _wrap_half(det_squared_phase(frame) - mesh.phase[best]))
    return h_val, theta_val


# ---------------------------------------------------------------------------
# datum emission


def emit_datum(
    mesh: ImmersionMesh,
    double_points: Sequence[DoublePointRecord],
    morse: MorseData,
) -> FloerDatum:
    """Package Morse criticals and double-point records into a datum.

    The differential is ``morse.trajectories``, the entries the model
    supplies (Morse edges and closed-form strip counts); the mesh counts
    no strips.
    """
    generators: list[Generator] = []
    for cid, morse_index in morse.criticals:
        generators.append(Generator(cid, "crit", morse_index))
    for record in double_points:
        rec_id = record.p_id + record.q_id[-1]
        partner = record.q_id + record.p_id[-1]
        generators.append(
            Generator(
                id=rec_id,
                kind="pair",
                degree=record.index,
                action=record.action,
                partner=partner,
            )
        )
    datum = FloerDatum(
        ambient_dim=mesh.spec.ambient.n,
        generators=tuple(generators),
        differential=tuple(morse.trajectories),
    )
    report = validate_datum(datum)
    if not report.ok:
        raise ValidationFailed(report)
    return datum


def probe_frame_invariance(
    mesh: ImmersionMesh,
    double_points: Sequence[DoublePointRecord],
    seed: int = 0,
) -> float:
    """Re-derive the double-point angles under random frame changes.

    Right real-orthogonal factors fix each tangent plane, and a common
    ambient unitary rotation preserves the angles between the planes; the
    probe reports the largest angle deviation observed over
    :data:`PROBE_TRIALS` random combinations per record (a direct check
    that the reported angles are properties of the geometry, not of the computed frames).
    The frames come from the standard library's ``random.Random(seed)``,
    one byte draw per record mapped to Gaussian entries by
    :func:`_normals`, so ``seed`` fixes the result.
    """
    rng = random.Random(seed)
    spec = mesh.spec
    n = spec.ambient.n
    worst = 0.0
    for record in double_points:
        fa = _frame_at(spec, mesh.chart(record.p_chart), record.p_params)
        fb = _frame_at(spec, mesh.chart(record.q_chart), record.q_params)
        base = kahler_angles(fa, fb)
        draws = _normals(rng, PROBE_TRIALS * 4 * n * n).reshape(PROBE_TRIALS, 4, n, n)
        for a, b, real, imag in draws:
            q_a, _ = np.linalg.qr(a)
            q_b, _ = np.linalg.qr(b)
            u, _ = np.linalg.qr(real + 1j * imag)
            ga = LagrangianFrame(u @ fa.columns @ q_a)
            gb = LagrangianFrame(u @ fb.columns @ q_b)
            probe = kahler_angles(ga, gb)
            deviation = np.abs(
                np.asarray(probe.values) - np.asarray(base.values)
            )
            worst = max(worst, float(np.max(deviation)))
    return worst


def _normals(rng: random.Random, count: int) -> np.ndarray:
    """``count`` standard normal floats from one ``rng.randbytes`` draw (Box-Muller).

    Each 8-byte word gives a 53-bit uniform in (0, 1]; the first half of
    the words sets the radii, the second half the angles.
    """
    pairs = (count + 1) // 2
    words = np.frombuffer(rng.randbytes(16 * pairs), dtype="<u8")
    uniform = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(uniform[:pairs]))
    angle = 2.0 * np.pi * uniform[pairs:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
