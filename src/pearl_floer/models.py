"""Built-in immersion models for the pipeline and the command line.

Each model is a builder taking the ambient dimension and returning the
pair (ImmersionSpec, MorseData).  Callbacks follow the batched contract of
:mod:`pearl_floer.immersion`: a stack of parameters (m, d) in, one row of
output per parameter vector out.  Models with a fixed natural dimension
(circle, figure_eight, cylinder) reject other values so the command line
can report the mistake instead of producing nonsense.

- ``flat``: the real plane R^n inside C^n; embedded, exact, graded.
- ``circle``: the unit circle in C; exact it is not (its loop bounds area
  pi), and its phase winds twice, so it exercises both failure modes.
- ``figure_eight``: a Gerono-style lemniscate with one transverse double
  point at the origin; exact and graded.
- ``cylinder``: circle times line in C^2; Lagrangian but not exact.
- ``sphere``: the immersed sphere of :mod:`pearl_floer.sphere`; its Morse
  data carries the model's closed-form strips.
"""

from __future__ import annotations

import numpy as np

from .floer import MorseData, two_point_morse
from .geom import AmbientSpace
from .immersion import BoxChart, ImmersionSpec, check_mesh_size
from .sphere import SPHERE_STRIPS, sphere_immersion, sphere_sample_count

__all__ = ["MODEL_NAMES", "get_model"]


def _flat(n: int) -> ImmersionSpec:
    chart = BoxChart(id="plane", lo=(-1.0,) * n, hi=(1.0,) * n)

    def position(chart_id: str, params: np.ndarray) -> np.ndarray:
        return np.asarray(params, dtype=complex)

    def differential(chart_id: str, params: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(n, dtype=complex), (len(params), n, n))

    def intrinsic(chart_id: str, params: np.ndarray) -> np.ndarray:
        return np.asarray(params, dtype=float)

    return ImmersionSpec(
        ambient=AmbientSpace(n),
        charts=(chart,),
        position=position,
        differential=differential,
        intrinsic=intrinsic,
    )


def _loop_intrinsic(chart_id: str, params: np.ndarray) -> np.ndarray:
    """The loop parameter t as the point (cos 2 pi t, sin 2 pi t) of the circle."""
    angle = 2.0 * np.pi * params[:, 0]
    return np.stack([np.cos(angle), np.sin(angle)], axis=1)


def _circle(n: int) -> ImmersionSpec:
    chart = BoxChart(id="loop", lo=(0.0,), hi=(1.0,), periodic=(True,))

    def position(chart_id: str, params: np.ndarray) -> np.ndarray:
        return np.exp(2j * np.pi * params)

    def differential(chart_id: str, params: np.ndarray) -> np.ndarray:
        return (2j * np.pi * np.exp(2j * np.pi * params))[:, :, None]

    return ImmersionSpec(
        ambient=AmbientSpace(1),
        charts=(chart,),
        position=position,
        differential=differential,
        intrinsic=_loop_intrinsic,
    )


def _figure_eight(n: int) -> ImmersionSpec:
    """Lemniscate t |-> sin(4 pi t)/2 + i sin(2 pi t), double point at 0."""
    chart = BoxChart(id="loop", lo=(0.0,), hi=(1.0,), periodic=(True,))

    def position(chart_id: str, params: np.ndarray) -> np.ndarray:
        t = params
        return 0.5 * np.sin(4 * np.pi * t) + 1j * np.sin(2 * np.pi * t)

    def differential(chart_id: str, params: np.ndarray) -> np.ndarray:
        t = params[:, :, None]
        return 2 * np.pi * np.cos(4 * np.pi * t) + 2j * np.pi * np.cos(2 * np.pi * t)

    return ImmersionSpec(
        ambient=AmbientSpace(1),
        charts=(chart,),
        position=position,
        differential=differential,
        intrinsic=_loop_intrinsic,
    )


def _cylinder(n: int) -> ImmersionSpec:
    chart = BoxChart(
        id="band", lo=(0.0, -1.0), hi=(1.0, 1.0), periodic=(True, False)
    )

    def position(chart_id: str, params: np.ndarray) -> np.ndarray:
        t, s = params[:, 0], params[:, 1]
        return np.stack([np.exp(2j * np.pi * t), s + 0j], axis=1)

    def differential(chart_id: str, params: np.ndarray) -> np.ndarray:
        jac = np.zeros((len(params), 2, 2), dtype=complex)
        jac[:, 0, 0] = 2j * np.pi * np.exp(2j * np.pi * params[:, 0])
        jac[:, 1, 1] = 1.0
        return jac

    def intrinsic(chart_id: str, params: np.ndarray) -> np.ndarray:
        angle = 2.0 * np.pi * params[:, 0]
        return np.stack([np.cos(angle), np.sin(angle), params[:, 1]], axis=1)

    return ImmersionSpec(
        ambient=AmbientSpace(2),
        charts=(chart,),
        position=position,
        differential=differential,
        intrinsic=intrinsic,
    )


_BUILDERS = {
    "flat": (_flat, None),
    "circle": (_circle, 1),
    "figure_eight": (_figure_eight, 1),
    "cylinder": (_cylinder, 2),
    "sphere": (sphere_immersion, None),
}

MODEL_NAMES = tuple(sorted(_BUILDERS))


def get_model(
    name: str, dim: int | None = None, resolution: int | None = None
) -> tuple[ImmersionSpec, MorseData]:
    """Build a named model at the requested ambient dimension.

    Given the ``resolution`` it will be sampled at, the sphere's mesh size
    is checked (:func:`~pearl_floer.immersion.check_mesh_size`) before its
    atlas, which holds 2n directions of length n, is built.  The other
    atlases are O(n), and ``sample_immersion`` checks them before sampling.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown model '{name}' (available: {', '.join(MODEL_NAMES)})")
    builder, fixed = _BUILDERS[name]
    if dim is None:
        dim = fixed if fixed is not None else 2
    if fixed is not None and dim != fixed:
        raise ValueError(f"model '{name}' has fixed ambient dimension {fixed}")
    if dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    if name == "sphere" and resolution is not None:
        check_mesh_size(sphere_sample_count(dim, resolution), dim, resolution)
    spec = builder(dim)
    if name == "sphere":
        return spec, two_point_morse(dim)._replace(trajectories=SPHERE_STRIPS)
    return spec, MorseData(criticals=())
