"""Closed-form immersed Lagrangian sphere with one transverse double point.

The model is the unit-circle family of special Lagrangian vanishing cycles
of the quadratic potential W(z) = z_1^2 + ... + z_n^2 + 1: over the fiber
parameter t in [0, 1] the curve

    c(t) = sqrt(2 sin(pi t)) * exp(i(pi t / 2 + pi / 4)),    c(t)^2 = e^{2 pi i t} - 1,

sweeps the immersed sphere iota(t, x) = c(t) x for unit vectors x of R^n.
Both ends t -> 0, 1 collapse to the origin of C^n, producing one transverse
double point whose two branches carry the constant frames e^{i pi/4} I and
e^{3 i pi/4} I.  Closed forms:

    h(t)     = (1 - cos(pi t)) / 2          (primitive of the pullback of sigma)
    theta(t) = t (n + 2) / 2 + n / 4        (lift of the squared-determinant phase)

so the double-point actions are +1 and -1 and the ordered indices are n + 1
and -1.  The chart atlas avoids the parameter singularities at the poles by
capping the suspension annulus with two ball charts v |-> g(|v|^2) v where
g(s) = exp(i(pi/4 + arcsin(s/2)/2)) (and its mirror for the far cap).

:class:`DiscFamily` gives the one-parameter family of holomorphic discs
u(z) = x * sqrt(phi(z) - 1) through the double point (phi a Mobius
automorphism of the unit disc); their boundary primitive integral equals
the positive double-point action, +1, for every member of the family.

:func:`sphere_datum` packages the two Morse criticals and the two ordered
double-point records, together with the closed-form count of rigid strips
(one through each end of the double point), into a datum whose cohomology
vanishes in every degree.
"""

from __future__ import annotations

import warnings

import numpy as np

from .floer import FloerDatum, Generator
from .geom import AmbientSpace
from .immersion import ImmersionSpec, SpokeBallChart, SuspensionChart

__all__ = [
    "SPHERE_DATUM_NOTE",
    "sphere_curve",
    "sphere_curve_derivative",
    "sphere_immersion",
    "sphere_sample_count",
    "sphere_datum",
    "DiscFamily",
]

#: Shown by reporting tools next to datum output for this model.
SPHERE_DATUM_NOTE = (
    "differential entries (dp0ba -> min) and (max -> dp0ab) are the"
    " closed-form rigid strip counts of the model, oriented so that the"
    " differential raises degree by one; mesh analysis certifies the"
    " generators but does not count strips"
)

DEFAULT_SEAM = 0.1


def sphere_curve(t):
    """c(t) with c(t)^2 = e^{2 pi i t} - 1, the branch with arg in (0, pi)."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(2.0 * np.sin(np.pi * t)) * np.exp(1j * (np.pi * t / 2 + np.pi / 4))


def sphere_curve_derivative(t):
    """dc/dt; its argument is 3 pi t / 2 + pi / 4."""
    t = np.asarray(t, dtype=float)
    modulus = np.sqrt(2.0 * np.sin(np.pi * t))
    radial = np.pi * np.cos(np.pi * t) / modulus
    return (radial + 0.5j * np.pi * modulus) * np.exp(
        1j * (np.pi * t / 2 + np.pi / 4)
    )


def _g0(s):
    """Near-cap profile: g0(|v|^2) v parameterizes the t -> 0 side."""
    return np.exp(1j * (np.pi / 4 + 0.5 * np.arcsin(s / 2.0)))


def _g0_prime(s):
    return 1j * _g0(s) / (4.0 * np.sqrt(1.0 - (s / 2.0) ** 2))


def _g1(s):
    """Far-cap profile for the t -> 1 side."""
    return np.exp(1j * (3.0 * np.pi / 4 - 0.5 * np.arcsin(s / 2.0)))


def _g1_prime(s):
    return -1j * _g1(s) / (4.0 * np.sqrt(1.0 - (s / 2.0) ** 2))


def _directions(n: int) -> tuple[tuple[float, ...], ...]:
    out = []
    for k in range(n):
        e = [0.0] * n
        e[k] = 1.0
        out.append(tuple(e))
    for k in range(n):
        e = [0.0] * n
        e[k] = -1.0
        out.append(tuple(e))
    return tuple(out)


def sphere_sample_count(n: int, resolution: int) -> int:
    """Samples of the :func:`sphere_immersion` atlas, by arithmetic: the
    atlas itself holds 2n direction vectors of length n."""
    spokes = SpokeBallChart._spoke_samples(resolution)
    return 2 * n * resolution + 2 * (1 + 2 * n * spokes)


def sphere_immersion(n: int, seam: float = DEFAULT_SEAM) -> ImmersionSpec:
    """Chart atlas for the immersed sphere in C^n (n >= 1).

    A suspension annulus covers t in [seam, 1 - seam]; two spoke-ball caps
    of radius sqrt(2 sin(pi * seam)) cover the ends, glued to the annulus
    along every sampled direction.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if not 0.0 < seam < 0.5:
        raise ValueError("seam parameter must lie strictly between 0 and 1/2")
    directions = _directions(n)
    r0 = float(np.sqrt(2.0 * np.sin(np.pi * seam)))
    if n >= 2:
        cycle = tuple((k, (k + 1) % (2 * n)) for k in range(2 * n))
    else:
        cycle = ()
    annulus = SuspensionChart(
        id="annulus",
        t_lo=seam,
        t_hi=1.0 - seam,
        directions=directions,
        direction_edges=cycle,
        lateral_rows=1,
    )
    cap0 = SpokeBallChart(id="cap0", radius=r0, directions=directions)
    cap1 = SpokeBallChart(id="cap1", radius=r0, directions=directions)

    def position(chart_id: str, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if chart_id == "annulus":
            return sphere_curve(params[:, :1]) * params[:, 1:]
        s = np.sum(params * params, axis=1)[:, None]
        if chart_id == "cap0":
            return _g0(s) * params
        if chart_id == "cap1":
            return _g1(s) * params
        raise KeyError(chart_id)

    def differential(chart_id: str, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        eye = np.eye(n)
        if chart_id == "annulus":
            t, x = params[:, :1], params[:, 1:]
            jac = np.empty((len(params), n, n + 1), dtype=complex)
            jac[:, :, 0] = sphere_curve_derivative(t) * x
            jac[:, :, 1:] = sphere_curve(t)[:, :, None] * eye
            return jac
        v = params
        s = np.sum(v * v, axis=1)[:, None, None]
        outer = v[:, :, None] * v[:, None, :]
        if chart_id == "cap0":
            return _g0(s) * eye + 2.0 * _g0_prime(s) * outer
        if chart_id == "cap1":
            return _g1(s) * eye + 2.0 * _g1_prime(s) * outer
        raise KeyError(chart_id)

    def intrinsic(chart_id: str, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if chart_id == "annulus":
            t, x = params[:, :1], params[:, 1:]
            return np.concatenate([np.cos(np.pi * t), np.sin(np.pi * t) * x], axis=1)
        v = params
        rho2 = np.sum(v * v, axis=1)[:, None]
        pole = np.sqrt(np.maximum(0.0, 1.0 - rho2 * rho2 / 4.0))
        if chart_id == "cap0":
            return np.concatenate([pole, v * np.sqrt(rho2) / 2.0], axis=1)
        if chart_id == "cap1":
            return np.concatenate([-pole, v * np.sqrt(rho2) / 2.0], axis=1)
        raise KeyError(chart_id)

    glue = []
    for d in directions:
        cap_point = tuple(r0 * comp for comp in d)
        glue.append(("annulus", (seam, *d), "cap0", cap_point))
        glue.append(("annulus", (1.0 - seam, *d), "cap1", cap_point))

    return ImmersionSpec(
        ambient=AmbientSpace(n),
        charts=(annulus, cap0, cap1),
        position=position,
        differential=differential,
        intrinsic=intrinsic,
        glue=tuple(glue),
    )


def sphere_datum(n: int) -> FloerDatum:
    """Closed-form datum: two criticals, two double-point records, two strips.

    Cohomology vanishes in every degree; the positive-action generator sits
    in degree n + 1 with action +1.  For n = 1 the degree spread collapses
    to the curve case, where the model is degenerate (the two pair degrees
    2 and -1 land next to the criticals); a warning is emitted.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if n == 1:
        warnings.warn(
            "the n = 1 sphere is an immersed curve; its datum is degenerate"
            " (pair degrees 2 and -1 sit adjacent to the criticals)",
            UserWarning,
            stacklevel=2,
        )
    generators = (
        Generator("min", "crit", 0),
        Generator("max", "crit", n),
        Generator("dp0ab", "pair", n + 1, action=1.0, partner="dp0ba"),
        Generator("dp0ba", "pair", -1, action=-1.0, partner="dp0ab"),
    )
    differential = (("dp0ba", "min"), ("max", "dp0ab"))
    return FloerDatum(ambient_dim=n, generators=generators, differential=differential)


# ---------------------------------------------------------------------------
# holomorphic discs through the double point


def _sqrt_upper(w: np.ndarray) -> np.ndarray:
    """Square root with branch arg in (0, pi] (cut along the positive axis)."""
    w = np.asarray(w, dtype=complex)
    ang = np.angle(w)
    ang = np.where(ang <= 0, ang + 2.0 * np.pi, ang)
    return np.sqrt(np.abs(w)) * np.exp(0.5j * ang)


class DiscFamily:
    """One holomorphic disc u(z) = x * sqrt(phi(z) - 1) with corner at the
    double point, phi(z) = e^{i beta} (z - a) / (1 - conj(a) z)."""

    def __init__(self, x: np.ndarray, a: complex = 0.0, beta: float = 0.0):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) < 1:
            raise ValueError("direction must be a nonempty real vector")
        norm = float(np.linalg.norm(x))
        if norm < 1e-12:
            raise ValueError("direction must be nonzero")
        if abs(a) >= 1.0:
            raise ValueError("Mobius parameter a must lie inside the unit disc")
        self.x = x / norm
        self.a = complex(a)
        self.beta = float(beta)

    def mobius(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(1j * self.beta) * (z - self.a) / (1.0 - np.conj(self.a) * z)

    def mobius_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return (
            np.exp(1j * self.beta)
            * (1.0 - abs(self.a) ** 2)
            / (1.0 - np.conj(self.a) * z) ** 2
        )

    @property
    def corner(self) -> complex:
        """Boundary point mapping to the double point (phi(corner) = 1)."""
        w = np.exp(-1j * self.beta)
        return complex((w + self.a) / (1.0 + np.conj(self.a) * w))

    def map(self, z) -> np.ndarray:
        """Disc map into C^n (vectorized over a trailing z array)."""
        w = self.mobius(z) - 1.0
        return np.multiply.outer(self.x, _sqrt_upper(w))

    def boundary_point(self, s: float) -> np.ndarray:
        return self.map(np.exp(1j * float(s))).reshape(len(self.x))

    def boundary_action(self, num_points: int = 8192) -> float:
        """Integral of the primitive sigma around the disc boundary.

        The integrand vanishes at the corner (where the boundary passes
        through the double point); the trapezoid rule runs over one full
        period starting and ending there.
        """
        s0 = float(np.angle(self.corner))
        s = s0 + np.linspace(0.0, 2.0 * np.pi, num_points + 1)
        z = np.exp(1j * s)
        w = self.mobius(z) - 1.0
        wp = self.mobius_derivative(z) * 1j * z
        # sigma pullback: 1/2 Im(<u, u'>) with u = x sqrt(w), so
        # f = 1/2 Im(conj(w) w') / (2 |w|); it extends by 0 to the corner.
        mod = np.abs(w)
        f = np.zeros_like(mod)
        interior = mod > 1e-14
        f[interior] = (
            0.5 * np.imag(np.conj(w[interior]) * wp[interior]) / (2.0 * mod[interior])
        )
        f[0] = 0.0
        f[-1] = 0.0
        h = 2.0 * np.pi / num_points
        return float(h * (f[0] / 2 + f[1:-1].sum() + f[-1] / 2))
