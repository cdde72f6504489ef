"""Linear symplectic geometry of C^n: Lagrangian frames, Kahler angles, gradings.

Conventions (fixed once here, used everywhere else):

* C^n carries coordinates z_j = x_j + i y_j, the standard symplectic form
  ``omega = sum_j dx_j ^ dy_j``, the complex structure J = multiplication
  by i, and the metric ``omega(., J.)``, which is the real part of the
  Hermitian inner product ``<u, v> = sum_j conj(u_j) v_j``.  In these terms
  ``omega(u, v) = Im <u, v>``.
* The primitive (Liouville) form is ``sigma = (1/2) sum_j (x_j dy_j - y_j dx_j)``
  with ``d sigma = omega``; its value on a tangent vector v at the point z is
  ``(1/2) Im <z, v>``.
* A Lagrangian plane is presented by a *unitary frame*: an n-tuple of
  vectors, orthonormal for the Hermitian product, whose real span is the
  plane.  Two frames present the same plane exactly when they differ by
  right multiplication with a real orthogonal matrix.
* The squared-determinant phase of a frame F is ``arg(det(F)^2) / (2 pi)``,
  a quantity in [0, 1) that depends only on the plane.
* For an ordered pair of transverse Lagrangian planes with frames (F1, F2)
  the Kahler angles ``alpha_1 <= ... <= alpha_n`` in (0, 1/2) are read off
  from the spectrum of ``S = M M^T`` where ``M = F1^H F2``: the eigenvalues
  of S are ``exp(4 pi i alpha_j)``.  Swapping the order replaces each
  alpha_j by 1/2 - alpha_j, so the two totals add up to n/2.
* A graded intersection point p of two branches carrying phases theta_p
  (source branch) and theta_q (target branch) has index
  ``ind = n + theta_q - theta_p - 2 * sum_j alpha_j`` computed with the
  angles of the ordered pair (source plane, target plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "TOL_FRAME",
    "TOL_TRANSVERSE",
    "GeometryError",
    "DimensionMismatch",
    "NotLagrangian",
    "Degenerate",
    "NotTransverse",
    "AmbientSpace",
    "LagrangianFrame",
    "KahlerAngles",
    "IndexValue",
    "make_unitary_frame",
    "kahler_angles",
    "det_squared_phase",
    "index_of_pair",
]

#: Default tolerance for unitarity / Lagrangian-plane checks on frames.
TOL_FRAME = 1e-10

#: Default tolerance for transversality: an eigenvalue of M M^T closer than
#: this to 1 means some Kahler angle is within ~tol/(4 pi) of 0 mod 1/2.
TOL_TRANSVERSE = 1e-8


class GeometryError(Exception):
    """Base class for failures of the linear-geometry kernel."""


class DimensionMismatch(GeometryError):
    """Operands live in ambient spaces of different (or wrong) dimension."""


class NotLagrangian(GeometryError):
    """The given vectors do not span a Lagrangian plane (omega does not vanish)."""


class Degenerate(GeometryError):
    """The given vectors are not linearly independent over R."""


class NotTransverse(GeometryError):
    """The two planes share a direction (some Kahler angle is 0 mod 1/2)."""


@dataclass(frozen=True)
class AmbientSpace:
    """The symplectic vector space C^n with the conventions fixed above."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {self.n}")

    def omega(self, u: np.ndarray, v: np.ndarray) -> float:
        """Symplectic form omega(u, v) = Im <u, v>."""
        return float(np.imag(np.sum(np.conj(u) * v)))

    def sigma(self, z: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """Value of the primitive sigma on the tangent vector v at the point z.

        Stacks of points and vectors (..., n) give one value per point.
        """
        return 0.5 * np.imag(np.sum(np.conj(z) * v, axis=-1))


@dataclass(frozen=True)
class LagrangianFrame:
    """A unitary frame of a Lagrangian plane in C^n.

    ``columns`` is an (n, n) complex matrix whose j-th column is the j-th
    frame vector.  Construction verifies unitarity (which for a frame with
    real orthonormal columns is equivalent to the span being Lagrangian)
    within :data:`TOL_FRAME`.
    """

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.array(self.columns, dtype=complex)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise DimensionMismatch(
                f"a frame must be a square matrix of columns, got shape {cols.shape}"
            )
        dev = np.max(np.abs(cols.conj().T @ cols - np.eye(cols.shape[0])))
        if dev > TOL_FRAME:
            raise NotLagrangian(
                f"columns are not a unitary frame (max deviation {dev:.3e});"
                " build frames with make_unitary_frame"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]


@dataclass(frozen=True)
class KahlerAngles:
    """Sorted Kahler angles of an ordered transverse pair of Lagrangian planes."""

    values: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.values))


class IndexValue(NamedTuple):
    """Raw (real) index of a graded intersection, its rounding and residual."""

    raw: float
    rounded: int
    residual: float


def make_unitary_frame(
    vectors: Sequence[np.ndarray] | np.ndarray, tol: float = TOL_FRAME
) -> LagrangianFrame | np.ndarray:
    """Orthonormalise n vectors spanning a Lagrangian plane into a unitary frame.

    Parameters
    ----------
    vectors : sequence of n complex vectors in C^n, an (n, n) array whose
        *columns* are the vectors, or an (m, n, n) stack of such arrays.
    tol : tolerance for the pairwise vanishing of omega on the input,
        relative to the squared scale of the vectors.

    Returns
    -------
    LagrangianFrame spanning the same real subspace; for a stack, an
    (m, n, n) array of unitary frame columns.  The frame is the Q factor
    of the real QR decomposition of the realified columns, with signs
    fixed so that diag R > 0 (the result of Gram-Schmidt for Re<.,.>).

    Raises
    ------
    DimensionMismatch : wrong number of vectors or inconsistent lengths.
    NotLagrangian : omega does not vanish on some pair of inputs.
    Degenerate : the inputs are linearly dependent over R.

    For a stack, the error describes the first failing frame, and its
    ``index`` attribute gives that frame's position in the stack.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim in (2, 3):
        a = np.asarray(vectors, dtype=complex)
    else:
        a = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(
            f"need n vectors of length n to frame a Lagrangian plane, got shape {a.shape}"
        )
    stacked = a.ndim == 3
    if not stacked:
        a = a[None]
    n = a.shape[-1]
    norms = np.linalg.norm(a, axis=1)  # (m, n): length of each spanning vector
    scale = np.max(norms, axis=1)
    tiny = (scale == 0.0) | (np.min(norms, axis=1) < tol * scale)

    gram = np.conj(np.swapaxes(a, 1, 2)) @ a
    skew = np.max(np.abs(np.imag(gram)), axis=(1, 2))
    skewed = skew > tol * scale * scale

    # Gram-Schmidt for the real inner product Re<.,.> is the QR
    # decomposition of the realified columns; on a Lagrangian span it is
    # plain Hermitian Gram-Schmidt because the imaginary parts vanish.
    q, r = np.linalg.qr(np.concatenate([a.real, a.imag], axis=1))
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * np.where(diag < 0.0, -1.0, 1.0)[:, None, :]
    dependent = np.abs(diag) <= np.sqrt(tol) * norms
    frames = q[:, :n, :] + 1j * q[:, n:, :]
    unitarity = np.max(
        np.abs(np.conj(np.swapaxes(frames, 1, 2)) @ frames - np.eye(n)), axis=(1, 2)
    )
    failed = tiny | skewed | dependent.any(axis=1) | (unitarity > TOL_FRAME)
    if failed.any():
        k = int(np.argmax(failed))
        if tiny[k]:
            err: GeometryError = Degenerate("a spanning vector is zero (or negligibly small)")
        elif skewed[k]:
            err = NotLagrangian(
                f"omega does not vanish on the span (max pairing {skew[k]:.3e})"
            )
        elif dependent[k].any():
            err = Degenerate(
                f"vector {int(np.argmax(dependent[k]))} is linearly dependent on"
                " its predecessors over R"
            )
        else:
            err = NotLagrangian(
                f"columns are not a unitary frame (max deviation {unitarity[k]:.3e});"
                " build frames with make_unitary_frame"
            )
        err.index = k
        raise err
    if stacked:
        return frames
    return LagrangianFrame(frames[0])


def kahler_angles(
    frame1: LagrangianFrame, frame2: LagrangianFrame, tol: float = TOL_TRANSVERSE
) -> KahlerAngles:
    """Kahler angles of the ordered transverse pair (frame1, frame2).

    The angles are recovered from the spectrum of ``S = M M^T`` with
    ``M = F1^H F2``; S is a complex symmetric unitary matrix whose
    eigenvalues are ``exp(4 pi i alpha_j)``.  The result is independent of
    the frame choices within the two planes and of a simultaneous unitary
    rotation of the pair.

    Raises
    ------
    DimensionMismatch : frames of different dimension.
    NotTransverse : some eigenvalue of S lies within ``tol`` of 1.
    """
    if frame1.n != frame2.n:
        raise DimensionMismatch(
            f"frames live in different dimensions ({frame1.n} vs {frame2.n})"
        )
    m = frame1.columns.conj().T @ frame2.columns
    s = m @ m.T
    eig = np.linalg.eigvals(s)
    bad = np.abs(eig - 1.0)
    if float(np.min(bad)) < tol:
        raise NotTransverse(
            f"planes share a direction: eigenvalue {eig[np.argmin(bad)]:.12g} of M M^T"
            " is within tolerance of 1"
        )
    args = np.angle(eig)  # in (-pi, pi]
    args = np.where(args <= 0.0, args + 2.0 * np.pi, args)  # branch (0, 2 pi)
    alphas = np.sort(args / (4.0 * np.pi))
    return KahlerAngles(tuple(float(x) for x in alphas))


def det_squared_phase(frame: LagrangianFrame | np.ndarray) -> float | np.ndarray:
    """Phase of det(F)^2 as a number in [0, 1) (argument divided by 2 pi).

    Accepts a frame, or an (m, n, n) stack of frame columns for which it
    returns the m phases.
    """
    if isinstance(frame, LagrangianFrame):
        return float((np.angle(np.linalg.det(frame.columns)) / np.pi) % 1.0)
    return (np.angle(np.linalg.det(frame)) / np.pi) % 1.0


def index_of_pair(
    theta_p: float, theta_q: float, angles: KahlerAngles, n: int
) -> IndexValue:
    """Index of a graded intersection from branch phases and Kahler angles.

    ``raw = n + theta_q - theta_p - 2 * angles.total``.  For honestly graded
    data the raw value is an integer up to numerical noise; the caller
    decides what residual it is willing to accept.
    """
    raw = float(n + theta_q - theta_p - 2.0 * angles.total)
    rounded = int(round(raw))
    return IndexValue(raw, rounded, abs(raw - rounded))
