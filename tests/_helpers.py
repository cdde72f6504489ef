"""Shared oracle helpers for the test suite."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from pearl_floer import immersion
from pearl_floer.geom import (
    TOL_TRANSVERSE,
    LagrangianFrame,
    NotTransverse,
    kahler_angles,
)
from pearl_floer.gf2 import (
    FilteredComplex,
    GF2Matrix,
    GradedComplex,
    ShapeMismatch,
)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # normalise the QR phase ambiguity so the distribution is not skewed
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random real orthogonal matrix via QR of a real Gaussian matrix."""
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def planted_pair(
    rng: np.random.Generator, n: int
) -> tuple[LagrangianFrame, LagrangianFrame, np.ndarray]:
    """An ordered transverse plane pair with known Kahler angles.

    Returns (F1, F2, alphas): F1 = U, F2 = U diag(exp(2 pi i alpha)) O for a
    random unitary U and random real orthogonal O, so that F1^H F2 (F1^H F2)^T
    has eigenvalues exp(4 pi i alpha_j) exactly.
    """
    u = random_unitary(rng, n)
    alphas = np.sort(rng.uniform(0.02, 0.48, size=n))
    d = np.diag(np.exp(2j * np.pi * alphas))
    o = random_orthogonal(rng, n)
    return LagrangianFrame(u), LagrangianFrame(u @ d @ o), alphas


def transversality_check(
    frame1: LagrangianFrame, frame2: LagrangianFrame, tol: float = TOL_TRANSVERSE
) -> bool:
    """Whether the two planes are transverse (no Kahler angle 0 mod 1/2)."""
    try:
        kahler_angles(frame1, frame2, tol=tol)
    except NotTransverse:
        return False
    return True


def random_transverse_frames(
    rng: np.random.Generator, n: int
) -> tuple[LagrangianFrame, LagrangianFrame]:
    """Two independent random frames, resampled until transverse."""
    while True:
        f1 = LagrangianFrame(random_unitary(rng, n))
        f2 = LagrangianFrame(random_unitary(rng, n))
        if transversality_check(f1, f2):
            return f1, f2


def cofactor_det(a: np.ndarray) -> complex:
    """Determinant by Laplace cofactor expansion (oracle for small n)."""
    m = a.shape[0]
    if m == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = a[1:, :]
    for j in range(m):
        minor = np.delete(rest, j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# closed forms of the sphere model (see pearl_floer.sphere)


def sphere_h(t):
    """Primitive of the pulled-back Liouville form along the t direction."""
    return (1.0 - np.cos(np.pi * np.asarray(t, dtype=float))) / 2.0


def sphere_theta(t, n: int):
    """Grading lift along the suspension direction."""
    return np.asarray(t, dtype=float) * (n + 2) / 2.0 + n / 4.0


def sphere_branch_frames(n: int) -> tuple[LagrangianFrame, LagrangianFrame]:
    """Tangent frames of the two sheets at the double point."""
    eye = np.eye(n, dtype=complex)
    return (
        LagrangianFrame(np.exp(1j * np.pi / 4) * eye),
        LagrangianFrame(np.exp(3j * np.pi / 4) * eye),
    )


def quadratic_potential(point: np.ndarray) -> complex:
    """W(z) = z_1^2 + ... + z_n^2 + 1; the sphere lies over |W| = 1."""
    z = np.asarray(point, dtype=complex)
    return complex(np.sum(z * z) + 1.0)


def fiber_parameter(chart_id: str, params: np.ndarray) -> float:
    """The t value a chart point sits over (W(iota) = e^{2 pi i t})."""
    params = np.asarray(params, dtype=float)
    if chart_id == "annulus":
        return float(params[0])
    s = float(params @ params)
    if chart_id == "cap0":
        return float(np.arcsin(s / 2.0) / np.pi)
    if chart_id == "cap1":
        return float(1.0 - np.arcsin(s / 2.0) / np.pi)
    raise KeyError(chart_id)


def strip_energy(action_out: float, action_in: float, jump_actions=()) -> float:
    """Energy of a strip: action(out) - action(in) - sum of jump actions.

    Negative energy means the configuration is not realizable by a
    holomorphic strip; the caller interprets the sign.
    """
    return float(action_out) - float(action_in) - float(sum(jump_actions))


# ---------------------------------------------------------------------------
# Newton refinement


def refine_each(spec, chart_a, chart_b, pa, pb):
    """Newton refinement of every seed on its own (oracle for
    ``immersion._refine_seeds``, which merges coinciding iterates).

    Blocks of ``immersion.BATCH`` seeds run one after another, each to
    convergence.  Returns the refined params, the midpoints of the two
    images and the final residual norms.
    """
    pa, pb = pa.copy(), pb.copy()
    za = np.empty((len(pa), spec.ambient.n), dtype=complex)
    zb = np.empty_like(za)
    for start in range(0, len(pa), immersion.BATCH):
        live = np.arange(start, min(start + immersion.BATCH, len(pa)))
        za[live] = spec.position(chart_a.id, pa[live])
        zb[live] = spec.position(chart_b.id, pb[live])
        for _ in range(immersion.NEWTON_MAX_ITER):
            if not len(live):
                break
            qa, qb = pa[live], pb[live]
            residual = za[live] - zb[live]
            ja = spec.jacobian(chart_a.id, qa) @ chart_a.local_basis(qa)
            jb = spec.jacobian(chart_b.id, qb) @ chart_b.local_basis(qb)
            system = np.concatenate([ja, -jb], axis=2)
            step = immersion._lstsq(
                np.concatenate([system.real, system.imag], axis=1),
                np.concatenate([-residual.real, -residual.imag], axis=1),
            )
            qa = chart_a.displace(qa, step[:, : chart_a.dim])
            qb = chart_b.displace(qb, step[:, chart_a.dim :])
            pa[live], pb[live] = qa, qb
            za[live] = spec.position(chart_a.id, qa)
            zb[live] = spec.position(chart_b.id, qb)
            live = live[np.linalg.norm(step, axis=1) >= immersion.NEWTON_STEP_TOL]
    return pa, pb, (za + zb) / 2.0, np.linalg.norm(za - zb, axis=1)


# ---------------------------------------------------------------------------
# GF(2) helpers


def gf2_identity(n: int) -> GF2Matrix:
    return GF2Matrix(n, n, [1 << i for i in range(n)])


def gf2_from_dense(array) -> GF2Matrix:
    rows = len(array)
    cols = len(array[0]) if rows else 0
    data = []
    for row in array:
        if len(row) != cols:
            raise ShapeMismatch("ragged dense input")
        data.append(sum((1 << j) for j, v in enumerate(row) if int(v) % 2))
    return GF2Matrix(rows, cols, data)


def gf2_to_dense(m: GF2Matrix) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.data]


def gf2_is_zero(m: GF2Matrix) -> bool:
    return not any(m.data)


def gf2_add(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("addition of different shapes")
    return GF2Matrix(a.rows, a.cols, [x ^ y for x, y in zip(a.data, b.data)])


def to_numpy(m: GF2Matrix) -> np.ndarray:
    return np.array(gf2_to_dense(m), dtype=np.int64).reshape(m.rows, m.cols)


def gf2_rank(vectors) -> int:
    """Rank of the span of bit-packed vectors, by elimination on low bits."""
    basis: dict[int, int] = {}  # lowest set bit -> reduced vector
    for v in vectors:
        while v:
            low = v & -v
            if low not in basis:
                basis[low] = v
                break
            v ^= basis[low]
    return len(basis)


class RankedMatrix(GF2Matrix):
    """A GF2Matrix with a row rank, for the rank-against-enumeration checks."""

    __slots__ = ()

    def rank(self) -> int:
        return gf2_rank(self.data)


def random_gf2_matrix(rng: np.random.Generator, rows: int, cols: int) -> RankedMatrix:
    m = gf2_from_dense(rng.integers(0, 2, size=(rows, cols)).tolist())
    return RankedMatrix(m.rows, m.cols, m.data)


def span_size(rows: list[int]) -> int:
    """Number of distinct vectors in the GF(2) row span, by enumeration."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span)


def random_graded_complex(
    rng: np.random.Generator,
    max_gens: int = 12,
    degree_lo: int = -2,
    degree_hi: int = 5,
    fill: float = 0.6,
) -> GradedComplex:
    """A random complex with d^2 = 0, grown entry by entry."""
    n = int(rng.integers(1, max_gens + 1))
    degrees = [int(x) for x in rng.integers(degree_lo, degree_hi + 1, n)]
    candidates = [
        (i, j) for i in range(n) for j in range(n) if degrees[i] == degrees[j] + 1
    ]
    rng.shuffle(candidates)
    data = [0] * n
    for i, j in candidates:
        if rng.random() >= fill:
            continue
        data[i] ^= 1 << j
        m = GF2Matrix(n, n, data)
        if not gf2_is_zero(m @ m):
            data[i] ^= 1 << j
    return GradedComplex(tuple(degrees), GF2Matrix(n, n, data))


def random_filtered_complex(
    rng: np.random.Generator,
    max_gens: int = 12,
    max_level: int = 3,
    degree_lo: int = -2,
    degree_hi: int = 5,
) -> FilteredComplex:
    """A random filtered complex (levels never decrease along d, d^2 = 0)."""
    n = int(rng.integers(1, max_gens + 1))
    degrees = [int(x) for x in rng.integers(degree_lo, degree_hi + 1, n)]
    levels = [int(x) for x in rng.integers(0, max_level + 1, n)]
    candidates = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if degrees[i] == degrees[j] + 1 and levels[i] >= levels[j]
    ]
    rng.shuffle(candidates)
    data = [0] * n
    for i, j in candidates:
        if rng.random() >= 0.6:
            continue
        data[i] ^= 1 << j
        m = GF2Matrix(n, n, data)
        if not gf2_is_zero(m @ m):
            data[i] ^= 1 << j
    return FilteredComplex(
        GradedComplex(tuple(degrees), GF2Matrix(n, n, data)), tuple(levels)
    )


def brute_cohomology(cx: GradedComplex) -> dict[int, int]:
    """Cohomology ranks by exhaustive subspace enumeration (<= ~12 generators)."""
    by_degree = cx.degree_indices()
    columns = [cx.differential.column(j) for j in range(len(cx))]

    def block_dims(idx: list[int]) -> tuple[int, int]:
        cols = [columns[j] for j in idx]
        images = [0] * (1 << len(cols))
        for mask in range(1, len(images)):
            low = mask & -mask
            images[mask] = images[mask ^ low] ^ cols[low.bit_length() - 1]
        kernel_count = sum(1 for v in images if v == 0)
        image_count = len(set(images))
        return kernel_count.bit_length() - 1, image_count.bit_length() - 1

    ker: dict[int, int] = {}
    img: dict[int, int] = {}
    for k, idx in by_degree.items():
        ker[k], img[k] = block_dims(idx)
    return {k: ker[k] - img.get(k - 1, 0) for k in by_degree}


def _kernel_combos(columns: list[int]) -> list[int]:
    """Basis of the kernel of ``lambda -> XOR of columns[j] over bits j``."""
    basis: dict[int, tuple[int, int]] = {}  # lowest set bit -> (col, combo)
    kernel: list[int] = []
    for j, col in enumerate(columns):
        combo = 1 << j
        while col:
            low = col & -col
            if low not in basis:
                basis[low] = (col, combo)
                break
            bcol, bcombo = basis[low]
            col ^= bcol
            combo ^= bcombo
        else:
            kernel.append(combo)
    return kernel


def brute_pages(fc: FilteredComplex, r_top: int) -> list[dict[tuple[int, int], int]]:
    """Pages E_0 .. E_r_top from the approximate-cycle spaces (oracle).

        Z_r(p, q) = { x in G^p C^{p+q} : d x in G^{p+r} C^{p+q+1} },
        rank E_r(p, q) = dim Z_r(p, q)
                         - dim( Z_{r-1}(p+1, q-1) + d Z_{r-1}(p-r+1, q+r-2) ),

    with ``G^a`` the whole complex for a <= 0 and zero beyond the maximal
    level.  Shares no code with the pairing reduction of ``spectral_pages``.
    """
    cx = fc.complex
    n = len(cx)
    levels, degrees = fc.levels, cx.degrees
    columns = [cx.differential.column(j) for j in range(n)]

    def d_apply(vec: int) -> int:
        out = 0
        while vec:
            low = vec & -vec
            out ^= columns[low.bit_length() - 1]
            vec ^= low
        return out

    def z_space(p: int, r: int, ndeg: int) -> list[int]:
        dom = [j for j in range(n) if degrees[j] == ndeg and levels[j] >= p]
        bad = sum(
            1 << i for i in range(n) if degrees[i] == ndeg + 1 and levels[i] < p + r
        )
        vectors = []
        for combo in _kernel_combos([columns[j] & bad for j in dom]):
            vectors.append(sum(1 << dom[k] for k in range(len(dom)) if combo >> k & 1))
        return vectors

    pages = []
    for r in range(r_top + 1):
        page: dict[tuple[int, int], int] = {}
        for ndeg in sorted(set(degrees)):
            for p in range(fc.max_level + 1):
                if r == 0:
                    rank = sum(
                        1 for j in range(n) if degrees[j] == ndeg and levels[j] == p
                    )
                else:
                    den = z_space(p + 1, r - 1, ndeg)
                    den += [d_apply(v) for v in z_space(p - r + 1, r - 1, ndeg - 1)]
                    rank = len(z_space(p, r, ndeg)) - gf2_rank(den)
                if rank:
                    page[(p, ndeg - p)] = rank
        pages.append(page)
    return pages


def random_valid_datum(rng: np.random.Generator, max_gens: int = 40) -> "FloerDatum":
    """A random datum satisfying every validation invariant, with d^2 = 0."""
    from pearl_floer.floer import FloerDatum, Generator

    n = int(rng.integers(2, 7))
    n_crit = int(rng.integers(1, 9))
    max_pairs = max(0, (max_gens - n_crit) // 2)
    n_pairs = int(rng.integers(0, min(max_pairs, 12) + 1))
    gens: list[Generator] = []
    for i in range(n_crit):
        gens.append(Generator(f"c{i}", "crit", int(rng.integers(0, n + 1))))
    for i in range(n_pairs):
        deg = int(rng.integers(-2, n + 3))
        action = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        gens.append(Generator(f"p{i}a", "pair", deg, action, f"p{i}b"))
        gens.append(Generator(f"p{i}b", "pair", n - deg, -action, f"p{i}a"))

    def legal(src: Generator, dst: Generator) -> bool:
        if dst.degree != src.degree + 1:
            return False
        if src.kind == "pair" and dst.kind == "pair":
            return dst.action > src.action
        if src.kind == "crit" and dst.kind == "pair":
            return dst.action > 0
        if src.kind == "pair" and dst.kind == "crit":
            return src.action < 0
        return True

    candidates = [
        (a.id, b.id) for a in gens for b in gens if a.id != b.id and legal(a, b)
    ]
    rng.shuffle(candidates)
    index = {g.id: i for i, g in enumerate(gens)}
    m = len(gens)
    data = [0] * m
    entries: list[tuple[str, str]] = []
    for src, dst in candidates:
        if rng.random() >= 0.5:
            continue
        i, j = index[dst], index[src]
        data[i] ^= 1 << j
        mat = GF2Matrix(m, m, data)
        if gf2_is_zero(mat @ mat):
            entries.append((src, dst))
        else:
            data[i] ^= 1 << j
    return FloerDatum(n, tuple(gens), tuple(entries))


def quasi_iso_pair(
    rng: np.random.Generator, max_gens: int = 8
) -> tuple[GradedComplex, GradedComplex, GF2Matrix]:
    """(c1, c2, phi) with phi a quasi-isomorphism, built from c1 by an
    acyclic extension followed by a random degree-preserving change of basis."""
    c1 = random_graded_complex(rng, max_gens=max_gens)
    n1 = len(c1)
    pairs = int(rng.integers(0, 4))
    degrees2 = list(c1.degrees)
    entries2 = list(c1.differential.entries())
    for _ in range(pairs):
        k = int(rng.integers(-2, 5))
        a = len(degrees2)
        degrees2 += [k, k + 1]
        entries2.append((a + 1, a))
    n2 = len(degrees2)
    d2 = to_numpy(GF2Matrix.from_entries(n2, n2, entries2))
    phi = np.zeros((n2, n1), dtype=np.int64)
    for i in range(n1):
        phi[i, i] = 1
    # conjugate by random elementary transvections within degree blocks
    for _ in range(2 * n2):
        i, j = rng.integers(0, n2, 2)
        if i == j or degrees2[i] != degrees2[j]:
            continue
        e = np.eye(n2, dtype=np.int64)
        e[i, j] = 1
        d2 = (e @ d2 @ e) % 2
        phi = (e @ phi) % 2
    c2 = GradedComplex(tuple(degrees2), gf2_from_dense(d2.tolist()))
    return c1, c2, gf2_from_dense(phi.tolist())


def random_chain_map(
    rng: np.random.Generator, max_gens: int = 8
) -> tuple[GradedComplex, GradedComplex, GF2Matrix]:
    """(c1, c2, phi) with phi a chain map that may or may not be a
    quasi-isomorphism.

    c2 is c1 (+) c3, seen through a random degree-preserving change of
    basis, where c3 is a random complex or, half the time, a sum of
    contractible two-term pieces.  phi is the inclusion of c1 or the zero
    map, plus a null-homotopic map d2 h + h d1 for a random h of degree -1.
    So phi is a quasi-isomorphism exactly when it includes c1 and c3 is
    acyclic, or it is zero and both c1 and c2 are acyclic.
    """
    c1 = random_graded_complex(rng, max_gens=max_gens)
    if rng.random() < 0.5:
        c3 = random_graded_complex(rng, max_gens=max_gens)
    else:
        ks = [int(k) for k in rng.integers(-2, 5, int(rng.integers(0, 4)))]
        c3 = GradedComplex(
            tuple(d for k in ks for d in (k, k + 1)),
            GF2Matrix.from_entries(
                2 * len(ks), 2 * len(ks), [(2 * a + 1, 2 * a) for a in range(len(ks))]
            ),
        )
    n1, n2 = len(c1), len(c1) + len(c3)
    deg2 = c1.degrees + c3.degrees
    d2 = np.zeros((n2, n2), dtype=np.int64)
    d2[:n1, :n1] = to_numpy(c1.differential)
    d2[n1:, n1:] = to_numpy(c3.differential)
    phi = np.zeros((n2, n1), dtype=np.int64)
    if rng.random() < 0.5:
        phi[:n1, :n1] = np.eye(n1, dtype=np.int64)
    lowers_degree = np.subtract.outer(deg2, c1.degrees) == -1
    h = (lowers_degree & (rng.random((n2, n1)) < 0.3)).astype(np.int64)
    phi = (phi + d2 @ h + h @ to_numpy(c1.differential)) % 2
    for _ in range(2 * n2):
        i, j = (int(x) for x in rng.integers(0, n2, 2))
        if i == j or deg2[i] != deg2[j]:
            continue
        e = np.eye(n2, dtype=np.int64)
        e[i, j] = 1  # its own inverse over GF(2)
        d2 = (e @ d2 @ e) % 2
        phi = (e @ phi) % 2
    c2 = GradedComplex(deg2, gf2_from_dense(d2.tolist()))
    return c1, c2, gf2_from_dense(phi.tolist())


def check_frozen_value(make, field: str, text: str, hashable: bool = True) -> None:
    """Two records from ``make()`` are equal values that refuse assignment to
    ``field``, survive a pickle round trip and print as ``text``; they hash
    equal unless a field is a dict (then hashing raises TypeError)."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == text
