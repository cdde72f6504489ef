"""Exact linear algebra over GF(2) for graded cochain complexes.

Matrices are stored as bit-packed rows (one Python int per row, bit j =
column j), so all arithmetic is exact and word-parallel.  On top of the
matrix layer the module provides graded cochain complexes with a checked
``d^2 = 0`` predicate, cohomology ranks, chain-map verification, mapping
cones (hence quasi-isomorphism detection), and decreasing filtrations with
their spectral pages.  Cohomology, quasi-isomorphism and pages all come
from the same pairing reduction, described below.

Filtration convention: a filtered complex carries one integer level per
generator, and ``G^p`` is the span of the generators of level >= p, so
``G^0 >= G^1 >= ...``.  The differential must not decrease levels.  The
pages are read off one pairing reduction: order the generators by (level
descending, degree descending, index), so that every prefix spans a
subcomplex, and reduce the columns of d in that order by low pivots.  Each
nonzero reduced column pairs its generator with the latest generator left
in the column; the pair's gap is the difference of their levels.
Then

    rank E_0(p, q) = #{ generators of level p and degree p + q },
    rank E_r(p, q) = #{ those that are unpaired or whose pair has gap >= r }

for r >= 1.  Pages stabilise once r exceeds the maximal level.

Cohomology is the case of a single level: rank H^k is the number of
unpaired generators of degree k.  A chain map is a quasi-isomorphism when
its mapping cone has no unpaired generator.  The cone is not re-checked
for d^2 = 0, because that follows exactly from d^2 = 0 on both complexes
and from the chain-map identity, which are checked instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "GF2Error",
    "ShapeMismatch",
    "DegreeViolation",
    "NotAComplex",
    "NotChainMap",
    "FiltrationViolated",
    "GF2Matrix",
    "SquareZeroReport",
    "GradedComplex",
    "verify_chain_map",
    "mapping_cone",
    "is_quasi_iso",
    "FilteredComplex",
    "SpectralTable",
    "spectral_pages",
]


class GF2Error(Exception):
    """Base class for exact-linear-algebra failures."""


class ShapeMismatch(GF2Error):
    """Operand shapes are incompatible."""


class DegreeViolation(GF2Error):
    """A differential or map entry connects generators of the wrong degrees."""


class NotAComplex(GF2Error):
    """The differential does not square to zero."""


class NotChainMap(GF2Error):
    """The given map does not intertwine the differentials."""


class FiltrationViolated(GF2Error):
    """The differential strictly decreases the filtration level somewhere."""


class GF2Matrix:
    """A dense matrix over GF(2) with bit-packed rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise ShapeMismatch(f"expected {rows} rows, got {len(data)}")
            mask = (1 << cols) - 1
            for r in data:
                if r & ~mask:
                    raise ShapeMismatch("row data has bits beyond the column count")
            self.data = list(data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]
    ) -> "GF2Matrix":
        """Build from (row, col) entries; repeated entries cancel in pairs."""
        m = cls(rows, cols)
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i}, {j}) outside shape ({rows}, {cols})")
            m.data[i] ^= 1 << j
        return m

    @classmethod
    def from_dense(cls, array: Sequence[Sequence[int]]) -> "GF2Matrix":
        rows = len(array)
        cols = len(array[0]) if rows else 0
        data = []
        for row in array:
            if len(row) != cols:
                raise ShapeMismatch("ragged dense input")
            data.append(sum((1 << j) for j, v in enumerate(row) if int(v) % 2))
        return cls(rows, cols, data)

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def row(self, i: int) -> int:
        return self.data[i]

    def column(self, j: int) -> int:
        bit = 1 << j
        out = 0
        for i, r in enumerate(self.data):
            if r & bit:
                out |= 1 << i
        return out

    def entries(self) -> Iterator[tuple[int, int]]:
        for i, r in enumerate(self.data):
            while r:
                low = r & -r
                yield (i, low.bit_length() - 1)
                r ^= low

    def to_dense(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "GF2Matrix") -> "GF2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition of different shapes")
        return GF2Matrix(
            self.rows, self.cols, [a ^ b for a, b in zip(self.data, other.data)]
        )

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"product shape mismatch ({self.rows}x{self.cols} @"
                f" {other.rows}x{other.cols})"
            )
        out = [0] * self.rows
        for i, r in enumerate(self.data):
            acc = 0
            while r:
                low = r & -r
                acc ^= other.data[low.bit_length() - 1]
                r ^= low
            out[i] = acc
        return GF2Matrix(self.rows, other.cols, out)

    def transpose(self) -> "GF2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return GF2Matrix(self.cols, self.rows, out)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols}, {sum(bin(r).count('1') for r in self.data)} entries)"


@dataclass(frozen=True)
class SquareZeroReport:
    """Outcome of a d^2 = 0 check, with the first offending entry if any."""

    ok: bool
    witness: tuple[str, str] | None = None
    witness_indices: tuple[int, int] | None = None


@dataclass(frozen=True)
class GradedComplex:
    """A finite GF(2) cochain complex with integer-graded generators.

    ``differential`` acts on generator indices: entry (i, j) = 1 means the
    differential of generator j contains generator i, which forces
    ``degrees[i] == degrees[j] + 1`` (checked at construction).  Whether
    ``d^2 = 0`` holds is *not* assumed; it is checked on demand so that
    broken inputs can be reported rather than rejected blindly.
    """

    degrees: tuple[int, ...]
    differential: GF2Matrix
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.degrees)
        d = self.differential
        if (d.rows, d.cols) != (n, n):
            raise ShapeMismatch(
                f"differential is {d.rows}x{d.cols} for {n} generators"
            )
        if self.labels is not None and len(self.labels) != n:
            raise ShapeMismatch("one label per generator required")
        for i, j in d.entries():
            if self.degrees[i] != self.degrees[j] + 1:
                raise DegreeViolation(
                    f"entry {self.label(j)} -> {self.label(i)} maps degree"
                    f" {self.degrees[j]} to degree {self.degrees[i]}"
                )

    def __len__(self) -> int:
        return len(self.degrees)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"g{i}"

    def degree_indices(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, k in enumerate(self.degrees):
            out.setdefault(k, []).append(i)
        return dict(sorted(out.items()))

    def verify_square_zero(self) -> SquareZeroReport:
        """Exactly check d^2 = 0; report the first offending pair otherwise.

        The witness is (source generator, offending image component), found
        by scanning source generators in index order and, within a source,
        image components in index order.

        The scan reads d.d one column at a time and each column read visits
        every row, so the check is quadratic in the number of generators,
        the last such cost in the rank path.  A linear scan waits until the
        benchmark bounds the untimed work it does after every pass: until
        then a faster pass lengthens every benchmark run.
        """
        sq = self.differential @ self.differential
        for j in range(len(self.degrees)):
            col = sq.column(j)
            if col:
                i = (col & -col).bit_length() - 1
                return SquareZeroReport(
                    ok=False,
                    witness=(self.label(j), self.label(i)),
                    witness_indices=(j, i),
                )
        return SquareZeroReport(ok=True)

    def cohomology_ranks(self) -> dict[int, int]:
        """Rank of the degree-k cohomology for every degree with generators.

        Counts the unpaired generators of each degree under the pairing
        reduction at a single level; degrees without any keep a zero.
        Raises :class:`NotAComplex` when d^2 != 0.
        """
        _require_square_zero(self)
        out = dict.fromkeys(self.degree_indices(), 0)
        for j, mate in enumerate(_pairing(self, (0,) * len(self))):
            if mate is None:
                out[self.degrees[j]] += 1
        return out


def _require_square_zero(cx: GradedComplex) -> None:
    """Raise :class:`NotAComplex`, naming the witness, when d^2 != 0."""
    report = cx.verify_square_zero()
    if not report.ok:
        raise NotAComplex(
            f"d^2 != 0 (witness {report.witness[0]} -> {report.witness[1]})"
        )


def verify_chain_map(c1: GradedComplex, c2: GradedComplex, phi: GF2Matrix) -> bool:
    """Whether phi (columns = generators of c1) satisfies phi d1 = d2 phi.

    phi must have shape (len(c2), len(c1)) and be degree-preserving.
    """
    if (phi.rows, phi.cols) != (len(c2), len(c1)):
        raise ShapeMismatch(
            f"map is {phi.rows}x{phi.cols}, expected {len(c2)}x{len(c1)}"
        )
    for i, j in phi.entries():
        if c2.degrees[i] != c1.degrees[j]:
            raise DegreeViolation(
                f"map entry {c1.label(j)} -> {c2.label(i)} shifts degree"
                f" {c1.degrees[j]} to {c2.degrees[i]}"
            )
    return phi @ c1.differential == c2.differential @ phi


def mapping_cone(
    c1: GradedComplex, c2: GradedComplex, phi: GF2Matrix
) -> GradedComplex:
    """Mapping cone of a chain map: Cone^k = C1^{k+1} (+) C2^k.

    The differential is the block matrix [[d1, 0], [phi, d2]] acting on the
    shifted copy of C1 followed by C2.
    """
    if not verify_chain_map(c1, c2, phi):
        raise NotChainMap("cannot form the cone of a map that is not a chain map")
    n1, n2 = len(c1), len(c2)
    degrees = tuple(k - 1 for k in c1.degrees) + c2.degrees
    rows = [c1.differential.row(i) for i in range(n1)]
    rows += [phi.row(i) | (c2.differential.row(i) << n1) for i in range(n2)]
    labels = tuple(f"shift[{c1.label(i)}]" for i in range(n1)) + tuple(
        c2.label(i) for i in range(n2)
    )
    return GradedComplex(degrees, GF2Matrix(n1 + n2, n1 + n2, rows), labels)


def is_quasi_iso(c1: GradedComplex, c2: GradedComplex, phi: GF2Matrix) -> bool:
    """Whether a chain map induces an isomorphism on cohomology.

    Decided exactly through acyclicity of the mapping cone: every cone
    generator must be paired.  Raises :class:`NotChainMap` when phi is not
    a chain map, and :class:`NotAComplex` when either differential fails
    d^2 = 0.
    """
    _require_square_zero(c1)
    _require_square_zero(c2)
    cone = mapping_cone(c1, c2, phi)
    # The cone's d^2 is [[d1^2, 0], [phi d1 + d2 phi, d2^2]], which is zero
    # by the two checks above and the chain-map check in mapping_cone, so
    # the cone is not verified again.
    return None not in _pairing(cone, (0,) * len(cone))


@dataclass(frozen=True)
class FilteredComplex:
    """A graded complex with a decreasing filtration by generator levels.

    ``G^p`` is spanned by the generators of level >= p; the differential
    must map each generator to generators of the same or higher level.
    """

    complex: GradedComplex
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.complex)
        if len(self.levels) != n:
            raise ShapeMismatch("one filtration level per generator required")
        for lev in self.levels:
            if lev < 0:
                raise FiltrationViolated(f"negative filtration level {lev}")
        for i, j in self.complex.differential.entries():
            if self.levels[i] < self.levels[j]:
                raise FiltrationViolated(
                    f"entry {self.complex.label(j)} -> {self.complex.label(i)} drops"
                    f" level {self.levels[j]} to {self.levels[i]}"
                )

    @property
    def max_level(self) -> int:
        return max(self.levels) if self.levels else 0


@dataclass(frozen=True)
class SpectralTable:
    """Rank table of the spectral pages of a filtered complex.

    ``pages[r]`` maps (p, q) to the rank of E_r at column p and total
    degree p + q; zero ranks are omitted.  Pages stabilise at
    ``r_stable = max_level + 1`` and ``e_inf`` equals that page.
    """

    pages: tuple[dict[tuple[int, int], int], ...]
    e_inf: dict[tuple[int, int], int]
    max_level: int

    @property
    def r_stable(self) -> int:
        return self.max_level + 1

    def rank(self, r: int, p: int, q: int) -> int:
        if r >= len(self.pages):
            return self.e_inf.get((p, q), 0)
        return self.pages[r].get((p, q), 0)

    def e_inf_rank(self, p: int, q: int) -> int:
        return self.e_inf.get((p, q), 0)


def _pairing(cx: GradedComplex, levels: Sequence[int]) -> list[int | None]:
    """Each generator's mate under the low-pivot reduction (None: unpaired).

    Generators are ordered by (level descending, degree descending, index);
    ``d`` maps each generator into earlier positions of that order, so the
    reduction pairs a generator with the latest generator left in its
    reduced column.
    """
    n = len(cx)
    degrees = cx.degrees
    order = sorted(range(n), key=lambda j: (-levels[j], -degrees[j], j))
    position = [0] * n
    for k, j in enumerate(order):
        position[j] = k
    columns = [0] * n  # by position: bit k stands for generator order[k]
    for i, j in cx.differential.entries():
        columns[position[j]] |= 1 << position[i]
    mate: list[int | None] = [None] * n
    owner: dict[int, int] = {}  # low position -> the reduced column owning it
    for k in range(n):
        col = columns[k]
        while col:
            low = col.bit_length() - 1
            if low not in owner:
                owner[low] = k
                columns[k] = col
                mate[order[low]], mate[order[k]] = order[k], order[low]
                break
            col ^= columns[owner[low]]
    return mate


def spectral_pages(fc: FilteredComplex, r_max: int | None = None) -> SpectralTable:
    """Rank tables of the pages E_0 .. E_max(r_max, stabilisation), plus E_inf.

    Raises :class:`NotAComplex` when d^2 != 0.
    """
    cx = fc.complex
    _require_square_zero(cx)
    levels = fc.levels
    degrees = cx.degrees
    r_stable = fc.max_level + 1
    r_top = r_stable if r_max is None else max(r_max, r_stable)
    # a generator lives on every page E_r with r <= gap; unpaired ones on all
    gaps = [
        r_top if m is None else abs(levels[j] - levels[m])
        for j, m in enumerate(_pairing(cx, levels))
    ]
    by_cell = sorted(range(len(cx)), key=lambda j: (degrees[j], levels[j]))

    def page(r: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for j in by_cell:
            if gaps[j] >= r:
                key = (levels[j], degrees[j] - levels[j])
                out[key] = out.get(key, 0) + 1
        return out

    pages = tuple(page(r) for r in range(r_top + 1))
    return SpectralTable(
        pages=pages, e_inf=dict(pages[r_stable]), max_level=fc.max_level
    )
