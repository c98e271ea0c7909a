"""Exact integer linear algebra: normal forms, sublattices, quotient groups.

All arithmetic is over Python ints (arbitrary precision); there is no
floating point anywhere.  Matrices are immutable tuples of row tuples,
vectors are tuples of ints.  Sublattices are kept in a canonical column
Hermite normal form so that equality of lattices is equality of
representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import CappedComputationError, InputError, InvariantViolationError

if TYPE_CHECKING:
    from .semigroup import Budget

Vec = tuple[int, ...]
Rows = tuple[Vec, ...]


def _as_rows(entries) -> Rows:
    return tuple(tuple(int(x) for x in row) for row in entries)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    entries: Rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = _as_rows(rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix rows")
        return IntMatrix(rows)

    @staticmethod
    def from_cols(cols, ambient: int) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        for c in cols:
            if len(c) != ambient:
                raise InputError("column length does not match ambient rank")
        return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(ambient)))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix dimensions incompatible for product")
        ot = other.transpose().entries
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries)
        )

    def mul_vec(self, v: Vec) -> Vec:
        if self.entries and len(v) != self.cols:
            raise InputError("vector length does not match matrix width")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self.entries) for j, x in enumerate(row) if i != j)


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, U, V) with U*M*V = S.

    S is diagonal with a divisibility chain d1 | d2 | ..., U and V are
    unimodular.  Total; handles empty matrices.  Elimination with a
    smallest-entry pivot as in H. Cohen, A Course in Computational Algebraic
    Number Theory, section 2.4.  Only the forward transforms are kept: every
    caller reads U (coordinates, right-hand sides) or V (kernel columns,
    particular solutions), never an inverse.
    """
    nr, nc = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = _identity_rows(nr)
    V = _identity_rows(nc)

    def row_op(i, j, q):
        # row_i -= q * row_j on A and U
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j on A and V (both are nc wide)
        for row in A + V:
            row[i] -= q * row[j]

    def col_swap(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    n = min(nr, nc)
    t = 0
    while t < n:
        # pivot: smallest nonzero |entry| in the trailing block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            A[t], A[i] = A[i], A[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        dirty = False
        for i in range(t + 1, nr):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                row_op(i, t, q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                col_op(j, t, q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # fold in any trailing entry the pivot does not divide
        d = A[t][t]
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if A[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # adds row `bad` into row t
            continue
        t += 1

    return tuple(IntMatrix(tuple(tuple(r) for r in X)) for X in (A, U, V))


def diagonal_of(S: IntMatrix) -> list[int]:
    return [S.entries[i][i] for i in range(min(S.rows, S.cols))]


def column_hnf(cols: list[Vec], ambient: int) -> tuple[Vec, ...]:
    """Canonical column Hermite form of the lattice spanned by `cols`.

    Returns independent columns; pivots positive, entries to the right of a
    pivot row reduced into [0, pivot).  Equal lattices give equal outputs.
    """
    work = [list(c) for c in cols if any(c)]
    basis: list[list[int]] = []  # maintained in column echelon, pivot rows increasing
    pivots: list[int] = []

    def reduce_in(v: list[int]):
        # driven by the current leading row of v so the echelon shape survives
        while any(v):
            p = next(r for r in range(ambient) if v[r])
            if p not in pivots:
                if v[p] < 0:
                    v = [-x for x in v]
                idx = 0
                while idx < len(pivots) and pivots[idx] < p:
                    idx += 1
                basis.insert(idx, v)
                pivots.insert(idx, p)
                return
            k = pivots.index(p)
            a, b = basis[k][p], v[p]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, basis[k])]
            else:
                g, x, y = _xgcd(a, b)
                a_g, b_g = a // g, b // g
                old = basis[k]
                basis[k] = [x * o + y * w for o, w in zip(old, v)]
                v = [-b_g * o + a_g * w for o, w in zip(old, v)]

    for c in work:
        reduce_in(c)
    # full reduction: entries in pivot rows of later columns into [0, pivot);
    # ascending pivot order so later steps touch only deeper rows
    for k in range(len(basis)):
        p = pivots[k]
        for m in range(k):
            if basis[m][p] != 0:
                q = basis[m][p] // basis[k][p]
                for r in range(ambient):
                    basis[m][r] -= q * basis[k][r]
    return tuple(tuple(b) for b in basis)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of Z^ambient in canonical column Hermite form."""

    ambient: int
    basis: tuple[Vec, ...]  # independent columns, canonical

    @staticmethod
    def from_columns(cols, ambient: int) -> "Sublattice":
        cols = [tuple(int(x) for x in c) for c in cols]
        for c in cols:
            if len(c) != ambient:
                raise InputError("column length does not match ambient rank")
        return Sublattice(ambient, column_hnf(cols, ambient))

    @staticmethod
    def zero(ambient: int) -> "Sublattice":
        return Sublattice(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Sublattice":
        return Sublattice.from_columns(
            [tuple(1 if i == j else 0 for i in range(ambient)) for j in range(ambient)], ambient
        )

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix.from_cols(list(self.basis), self.ambient)

    def coordinates(self, v: Vec) -> Vec | None:
        """Coefficients of v in the basis, or None when v is not in the lattice.

        Back-substitution along the pivots: each basis column vanishes above
        its pivot row, and the pivot rows increase."""
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient rank")
        v = list(v)
        coeffs = []
        for col in self.basis:
            p = next(r for r in range(self.ambient) if col[r])
            if v[p] % col[p] != 0:
                return None
            q = v[p] // col[p]
            coeffs.append(q)
            for r in range(p, self.ambient):
                v[r] -= q * col[r]
        return None if any(v) else tuple(coeffs)

    def contains(self, v: Vec) -> bool:
        return self.coordinates(v) is not None

    def contains_lattice(self, other: "Sublattice") -> bool:
        self._check_ambient(other)
        return all(self.contains(c) for c in other.basis)

    def _check_ambient(self, other: "Sublattice"):
        if self.ambient != other.ambient:
            raise InputError("sublattices live in different ambient ranks")

    def sum(self, other: "Sublattice") -> "Sublattice":
        self._check_ambient(other)
        return Sublattice.from_columns(list(self.basis) + list(other.basis), self.ambient)

    def intersect(self, other: "Sublattice") -> "Sublattice":
        self._check_ambient(other)
        if not self.basis or not other.basis:
            return Sublattice.zero(self.ambient)
        stacked = IntMatrix.from_cols(
            list(self.basis) + [tuple(-x for x in c) for c in other.basis], self.ambient
        )
        ker = kernel_basis(stacked)
        r = self.rank
        bmat = self.basis_matrix()
        cols = [bmat.mul_vec(k[:r]) for k in ker]
        return Sublattice.from_columns(cols, self.ambient)

    def scale(self, m: int) -> "Sublattice":
        return Sublattice.from_columns([tuple(m * x for x in c) for c in self.basis], self.ambient)


def _kernel_columns(S: IntMatrix, V: IntMatrix) -> list[Vec]:
    """Columns of V at the zero (or missing) diagonal entries of S = U*M*V."""
    d = diagonal_of(S)
    return [V.col(j) for j in range(V.cols) if j >= len(d) or d[j] == 0]


def kernel_basis(M: IntMatrix) -> list[Vec]:
    """Columns spanning {x : M x = 0} over Z."""
    S, _U, V = smith_normal_form(M)
    return _kernel_columns(S, V)


def solve_diophantine(M: IntMatrix, b: Vec) -> tuple[Vec, list[Vec]] | None:
    """Solve M x = b over Z: (particular solution, kernel columns) or None.

    One Smith factorization U*M*V = S gives both: y = U b / diag(S) entrywise
    and x0 = V y, and the kernel is spanned by the columns of V at the zero
    diagonal entries (a basis, not in Hermite form)."""
    if len(b) != M.rows:
        raise InputError("right-hand side length does not match matrix")
    S, U, V = smith_normal_form(M)
    c = U.mul_vec(b)
    d = diagonal_of(S)
    y = [0] * M.cols
    for i in range(M.rows):
        di = d[i] if i < len(d) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return V.mul_vec(tuple(y)), _kernel_columns(S, V)


def matrix_rank(rows: list[Vec]) -> int:
    """Rank of the row span: the length of its Hermite basis."""
    return len(column_hnf(rows, len(rows[0]) if rows else 0))


@dataclass(frozen=True)
class QuotientGroup:
    """Finitely generated abelian group Z^ambient / L with explicit coordinates.

    Exposes canonical coordinates, element orders, and invariant factors
    (0 encodes a free factor).
    """

    ambient: int
    lattice: Sublattice
    _u: IntMatrix = field(repr=False, compare=False)
    _diag: tuple[int, ...] = field(repr=False, compare=False)

    @staticmethod
    def of(lattice: Sublattice) -> "QuotientGroup":
        S, U, _V = smith_normal_form(lattice.basis_matrix())
        d = tuple(abs(x) for x in diagonal_of(S))
        return QuotientGroup(lattice.ambient, lattice, U, d)

    @property
    def transform(self) -> IntMatrix:
        """Unimodular U with y = U v the invariant-factor coordinates."""
        return self._u

    @property
    def diag(self) -> tuple[int, ...]:
        """Moduli of the first coordinates; coordinates past these are free."""
        return self._diag

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Nontrivial torsion factors in divisibility order, then 0 per free factor."""
        tor = [d for d in self._diag if d > 1]
        free = self.ambient - len(self._diag)
        return tuple(tor) + (0,) * free

    def canonical(self, v: Vec) -> Vec:
        """Canonical coordinates of v + L in the invariant-factor basis."""
        y = self._u.mul_vec(v)
        out = []
        for i in range(self.ambient):
            if i < len(self._diag):
                d = self._diag[i]
                out.append(y[i] % d if d else y[i])
            else:
                out.append(y[i])
        return tuple(out)

    def order_of(self, v: Vec) -> int | None:
        """Order of v + L; None means infinite."""
        y = self._u.mul_vec(v)
        m = 1
        for i in range(self.ambient):
            c = y[i]
            if i < len(self._diag):
                d = self._diag[i]
                m = lcm(m, d // gcd(d, c)) if d else (m if c == 0 else None)
            else:
                if c != 0:
                    return None
            if m is None:
                return None
        return m


def class_order(v: Vec, lattice: Sublattice) -> int | None:
    """Smallest m >= 1 with m*v in the lattice; None if no such m exists."""
    if len(v) != lattice.ambient:
        raise InputError("vector length does not match ambient rank")
    return QuotientGroup.of(lattice).order_of(v)


def quotient_structure(generators: list[Vec], denominator: Sublattice) -> tuple[int, ...]:
    """Invariant factors of (span(generators) + D) / D inside Z^n / D.

    The subgroup generated by the given classes; factors as in
    QuotientGroup.invariant_factors but with free factors only when the
    subgroup is infinite.
    """
    n = denominator.ambient
    num = Sublattice.from_columns(list(generators) + list(denominator.basis), n)
    if num.rank == 0:
        return ()
    # express the denominator in the numerator basis: D = N * X
    xcols = [num.coordinates(c) for c in denominator.basis]
    if None in xcols:
        raise InvariantViolationError("denominator not inside numerator lattice")
    return QuotientGroup.of(Sublattice.from_columns(xcols, num.rank)).invariant_factors


FM_MAX_ROWS = 20000


def _cone_constraints(x0: Vec, cols: list[Vec]) -> set[tuple[Vec, int]]:
    """The rows coeff . y + const >= 0 of {y : x0 + cols*y >= 0}."""
    r = len(cols)
    return {
        _normalize_constraint(tuple(cols[j][i] for j in range(r)), x0[i]) for i in range(len(x0))
    }


def _fm_eliminate(
    cons: set[tuple[Vec, int]], r: int, keep: int | None = None
) -> set[tuple[Vec, int]]:
    """Fourier-Motzkin: project {y : coeff . y + const >= 0} onto variable
    `keep` (onto nothing when None) over exact integers, scaling rows by
    positive factors only."""
    for var in range(r):
        if var == keep:
            continue
        pos, neg, zer = [], [], []
        for coeff, const in cons:
            a = coeff[var]
            (pos if a > 0 else neg if a < 0 else zer).append((coeff, const))
        new = set(zer)
        for pc, pk in pos:
            for qc, qk in neg:
                ap, aq = pc[var], -qc[var]
                coeff = tuple(aq * pc[j] + ap * qc[j] for j in range(r))
                new.add(_normalize_constraint(coeff, aq * pk + ap * qk))
                if len(new) > FM_MAX_ROWS:
                    raise CappedComputationError("Fourier-Motzkin elimination (rows)", FM_MAX_ROWS)
        cons = new
    return cons


def rational_shifted_cone_nonempty(x0: Vec, cols: list[Vec]) -> bool:
    """Is {y rational : x0 + cols*y >= 0 componentwise} nonempty?

    The full elimination leaves only constant rows.  `weight_unit_lattice`
    decides each unit weight with it (a Farkas test), for the semigroup and
    for each deep face behind the qualified characters, and it is the
    reference route for the emptiness that `coset_orthant_search` detects
    in its first projection."""
    cons = _fm_eliminate(_cone_constraints(x0, cols), len(cols))
    return all(const >= 0 for _coeff, const in cons)


def _integer_interval(rows) -> tuple[int | None, int | None] | None:
    """Integer range of t over {t : c*t + k >= 0 for every (c, k) in rows}.

    Returns (lo, hi) with None for an unbounded side, or None when the
    range is empty.
    """
    lo: int | None = None
    hi: int | None = None
    for c, k in rows:
        if c == 0:
            if k < 0:
                return None
        elif c > 0:
            b = ceil_frac(-k, c)
            lo = b if lo is None else max(lo, b)
        else:
            b = _floor_frac(k, -c)
            hi = b if hi is None else min(hi, b)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def ceil_frac(num: int, den: int) -> int:
    if den <= 0:
        raise InvariantViolationError("rounding a fraction with a nonpositive denominator")
    return -((-num) // den)


def _floor_frac(num: int, den: int) -> int:
    if den <= 0:
        raise InvariantViolationError("rounding a fraction with a nonpositive denominator")
    return num // den


FOUND = "found"
EMPTY = "empty"
CAPPED = "capped"
UNBOUNDED = "unbounded"


def coset_orthant_search(x0: Vec, cols: list[Vec], budget: Budget) -> tuple[str, Vec | None]:
    """Search {y integer : x0 + cols*y >= 0} by exact interval propagation.

    Returns ("found", point in the ambient), ("empty", None) when the region
    is empty or a polytope exhausted without a point (a complete decision),
    ("unbounded", None) when some variable range is infinite (the search
    does not apply), or ("capped", None) when `budget.max_nodes` nodes ran out.
    Fourier-Motzkin projection is exact over Q, so an empty region already
    shows in the first projection.  With one column the projection is the
    region itself, and its lower end (else its upper end, else 0) is the point.
    """
    n = len(x0)
    r = len(cols)
    if r == 0:
        return (FOUND, tuple(x0)) if all(v >= 0 for v in x0) else (EMPTY, None)
    cons = _cone_constraints(x0, cols)
    ranges = []
    for j in range(r):
        b = _integer_interval((coeff[j], const) for coeff, const in _fm_eliminate(cons, r, j))
        if b is None:
            return EMPTY, None
        lo, hi = b
        if r == 1:
            t = lo if lo is not None else hi if hi is not None else 0
            return FOUND, tuple(a + t * c for a, c in zip(x0, cols[0]))
        if lo is None or hi is None:
            return UNBOUNDED, None
        ranges.append((lo, hi))
    order = sorted(range(r), key=lambda j: ranges[j][1] - ranges[j][0])
    left = [budget.max_nodes]

    def dfs(k: int, x: list[int]) -> Vec | None:
        if k == r:
            left[0] -= 1
            return tuple(x) if all(v >= 0 for v in x) else None
        j = order[k]
        lo, hi = ranges[j]
        rest = order[k + 1 :]
        for val in range(lo, hi + 1):
            left[0] -= 1
            if left[0] <= 0:
                return None
            y = [x[i] + val * cols[j][i] for i in range(n)]
            # optimistic repair check with the unassigned columns
            ok = True
            for i in range(n):
                best = y[i]
                for jj in rest:
                    c = cols[jj][i]
                    lo2, hi2 = ranges[jj]
                    best += max(c * lo2, c * hi2)
                if best < 0:
                    ok = False
                    break
            if not ok:
                continue
            got = dfs(k + 1, y)
            if got is not None:
                return got
            if left[0] <= 0:
                return None
        return None

    got = dfs(0, list(x0))
    if got is not None:
        return FOUND, got
    return (CAPPED, None) if left[0] <= 0 else (EMPTY, None)


def _normalize_constraint(coeff: Vec, const: int) -> tuple[Vec, int]:
    g = 0
    for c in coeff:
        g = gcd(g, c)
    g = gcd(g, const)
    if g > 1:
        return tuple(c // g for c in coeff), const // g
    return coeff, const
