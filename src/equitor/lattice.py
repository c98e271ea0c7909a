"""Exact integer linear algebra: normal forms, sublattices, quotient groups.

All arithmetic is over Python ints (arbitrary precision); there is no
floating point anywhere.  Matrices are immutable tuples of row tuples,
vectors are tuples of ints.  Sublattices are kept in a canonical column
Hermite normal form so that equality of lattices is equality of
representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = _as_rows(rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise InputError("ragged matrix rows")
        if not rows and cols is not None:
            # zero-row matrix still remembers nothing; width is implied by use
            pass
        return IntMatrix(rows)

    @staticmethod
    def from_cols(cols, ambient: int) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        for c in cols:
            if len(c) != ambient:
                raise InputError("column length does not match ambient rank")
        return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(ambient)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

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


def _list_matrix(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.entries]


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, U, V) with U*M*V = S.

    S is diagonal with a divisibility chain d1 | d2 | ..., U and V are
    unimodular.  Total; handles empty matrices.
    """
    S, U, V, _, _ = _snf_full(M)
    return S, U, V


def _snf_full(M: IntMatrix):
    """SNF with transforms and their inverses: U*M*V = S, Uinv*U = I, V*Vinv = I."""
    nr, nc = M.rows, M.cols
    A = _list_matrix(M)
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    Ui = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    Vi = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):
        # row_i -= q * row_j ; update U (left) and Ui (inverse: col op).
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        for r in range(nr):
            Ui[r][j] += q * Ui[r][i]

    def col_op(i, j, q):
        # col_i -= q * col_j ; update V (right) and Vi (inverse: row op).
        for r in range(nr):
            A[r][i] -= q * A[r][j]
        for r in range(nc):
            V[r][i] -= q * V[r][j]
        Vi[j] = [a + q * b for a, b in zip(Vi[j], Vi[i])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(nr):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def col_swap(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in range(nr):
            Ui[r][i] = -Ui[r][i]

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
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if A[t][t] < 0:
            row_negate(t)
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

    Sm = IntMatrix(tuple(tuple(r) for r in A))
    return (
        Sm,
        IntMatrix(tuple(tuple(r) for r in U)),
        IntMatrix(tuple(tuple(r) for r in V)),
        IntMatrix(tuple(tuple(r) for r in Ui)),
        IntMatrix(tuple(tuple(r) for r in Vi)),
    )


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

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient rank")
        v = list(v)
        pivots = [next(r for r in range(self.ambient) if col[r]) for col in self.basis]
        for col, p in zip(self.basis, pivots):
            if v[p] % col[p] != 0:
                return False
            q = v[p] // col[p]
            for r in range(self.ambient):
                v[r] -= q * col[r]
        return not any(v)

    def contains_lattice(self, other: "Sublattice") -> bool:
        self._check_ambient(other)
        return all(self.contains(c) for c in other.basis)

    def _check_ambient(self, other: "Sublattice"):
        if self.ambient != other.ambient:
            raise InputError("sublattices live in different ambient ranks")

    @cached_property
    def is_saturated(self) -> bool:
        return self == self.saturate()

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

    def saturate(self) -> "Sublattice":
        """Smallest saturated sublattice containing this one: (Q-span) ∩ Z^n."""
        if not self.basis:
            return self
        S, U, V, Ui, Vi = _snf_full(self.basis_matrix())
        d = diagonal_of(S)
        r = sum(1 for x in d if x != 0)
        cols = [Ui.col(i) for i in range(r)]
        return Sublattice.from_columns(cols, self.ambient)


def kernel_basis(M: IntMatrix) -> list[Vec]:
    """Columns spanning {x : M x = 0} over Z."""
    if M.cols == 0:
        return []
    if M.rows == 0:
        return [tuple(1 if i == j else 0 for i in range(M.cols)) for j in range(M.cols)]
    S, U, V, Ui, Vi = _snf_full(M)
    d = diagonal_of(S)
    out = []
    for j in range(M.cols):
        if j >= len(d) or d[j] == 0:
            out.append(V.col(j))
    return out


def solve_diophantine(M: IntMatrix, b: Vec) -> tuple[Vec, Sublattice] | None:
    """Solve M x = b over Z: (particular solution, kernel lattice) or None."""
    if len(b) != M.rows:
        raise InputError("right-hand side length does not match matrix")
    ker = Sublattice.from_columns(kernel_basis(M), M.cols)
    if M.cols == 0:
        return ((), ker) if all(x == 0 for x in b) else None
    S, U, V, Ui, Vi = _snf_full(M)
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
    x0 = V.mul_vec(tuple(y))
    return x0, ker


def matrix_rank(rows: list[Vec]) -> int:
    """Rank of the row span, exact integer elimination."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0 and (piv is None or abs(work[i][col]) < abs(work[piv][col])):
                piv = i
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        # clear the column below using exact row operations
        again = False
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                q = work[i][col] // work[rank][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[rank])]
                if work[i][col] != 0:
                    again = True
        if again:
            continue
        work = [r for r in work if any(r)]
        rank += 1
        col += 1
    return rank


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
        n = lattice.ambient
        if lattice.rank == 0:
            return QuotientGroup(n, lattice, IntMatrix.identity(n), ())
        S, U, V, Ui, Vi = _snf_full(lattice.basis_matrix())
        d = tuple(abs(x) for x in diagonal_of(S))
        return QuotientGroup(n, lattice, U, d)

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

    @property
    def order(self) -> int | None:
        """Group order; None means infinite."""
        if self.ambient > len(self._diag):
            return None
        out = 1
        for d in self._diag:
            out *= d
        return out

    @property
    def exponent(self) -> int | None:
        if self.ambient > len(self._diag):
            return None
        return lcm(*self._diag) if self._diag else 1

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
    nmat = num.basis_matrix()
    # express denominator in the numerator basis: D = N * X
    xcols = []
    for c in denominator.basis:
        sol = solve_diophantine(nmat, c)
        if sol is None:
            raise InvariantViolationError("denominator not inside numerator lattice")
        xcols.append(sol[0])
    inner = Sublattice.from_columns(xcols, num.rank)
    q = QuotientGroup.of(inner)
    return q.invariant_factors


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
    """Is {y rational : x0 + cols*y >= 0 componentwise} nonempty?"""
    cons = _fm_eliminate(_cone_constraints(x0, cols), len(cols))
    return all(const >= 0 for _coeff, const in cons)


def _fm_variable_bounds(
    cons: set[tuple[Vec, int]], r: int, keep: int
) -> tuple[int | None, int | None] | None:
    """Integer bounds of variable `keep` over {y : coeff . y + const >= 0}.

    Returns (lo, hi) with None for an unbounded side, or None when the
    rational region is empty.
    """
    lo: int | None = None
    hi: int | None = None
    for coeff, const in _fm_eliminate(cons, r, keep):
        c = coeff[keep]
        if c == 0:
            if const < 0:
                return None
        elif c > 0:
            # y >= -const/c: integer lower bound
            b = _ceil_frac(-const, c)
            lo = b if lo is None else max(lo, b)
        else:
            b = _floor_frac(const, -c)
            hi = b if hi is None else min(hi, b)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _ceil_frac(num: int, den: int) -> int:
    if den <= 0:
        raise InvariantViolationError("rounding a fraction with a nonpositive denominator")
    return -((-num) // den)


def _floor_frac(num: int, den: int) -> int:
    if den <= 0:
        raise InvariantViolationError("rounding a fraction with a nonpositive denominator")
    return num // den


def coset_interval_point(x0: Vec, col: Vec) -> Vec | None:
    """Integer t with x0 + t*col >= 0 (rank-one coset), or None; exact."""
    lo: int | None = None
    hi: int | None = None
    for a, c in zip(x0, col):
        if c == 0:
            if a < 0:
                return None
        elif c > 0:
            b = _ceil_frac(-a, c)
            lo = b if lo is None else max(lo, b)
        else:
            b = _floor_frac(a, -c)
            hi = b if hi is None else min(hi, b)
    if lo is None:
        t = hi if hi is not None else 0
    elif hi is None:
        t = lo
    elif lo <= hi:
        t = lo
    else:
        return None
    return tuple(a + t * c for a, c in zip(x0, col))


FOUND = "found"
EMPTY = "empty"
CAPPED = "capped"
UNBOUNDED = "unbounded"


def coset_orthant_search(x0: Vec, cols: list[Vec], budget: Budget) -> tuple[str, Vec | None]:
    """Search {y integer : x0 + cols*y >= 0} by exact interval propagation.

    Returns ("found", point in the ambient), ("empty", None) when the region
    is a polytope exhausted without a point (a complete decision),
    ("unbounded", None) when some variable range is infinite (the search
    does not apply), or ("capped", None) when `budget.max_nodes` nodes ran out.
    """
    n = len(x0)
    r = len(cols)
    if r == 0:
        return (FOUND, tuple(x0)) if all(v >= 0 for v in x0) else (EMPTY, None)
    cons = _cone_constraints(x0, cols)
    ranges = []
    for j in range(r):
        b = _fm_variable_bounds(cons, r, j)
        if b is None:
            return EMPTY, None
        lo, hi = b
        if lo is None or hi is None:
            return UNBOUNDED, None
        if lo > hi:
            return EMPTY, None
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
