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
from operator import mul
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
        if any(len(c) != ambient for c in cols):
            raise InputError("column length does not match ambient rank")
        return IntMatrix(tuple(zip(*cols)) if cols else ((),) * ambient)

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def mul_vec(self, v: Vec) -> Vec:
        if self.entries and len(v) != self.cols:
            raise InputError("vector length does not match matrix width")
        return tuple([sum(map(mul, row, v)) for row in self.entries])


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _frozen(rows: list[list[int]]) -> IntMatrix:
    return IntMatrix(tuple(map(tuple, rows)))


def _in_smith_form(entries: Rows) -> bool:
    """Zero off the diagonal, and a diagonal of nonnegative entries, the
    positive ones first, each dividing the next."""
    prev = 1
    for i, row in enumerate(entries):
        d = row[i] if i < len(row) else 0
        if d < 0 or (d % prev if prev else d) or any(row[:i]) or any(row[i + 1 :]):
            return False
        prev = d
    return True


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, U, V) with U*M*V = S.

    S is diagonal with a divisibility chain d1 | d2 | ..., U and V are
    unimodular.  Total; handles empty matrices.  Elimination with a
    smallest-entry pivot as in H. Cohen, A Course in Computational Algebraic
    Number Theory, section 2.4.  Only the forward transforms are kept: every
    caller reads U (coordinates, right-hand sides) or V (kernel columns,
    particular solutions), never an inverse.

    An input already in Smith form (`_in_smith_form`, empty matrices
    included) returns (M, I, I) at once.  The elimination would change
    nothing there: the smallest nonzero entry of each trailing block is its
    first diagonal entry, positive, with zeros beside it and dividing every
    entry after it, and a zero trailing block ends the loop.  So S, U and V
    are the ones it would give.
    """
    nr, nc = M.rows, M.cols
    if _in_smith_form(M.entries):
        return M, _frozen(_identity_rows(nr)), _frozen(_identity_rows(nc))
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

    return _frozen(A), _frozen(U), _frozen(V)


def diagonal_of(S: IntMatrix) -> list[int]:
    return [S.entries[i][i] for i in range(min(S.rows, S.cols))]


def column_hnf(cols: list[Vec], ambient: int) -> tuple[Vec, ...]:
    """Canonical column Hermite form of the lattice spanned by `cols`.

    Returns independent columns; pivots positive, entries to the right of a
    pivot row reduced into [0, pivot).  Equal lattices give equal outputs.
    """
    echelon: dict[int, list[int]] = {}  # pivot row -> column vanishing above it

    for v in cols:
        # driven by the leading row of v so the echelon shape survives; a
        # cleared row stays clear, so the scan resumes below it
        p = 0
        while True:
            while p < ambient and not v[p]:
                p += 1
            if p == ambient:
                break
            col = echelon.get(p)
            if col is None:
                echelon[p] = list(v) if v[p] > 0 else [-x for x in v]
                break
            a, b = col[p], v[p]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, col)]
            else:
                g, x, y = _xgcd(a, b)
                a_g, b_g = a // g, b // g
                echelon[p] = [x * o + y * w for o, w in zip(col, v)]
                v = [-b_g * o + a_g * w for o, w in zip(col, v)]
            p += 1
    pivots = sorted(echelon)
    basis = [echelon[p] for p in pivots]
    # full reduction: entries in pivot rows of later columns into [0, pivot);
    # ascending pivot order so later steps touch only deeper rows
    for k, p in enumerate(pivots):
        for m in range(k):
            q = basis[m][p] // basis[k][p]
            if q:
                basis[m] = [x - q * y for x, y in zip(basis[m], basis[k])]
    return tuple(map(tuple, basis))


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
        if any(len(c) != ambient for c in cols):
            raise InputError("column length does not match ambient rank")
        return Sublattice(ambient, column_hnf(cols, ambient))

    @staticmethod
    def zero(ambient: int) -> "Sublattice":
        return Sublattice(ambient, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot (leading nonzero) row of each basis column."""
        return tuple(next(r for r, x in enumerate(col) if x) for col in self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix.from_cols(self.basis, self.ambient)

    def coordinates(self, v: Vec) -> Vec | None:
        """Coefficients of v in the basis, or None when v is not in the lattice.

        Back-substitution along the pivots: each basis column vanishes above
        its pivot row, and the pivot rows increase."""
        if len(v) != self.ambient:
            raise InputError("vector length does not match ambient rank")
        v = list(v)
        coeffs = []
        for col, p in zip(self.basis, self.pivots):
            q, rem = divmod(v[p], col[p])
            if rem:
                return None
            coeffs.append(q)
            if q:
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
    """A basis of {x : M x = 0} over Z, from one column Hermite form.

    The columns (M e_j ; e_j) span the lattice {(M x ; x)}.  In its Hermite
    form a column whose pivot lies below row M.rows is zero on the top
    rows, so its lower half x has M x = 0.  These span the kernel: in the
    combination of Hermite columns that gives (0 ; x), the column with the
    topmost pivot and a nonzero coefficient is alone in its pivot row, so
    no column with a pivot among the top rows takes part.  The basis is not
    the Smith route's, but its one engine reader, `Sublattice.intersect`,
    puts what it spans in canonical form, so intersections do not change."""
    nr, nc = M.rows, M.cols
    stacked = [
        col + (0,) * j + (1,) + (0,) * (nc - j - 1) for j, col in enumerate(zip(*M.entries))
    ]
    return [c[nr:] for c in column_hnf(stacked, nr + nc) if not any(c[:nr])]


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
    # unimodular U with y = U v the invariant-factor coordinates
    transform: IntMatrix = field(repr=False, compare=False)
    # moduli of the first coordinates; coordinates past these are free
    diag: tuple[int, ...] = field(repr=False, compare=False)

    @staticmethod
    def of(lattice: Sublattice) -> "QuotientGroup":
        S, U, _V = smith_normal_form(lattice.basis_matrix())
        d = tuple(abs(x) for x in diagonal_of(S))
        return QuotientGroup(lattice.ambient, lattice, U, d)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Nontrivial torsion factors in divisibility order, then 0 per free factor."""
        tor = [d for d in self.diag if d > 1]
        free = self.ambient - len(self.diag)
        return tuple(tor) + (0,) * free

    def canonical(self, v: Vec) -> Vec:
        """Canonical coordinates of v + L in the invariant-factor basis."""
        y = self.transform.mul_vec(v)
        out = []
        for i in range(self.ambient):
            if i < len(self.diag):
                d = self.diag[i]
                out.append(y[i] % d if d else y[i])
            else:
                out.append(y[i])
        return tuple(out)

    def order_of(self, v: Vec) -> int | None:
        """Order of v + L; None means infinite."""
        y = self.transform.mul_vec(v)
        m = 1
        for i in range(self.ambient):
            c = y[i]
            if i < len(self.diag):
                d = self.diag[i]
                m = lcm(m, d // gcd(d, c)) if d else (m if c == 0 else None)
            else:
                if c != 0:
                    return None
            if m is None:
                return None
        return m


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


def _fm_eliminate(cons: set[tuple[Vec, int]], var: int) -> set[tuple[Vec, int]]:
    """One Fourier-Motzkin step: project {y : coeff . y + const >= 0} along
    variable `var` over exact integers, scaling rows by positive factors
    only.  The rows keep their length, with a zero at `var`."""
    pos, neg, zer = [], [], []
    for coeff, const in cons:
        a = coeff[var]
        (pos if a > 0 else neg if a < 0 else zer).append((coeff, const))
    new = set(zer)
    for pc, pk in pos:
        for qc, qk in neg:
            ap, aq = pc[var], -qc[var]
            coeff = tuple(aq * p + ap * q for p, q in zip(pc, qc))
            new.add(_normalize_constraint(coeff, aq * pk + ap * qk))
            if len(new) > FM_MAX_ROWS:
                raise CappedComputationError("Fourier-Motzkin elimination (rows)", FM_MAX_ROWS)
    return new


def rational_shifted_cone_nonempty(x0: Vec, cols: list[Vec]) -> bool:
    """Is {y rational : x0 + cols*y >= 0 componentwise} nonempty?

    Eliminating every variable leaves only constant rows.  The engine
    never calls it: it is the Farkas test of the reference route
    `oracles.weight_unit_lattice`, and the reference route for the
    emptiness that `coset_orthant_search` reads off its projection onto
    y_0."""
    cons = _cone_constraints(x0, cols)
    for var in range(len(cols)):
        cons = _fm_eliminate(cons, var)
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
            b = k // -c
            hi = b if hi is None else min(hi, b)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def ceil_frac(num: int, den: int) -> int:
    if den <= 0:
        raise InvariantViolationError("rounding a fraction with a nonpositive denominator")
    return -((-num) // den)


FOUND = "found"
EMPTY = "empty"
CAPPED = "capped"
UNBOUNDED = "unbounded"


def coset_orthant_search(x0: Vec, cols: list[Vec], budget: Budget) -> tuple[str, Vec | None]:
    """Search {y integer : x0 + cols*y >= 0} along one Fourier-Motzkin chain.

    Returns ("found", point in the ambient), ("empty", None) when the region
    is empty or a polytope exhausted without a point (a complete decision),
    ("unbounded", None) when the region is unbounded (the search does not
    apply), or ("capped", None) when `budget.max_nodes` nodes ran out.
    Eliminating y_(r-1), ..., y_1 once leaves the projections levels[k] of
    the region onto y_0..y_k, exact over Q.  So an empty region has an
    empty integer interval on levels[0], and with one column that interval
    is the region: its lower end (else its upper end, else 0) is the point.
    A level with no row of one sign on its last variable lets that variable
    run off to infinity; otherwise the walk fixes y_0, y_1, ... in turn to
    the integers its level allows given the values fixed so far, one node
    per value, and every leaf is a point of the region (the last level).
    """
    r = len(cols)
    if r == 0:
        return (FOUND, tuple(x0)) if all(v >= 0 for v in x0) else (EMPTY, None)
    levels = [_cone_constraints(x0, cols)]
    for var in range(r - 1, 0, -1):
        levels.insert(0, _fm_eliminate(levels[0], var))

    def interval(y: Vec) -> tuple[int | None, int | None] | None:
        k = len(y)
        return _integer_interval((c[k], const + sum(map(mul, c, y))) for c, const in levels[k])

    b = interval(())
    if b is None:
        return EMPTY, None
    if r == 1:
        lo, hi = b
        t = lo if lo is not None else hi if hi is not None else 0
        return FOUND, tuple(a + t * c for a, c in zip(x0, cols[0]))
    # a level leaves its last variable unbounded on one side
    if any(len({c[k] > 0 for c, _ in rows if c[k]}) < 2 for k, rows in enumerate(levels)):
        return UNBOUNDED, None
    left = budget.max_nodes

    def walk(y: Vec) -> Vec | None:
        nonlocal left
        b = interval(y)
        if b is None:
            return None
        for val in range(b[0], b[1] + 1):
            left -= 1
            if left <= 0:
                return None
            got = y + (val,) if len(y) == r - 1 else walk(y + (val,))
            if got is not None or left <= 0:
                return got
        return None

    y = walk(())
    if y is None:
        return (CAPPED, None) if left <= 0 else (EMPTY, None)
    return FOUND, tuple(a + sum(v * c[i] for v, c in zip(y, cols)) for i, a in enumerate(x0))


def _normalize_constraint(coeff: Vec, const: int) -> tuple[Vec, int]:
    g = 0
    for c in coeff:
        g = gcd(g, c)
    g = gcd(g, const)
    if g > 1:
        return tuple(c // g for c in coeff), const // g
    return coeff, const
