"""Affine semigroups cut out of Z_0^n by homogeneous congruences, with the
diagonalizable-group action recorded as one character weight per variable.

Hilbert bases and integer feasibility are computed by a completion solver
(Contejean-Devie) over exact integers; facets of the cone come from the
coordinate hyperplanes, which support every facet because the cone is the
intersection of an orthant with a subspace.

A fiber query (`fiber_sample`) has one decision path.  Its congruence,
weight and bound rows are lifted to equations over slack variables, and a
zero right-hand side is answered by the origin.  One Smith solve gives a
particular integer solution x0 and a kernel basis, or shows there is no
integer solution.  A nonnegative x0 is the answer.  Otherwise the kernel is
put in Hermite form and `coset_orthant_search` walks the coset in the
orthant; it decides exactly when that region is empty or bounded, rank one
included.  Only an unbounded region falls back to the completion solver on
the homogenized system.

The solver's search is breadth-first by 1-norm over nodes x >= 0 with
residual v = A x, stepping along e_j when v . c_j < 0 (c_j the columns of
A).  Each node carries g = (v . c_j)_j instead of v: the step test reads
g[j] < 0, and the child x + e_j carries g + G[j] with the Gram matrix
G[i][j] = c_i . c_j.  The solution test g == 0 is exact, because v lies in
the column space of A, so A^T v = 0 gives v . v = 0.  A node x on the
frontier is dominated by no solution of smaller norm, nor by one of equal
norm (that would be x itself, and x is no solution).  So a solution s <= x
+ e_j must have s[j] = x[j] + 1, and the dominance test only looks at the
solutions indexed under (j, x[j] + 1).  All nodes of one level share their
norm, so duplicates are looked up within the level only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import add, ge

from .errors import CappedComputationError, InputError, InvariantViolationError
from .lattice import (
    IntMatrix,
    Sublattice,
    CAPPED,
    EMPTY,
    FOUND,
    coset_orthant_search,
    matrix_rank,
    solve_diophantine,
)

Vec = tuple[int, ...]


@dataclass(eq=False)
class Budget:
    """The solver caps and memo tables of one analysis.

    `max_norm` bounds the completion solver's breadth-first depth;
    `max_nodes` bounds the candidates of the completion solver and the
    nodes of the coset search.  Every solver, sampler, oracle and divisor
    context takes the budget as a required argument, and these are the
    only memo tables (semigroups, fiber points, weight slices) in the
    engine: they live and die with the budget, so no result depends on
    what an earlier analysis computed or under which caps.

    Two deterministic counters record the completion solver's work:
    `nodes` sums its candidates over all calls, and `norm_reached` is the
    deepest breadth-first level it opened.
    """

    max_norm: int = 64
    max_nodes: int = 10**6
    semigroups: dict = field(default_factory=dict, repr=False)
    fibers: dict = field(default_factory=dict, repr=False)
    slices: dict = field(default_factory=dict, repr=False)
    nodes: int = 0
    norm_reached: int = 0


@dataclass(frozen=True)
class WeightedAction:
    """Diagonalizable group acting diagonally on K^n, with a quotient semigroup.

    The character group has `free_rank` copies of Z followed by Z/m for each
    m in `torsion_moduli`.  Each variable carries one weight.  The
    congruences (coeffs, modulus) carve the semigroup out of Z_0^n; modulus 0
    means the exact equation coeffs . a = 0.
    """

    ambient_dim: int
    free_rank: int
    torsion_moduli: tuple[int, ...]
    weights: tuple[Vec, ...]
    congruences: tuple[tuple[Vec, int], ...] = ()

    def __post_init__(self):
        if self.free_rank < 0 or self.ambient_dim < 0:
            raise InputError("negative dimensions")
        if any(m < 2 for m in self.torsion_moduli):
            raise InputError("torsion moduli must be >= 2")
        if len(self.weights) != self.ambient_dim:
            raise InputError("need one weight per variable")
        k = self.char_length
        object.__setattr__(
            self, "weights", tuple(self.reduce_char(tuple(w)) for w in self.weights)
        )
        for w in self.weights:
            if len(w) != k:
                raise InputError("weight length does not match character group rank")
        for coeffs, m in self.congruences:
            if len(coeffs) != self.ambient_dim:
                raise InputError("congruence coefficient length mismatch")
            if m < 0:
                raise InputError("congruence modulus must be >= 0")

    @property
    def char_length(self) -> int:
        return self.free_rank + len(self.torsion_moduli)

    def reduce_char(self, chi: Vec) -> Vec:
        if len(chi) != self.char_length:
            raise InputError("character length mismatch")
        out = list(chi)
        for i, m in enumerate(self.torsion_moduli):
            out[self.free_rank + i] %= m
        return tuple(out)

    def char_add(self, a: Vec, b: Vec) -> Vec:
        return self.reduce_char(tuple(x + y for x, y in zip(a, b)))

    def char_scale(self, m: int, a: Vec) -> Vec:
        return self.reduce_char(tuple(m * x for x in a))

    @property
    def zero_char(self) -> Vec:
        return (0,) * self.char_length

    def weight_of(self, a: Vec) -> Vec:
        """Weight of the monomial x^a, reduced in the character group."""
        if len(a) != self.ambient_dim:
            raise InputError("exponent vector length mismatch")
        return self.reduce_char(self.raw_weight(a))

    def raw_weight(self, a: Vec) -> Vec:
        """Integer weight W.a before torsion reduction."""
        return tuple(sum(w[i] * x for w, x in zip(self.weights, a)) for i in range(self.char_length))

    def relation_lattice(self) -> Sublattice:
        """Lattice of character-group relations inside Z^char_length."""
        k = self.char_length
        cols = []
        for i, m in enumerate(self.torsion_moduli):
            col = [0] * k
            col[self.free_rank + i] = m
            cols.append(tuple(col))
        return Sublattice.from_columns(cols, k)

    def weight_rows(self) -> list[tuple[Vec, int]]:
        """The weight map as (coefficients over variables, modulus) rows."""
        rows = []
        for i in range(self.char_length):
            coeffs = tuple(w[i] for w in self.weights)
            m = 0 if i < self.free_rank else self.torsion_moduli[i - self.free_rank]
            rows.append((coeffs, m))
        return rows


@dataclass(frozen=True)
class FacetPrime:
    """Height-one monomial prime of K[S]: a facet of cone(S).

    The primitive facet valuation is the coordinate functional `coord`
    divided by `scale` (the gcd of that coordinate over the lattice ZS).
    """

    index: int
    coord: int
    scale: int
    zero_set: frozenset[int]
    face_generators: tuple[Vec, ...]

    def value(self, a: Vec) -> int:
        v = a[self.coord]
        if v % self.scale != 0:
            raise InputError("vector is not in the semigroup lattice")
        return v // self.scale


@dataclass(frozen=True)
class AffineSemigroup:
    """Saturated affine semigroup S = L ∩ Z_0^n with its Hilbert basis and facets."""

    ambient_dim: int
    hilbert_basis: tuple[Vec, ...]
    lattice: Sublattice
    facets: tuple[FacetPrime, ...]
    rank: int

    def contains(self, v: Vec) -> bool:
        return all(x >= 0 for x in v) and self.lattice.contains(v)

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    def valuation_vector(self, a: Vec) -> Vec:
        """All facet valuations of the monomial x^a."""
        return tuple(p.value(a) for p in self.facets)


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def minimal_nonneg_solutions(
    rows: list[Vec], n: int, budget: Budget, stop_on_coord: tuple[int, int] | None = None
) -> list[Vec]:
    """Minimal nonzero solutions of rows . x = 0 with x in Z_0^n.

    Completion solver: breadth-first by 1-norm, branching on directions that
    reduce the residual (Contejean-Devie criterion), pruning nodes dominated
    by an already-found solution.  With `stop_on_coord = (j, v)` returns early
    with the single first solution whose j-th coordinate equals v.
    """
    if n == 0:
        return []
    if not rows:
        units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        if stop_on_coord is not None:
            j, v = stop_on_coord
            return [units[j]] if v == 1 else []
        return units
    cols = [tuple(r[j] for r in rows) for j in range(n)]
    gram = [tuple(_dot(ci, cj) for cj in cols) for ci in cols]
    zero = (0,) * n
    # node x -> g = (A x . c_j)_j; the unit vector e_j carries row j of the Gram matrix
    frontier = {tuple(int(i == j) for i in range(n)): gram[j] for j in range(n)}
    stop_j, want = stop_on_coord or (0, None)  # want None matches no coordinate
    sols: list[Vec] = []
    by_coord: dict[tuple[int, int], list[Vec]] = {}  # (j, s[j]) -> solutions s
    nodes = 0
    norm = 1
    try:
        while frontier:
            if norm > budget.max_norm:
                raise CappedComputationError("completion solver (degree)", budget.max_norm)
            if norm > budget.norm_reached:
                budget.norm_reached = norm
            expand = []
            for x, g in frontier.items():
                if g != zero:
                    expand.append((x, g))
                    continue
                if x[stop_j] == want:
                    return [x]
                sols.append(x)
                for j, xj in enumerate(x):
                    if xj:
                        by_coord.setdefault((j, xj), []).append(x)
            # every node of the next level has norm + 1, so a duplicate can
            # only come from this level: its own dict and pruned set suffice
            nxt: dict[Vec, Vec] = {}
            pruned: set[Vec] = set()
            for x, g in expand:
                for j, gj in enumerate(g):
                    if gj >= 0:
                        continue
                    y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                    if y in nxt or y in pruned:
                        continue
                    bucket = by_coord.get((j, y[j]))
                    if bucket is not None and any(all(map(ge, y, s)) for s in bucket):
                        pruned.add(y)
                        continue
                    nodes += 1
                    if nodes > budget.max_nodes:
                        raise CappedComputationError(
                            "completion solver (candidates)", budget.max_nodes
                        )
                    nxt[y] = tuple(map(add, g, gram[j]))
            frontier = nxt
            norm += 1
    finally:
        budget.nodes += nodes
    if stop_on_coord is not None:
        return []
    return sols


def _lift_system(
    congruences: tuple[tuple[Vec, int], ...], n: int, rhs: list[int] | None = None
) -> tuple[list[Vec], int, list[int]]:
    """Turn congruence rows into equations over extra nonneg slack variables.

    A modulus-m row has its coefficients and right-hand side reduced into
    [0, m) and its own slack k >= 0 with coefficient -m, which is lossless;
    the slack columns follow the n variables in row order.  Returns (rows
    over n+s variables, total variable count, right-hand sides).
    """
    s = sum(1 for _, m in congruences if m)
    rows, out_rhs = [], []
    k = 0
    for (coeffs, m), r in zip(congruences, rhs or [0] * len(congruences)):
        slack = [0] * s
        if m:
            coeffs, r = [c % m for c in coeffs], r % m
            slack[k] = -m
            k += 1
        rows.append(tuple(coeffs) + tuple(slack))
        out_rhs.append(r)
    return rows, n + s, out_rhs


def solve_system_nonneg(
    congruences: tuple[tuple[Vec, int], ...], n: int, rhs: list[int], budget: Budget
) -> Vec | None:
    """One nonneg integer solution of the congruence system with right-hand sides.

    rhs lists one target value (mod the row modulus) per congruence.
    Returns a solution in the original n variables or None when the system
    is infeasible (decided exactly).
    """
    rows, total, rvals = _lift_system(congruences, n, rhs)
    if all(v == 0 for v in rvals):
        return (0,) * n
    sol = solve_diophantine(IntMatrix.from_rows(rows), tuple(rvals))
    if sol is None:
        return None
    x0, ker_cols = sol
    if all(v >= 0 for v in x0):
        return x0[:n]
    # the coset search decides exactly whenever the region is empty or a
    # polytope, and is a fast witness finder otherwise
    ker = Sublattice.from_columns(ker_cols, total)
    status, got = coset_orthant_search(x0, list(ker.basis), budget)
    if status == FOUND:
        return got[:n]
    if status == EMPTY:
        return None
    if status == CAPPED:
        raise CappedComputationError("coset search (candidates)", budget.max_nodes)
    # unbounded region: the completion search decides exactly
    hom_rows = [row + (-rv,) for row, rv in zip(rows, rvals)]
    got = minimal_nonneg_solutions(hom_rows, total + 1, budget, stop_on_coord=(total, 1))
    if not got:
        return None
    return got[0][:n]


def hilbert_basis(
    congruences: tuple[tuple[Vec, int], ...], n: int, budget: Budget
) -> tuple[Vec, ...]:
    """Unique minimal generating set of {a in Z_0^n : congruences hold}, graded-lex."""
    rows, total, _ = _lift_system(congruences, n)
    sols = minimal_nonneg_solutions(rows, total, budget)
    # slack values are determined by the a-part, so projection preserves minimality
    basis = sorted({s[:n] for s in sols if any(s[:n])}, key=lambda v: (sum(v), v))
    return tuple(basis)


def build_semigroup(action: WeightedAction, budget: Budget) -> AffineSemigroup:
    """The affine semigroup of the action, memoized in the budget."""
    key = (action.ambient_dim, action.congruences)
    S = budget.semigroups.get(key)
    if S is None:
        n = action.ambient_dim
        hb = hilbert_basis(action.congruences, n, budget)
        lattice = Sublattice.from_columns(list(hb), n)
        rank = lattice.rank
        facets = _facets_from_basis(hb, lattice, rank, n)
        S = budget.semigroups[key] = AffineSemigroup(n, hb, lattice, facets, rank)
    return S


def _facets_from_basis(
    hb: tuple[Vec, ...], lattice: Sublattice, rank: int, n: int
) -> tuple[FacetPrime, ...]:
    # cone(S) = orthant ∩ span(S), so every facet lies in a coordinate hyperplane
    facet_map: dict[frozenset[int], int] = {}
    order: list[tuple[int, frozenset[int]]] = []
    for coord in range(n):
        zs = frozenset(i for i, h in enumerate(hb) if h[coord] == 0)
        if len(zs) == len(hb):
            continue  # coordinate vanishes on all of S: not a supporting facet
        if matrix_rank([hb[i] for i in zs]) != rank - 1:
            continue
        if zs not in facet_map:
            facet_map[zs] = coord
            order.append((coord, zs))
    facets = []
    for idx, (coord, zs) in enumerate(sorted(order)):
        vals = [col[coord] for col in lattice.basis]
        scale = 0
        for v in vals:
            scale = gcd(scale, v)
        if scale <= 0:
            raise InvariantViolationError("facet coordinate vanishes on the lattice")
        facets.append(
            FacetPrime(
                index=idx,
                coord=coord,
                scale=scale,
                zero_set=zs,
                face_generators=tuple(hb[i] for i in sorted(zs)),
            )
        )
    return tuple(facets)


def fiber_sample(
    action: WeightedAction,
    chi: Vec,
    *,
    equal: dict[int, int] | None = None,
    upper: dict[int, int] | None = None,
    degree_limit: int | None = None,
    budget: Budget,
) -> Vec | None:
    """Some weight-chi element a of the semigroup, or None (exact).

    `equal` fixes a[coord] = value and `upper` bounds a[coord] <= bound at
    the given coordinates; `degree_limit` bounds the total degree.  Each
    upper bound becomes an equation with one slack variable; the slack block
    is appended after the real variables and projected away.
    """
    chi = action.reduce_char(chi)
    equal_items = tuple(sorted((equal or {}).items()))
    upper_items = tuple(sorted((upper or {}).items()))
    key = (action, chi, equal_items, upper_items, degree_limit)
    if key in budget.fibers:
        return budget.fibers[key]
    got = None
    if all(bound >= 0 for _, bound in upper_items):
        n = action.ambient_dim
        s = len(upper_items) + (degree_limit is not None)
        congs = [
            (tuple(coeffs) + (0,) * s, m)
            for coeffs, m in (*action.congruences, *action.weight_rows())
        ]
        rhs = [0] * len(action.congruences) + list(chi)
        bounded = [((coord,), val) for coord, val in equal_items]
        bounded += [((coord, n + k), bound) for k, (coord, bound) in enumerate(upper_items)]
        if degree_limit is not None:
            bounded.append((tuple(range(n)) + (n + s - 1,), degree_limit))
        for support, value in bounded:
            rhs.append(value)
            congs.append((tuple(int(j in support) for j in range(n + s)), 0))
        sol = solve_system_nonneg(tuple(congs), n + s, rhs, budget)
        got = sol[:n] if sol is not None else None
    budget.fibers[key] = got
    return got


def _weight_slices(action: WeightedAction, degree_cap: int) -> dict[Vec, tuple[Vec, ...]]:
    """Semigroup elements of degree <= cap, grouped by weight, graded-lex.

    The linear map a -> (raw weight, congruence values) is packed into one
    integer code in balanced base B, wide enough that no digit overflows
    under the degree cap, so a step of the walk is one addition.  Each
    distinct code is decoded once (reduced to a character, checked against
    the congruences); the walk runs in graded-lex order, so every group
    fills in sorted.
    """
    k = action.char_length
    forms = [tuple(w[i] for w in action.weights) for i in range(k)]
    forms += [coeffs for coeffs, _ in action.congruences]
    base = 2 * degree_cap * max((abs(c) for f in forms for c in f), default=0) + 1
    steps = [sum(f[j] * base**i for i, f in enumerate(forms)) for j in range(action.ambient_dim)]
    moduli = [m for _, m in action.congruences]
    slices: dict[Vec, list[Vec]] = {}
    by_code: dict[int, list[Vec] | None] = {}  # None: the congruences fail
    for vecs, codes in _graded_lex_walk(steps, degree_cap):
        for v, code in zip(vecs, codes):
            group = by_code.get(code, False)
            if group is False:
                values = _balanced_digits(code, base, len(forms))
                group = None
                if all(x % m == 0 if m else x == 0 for x, m in zip(values[k:], moduli)):
                    group = slices.setdefault(action.reduce_char(tuple(values[:k])), [])
                by_code[code] = group
            if group is not None:
                group.append(v)
    return {chi: tuple(vs) for chi, vs in slices.items()}


def _graded_lex_walk(steps: list[int], cap: int):
    """Yield, for d = 0..cap, the vectors a of Z_0^n of degree d in lex
    order, with their codes sum(a_j * steps[j]).

    Per-degree tables for the trailing coordinates are built from the last
    coordinate forwards, so each vector is one tuple concatenation and its
    code one addition; the full-length vectors are made one degree at a
    time.
    """
    table = [([()], [0])] + [([], [])] * cap
    for step in reversed(steps[1:]):
        table = [_prepend_coordinate(step, table, d) for d in range(cap + 1)]
    if not steps:
        yield from table
        return
    for d in range(cap + 1):
        yield _prepend_coordinate(steps[0], table, d)


def _prepend_coordinate(
    step: int, table: list[tuple[list[Vec], list[int]]], d: int
) -> tuple[list[Vec], list[int]]:
    """Degree-d vectors and codes with one more leading coordinate, lex order."""
    vecs: list[Vec] = []
    codes: list[int] = []
    for h in range(d + 1):
        head, offset = (h,), h * step
        tail_vecs, tail_codes = table[d - h]
        vecs += [head + t for t in tail_vecs]
        codes += [offset + c for c in tail_codes]
    return vecs, codes


def _balanced_digits(code: int, base: int, count: int) -> list[int]:
    """The `count` digits of `code` in base `base` (odd), each in
    [-(base // 2), base // 2], least significant first."""
    half = base // 2
    digits = []
    for _ in range(count):
        code, r = divmod(code + half, base)
        digits.append(r - half)
    return digits


def enumerate_fiber(
    action: WeightedAction,
    chi: Vec,
    degree_cap: int,
    *,
    budget: Budget,
) -> list[Vec]:
    """All weight-chi semigroup elements of total degree <= degree_cap, graded-lex."""
    if degree_cap < 0:
        raise InputError("degree cap must be >= 0")
    key = (action, degree_cap)
    slices = budget.slices.get(key)
    if slices is None:
        slices = budget.slices[key] = _weight_slices(action, degree_cap)
    return list(slices.get(action.reduce_char(chi), ()))
