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
put in Hermite form and `coset_orthant_search` eliminates the coset's
variables once, last to first, and walks the exact bounds each projection
leaves; it decides exactly when that region is empty or bounded, rank one
included.  Only an unbounded region with two or more kernel columns falls
back to the completion solver on the homogenized system.  A query keeps no
state, so a caller that needs a point twice holds on to it.  The character
sweeps run no query per character: a product of monomials has the sum of
their weights, so a swept character gets the sum of points already found
(of the signed qualified-basis characters, or of Hilbert-basis elements).

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
norm, so duplicates are looked up within the level only.  Each node and
its g are packed into one int with a field per coordinate, so a step, the
sign test and the dominance test are a few integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd
from operator import itemgetter, mul

from .errors import CappedComputationError, InputError, InvariantViolationError
from .lattice import (
    QuotientGroup,
    Sublattice,
    CAPPED,
    EMPTY,
    FOUND,
    coset_orthant_search,
    mat_vec,
    solve_diophantine,
)

Vec = tuple[int, ...]


@dataclass(eq=False)
class Budget:
    """The solver caps and the semigroup table of one analysis.

    `max_norm` bounds the completion solver's breadth-first depth;
    `max_nodes` bounds the candidates of the completion solver and the
    nodes of the coset search.  Every solver, sampler and divisor context
    takes the budget as a required argument.  Its table of semigroups is
    the only memo table in the engine: it lives and dies with the budget,
    so no result depends on what an earlier analysis computed or under
    which caps.  Fiber points are not memoized: each caller searches a
    fiber once and hands the point on, and the character sweeps add points
    up instead of searching each swept character.  The bounded walk of one
    fiber (`enumerate_fiber`) and the freeness oracle built on it run no
    capped search and keep no table, so they read no budget.

    Two deterministic counters record the completion solver's work:
    `nodes` sums its candidates over all calls, and `norm_reached` is the
    deepest breadth-first level it opened.
    """

    max_norm: int = 64
    max_nodes: int = 10**6
    semigroups: dict = field(default_factory=dict, repr=False)
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

    @cached_property
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

    @cached_property
    def weight_matrix(self) -> tuple[Vec, ...]:
        """The matrix W with W.a the raw weight of x^a: row i holds coordinate
        i of every variable's weight."""
        return tuple(zip(*self.weights)) if self.weights else ((),) * self.char_length

    def raw_weight(self, a: Vec) -> Vec:
        """Integer weight W.a before torsion reduction."""
        return tuple([sum(map(mul, row, a)) for row in self.weight_matrix])

    def relation_lattice(self) -> Sublattice:
        """Lattice of character-group relations inside Z^char_length.  Its
        columns m_i e_(free_rank + i) are already in canonical Hermite form."""
        k = self.char_length
        cols = []
        for i, m in enumerate(self.torsion_moduli):
            col = [0] * k
            col[self.free_rank + i] = m
            cols.append(tuple(col))
        return Sublattice(k, tuple(cols))

    def weight_rows(self) -> list[tuple[Vec, int]]:
        """The weight map as (coefficients over variables, modulus) rows."""
        return list(zip(self.weight_matrix, (0,) * self.free_rank + self.torsion_moduli))

    def quotient_by(self, B: Sublattice) -> "WeightedAction":
        """Action on X // H, B the annihilator lattice of H: same weights,
        and congruences that keep only the monomials whose raw weight lies in B.

        With U the invariant-factor transform of Z^char_length / B and d_i
        its factors (0 past the torsion), W.a lies in B exactly when
        (U W a)_i = 0 mod d_i for every i.  So row i of U W becomes a
        congruence modulo d_i, except where it says nothing: d_i = 1, or
        d_i = 0 with an all-zero row."""
        q = QuotientGroup.of(B)
        rows = []
        for i, urow in enumerate(q.transform):
            m = q.diag[i] if i < len(q.diag) else 0
            if m == 1:
                continue
            coeffs = mat_vec(self.weights, urow)
            if m or any(coeffs):
                rows.append((coeffs, m))
        return replace(self, congruences=self.congruences + tuple(rows))

    @cached_property
    def invariant_action(self) -> "WeightedAction":
        """The action restricted to the invariant semigroup S_G: the quotient
        by all of G, whose annihilator is the relation lattice.  Built once
        per action."""
        return self.quotient_by(self.relation_lattice())


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
    return sum(map(mul, a, b))


def minimal_nonneg_solutions(
    rows: list[Vec], n: int, budget: Budget, stop_on_coord: tuple[int, int] | None = None
) -> list[Vec]:
    """Minimal nonzero solutions of rows . x = 0 with x in Z_0^n.

    Completion solver: breadth-first by 1-norm, branching on directions that
    reduce the residual (Contejean-Devie criterion), pruning nodes dominated
    by an already-found solution.  With `stop_on_coord = (j, v)` returns early
    with the single first solution whose j-th coordinate equals v.

    Nodes and residuals are packed into Python ints; only the returned
    solutions are unpacked.  A node is never deeper than max_norm + 1, so
    no coordinate exceeds it: x puts x[j] in bits w*j .. w*j + w - 2 with
    w = (max_norm + 1).bit_length() + 1, and the top bit of each field is a
    guard bit, 0 in every node.  x + e_j adds 1 << w*j, and y >= s
    coordinatewise exactly when ((y | G) - s) & G == G for the guard mask G:
    each field subtracts on its own, and a field with y[j] < s[j] borrows
    its guard bit and no further.  The residual g = (A x . c_j)_j puts
    g[j] + 2^(W-1) in bits W*j .. W*j + W - 1, where |g[j]| <= |x|_1 *
    max_i |c_j . c_i| <= (max_norm + 1) * sum_k |a_kj| * |row k|_1 < 2^(W-1)
    sets W.  So every field stays in [0, 2^W), the step along e_j adds the
    packed Gram row j (the rows of A weighted by column j), the zero
    residual is the bias B with only the fields' top bits set, and g[j] < 0
    exactly when that top bit is clear, i.e. the set bits of B & ~g.  They
    are taken lowest first, so j ascends as it would over the unpacked
    residual, and nodes, solutions and their order are those of the
    unpacked search.
    """
    if n == 0:
        return []
    if not rows:
        units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        if stop_on_coord is not None:
            j, v = stop_on_coord
            return [units[j]] if v == 1 else []
        return units
    top = budget.max_norm + 1
    w = top.bit_length() + 1
    fmask = (1 << w) - 1
    guard = ((1 << w * n) - 1) // fmask << (w - 1)  # the top bit of every node field
    row_norms = [sum(map(abs, r)) for r in rows]
    bound = top * max(sum(abs(r[j]) * s for r, s in zip(rows, row_norms)) for j in range(n))
    W = bound.bit_length() + 1
    bias = ((1 << W * n) - 1) // ((1 << W) - 1) << (W - 1)  # g = 0: each field's top bit
    packed_rows = [sum(a << W * i for i, a in enumerate(r)) for r in rows]
    # the sign bit of g[j] -> (e_j, packed Gram row j, the mask of field j)
    step = {}
    masks = []
    frontier = {}  # node x -> g; e_j carries Gram row j
    for j in range(n):
        e = 1 << w * j
        gram_j = sum(r[j] * p for r, p in zip(rows, packed_rows))
        step[1 << (W * j + W - 1)] = (e, gram_j, fmask * e)
        masks.append(fmask * e)
        frontier[e] = bias + gram_j
    stop_j, want = stop_on_coord or (0, None)
    stop_mask = masks[stop_j]
    stop_field = -1 if want is None else want << w * stop_j  # -1 matches no field
    sols: list[int] = []
    by_coord: dict[int, list[int]] = {}  # s & masks[j], i.e. (j, s[j]) -> solutions s
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
                if g != bias:
                    expand.append((x, g))
                    continue
                if x & stop_mask == stop_field:
                    return [tuple((x >> w * j) & fmask for j in range(n))]
                sols.append(x)
                for m in masks:
                    if xj := x & m:
                        by_coord.setdefault(xj, []).append(x)
            # every node of the next level has norm + 1, so a duplicate can
            # only come from this level: its own dict and pruned set suffice
            nxt: dict[int, int] = {}
            pruned: set[int] = set()
            for x, g in expand:
                neg = bias & ~g
                while neg:
                    low = neg & -neg
                    neg ^= low
                    e, gram_j, m = step[low]
                    y = x + e
                    if y in nxt or y in pruned:
                        continue
                    yg = y | guard
                    for s in by_coord.get(y & m, ()):
                        if (yg - s) & guard == guard:  # y >= s
                            pruned.add(y)
                            break
                    else:
                        nodes += 1
                        if nodes > budget.max_nodes:
                            raise CappedComputationError(
                                "completion solver (candidates)", budget.max_nodes
                            )
                        nxt[y] = g + gram_j
            frontier = nxt
            norm += 1
    finally:
        budget.nodes += nodes
    if stop_on_coord is not None:
        return []
    return [tuple((s >> w * j) & fmask for j in range(n)) for s in sols]


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
    sol = solve_diophantine(tuple(rows), tuple(rvals))
    if sol is None:
        return None
    x0, ker_cols = sol
    if all(v >= 0 for v in x0):
        return x0[:n]
    # the coset search decides exactly with one kernel column, or when the
    # region is empty or a polytope; with two or more columns an unbounded
    # region returns no point
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
        facets = _facets_from_basis(hb, lattice, n)
        S = budget.semigroups[key] = AffineSemigroup(n, hb, lattice, facets, lattice.rank)
    return S


def _facets_from_basis(hb: tuple[Vec, ...], lattice: Sublattice, n: int) -> tuple[FacetPrime, ...]:
    """The facets of cone(S), each with the first coordinate that cuts it out.

    cone(S) = orthant ∩ span(S), so each coordinate cuts out the face
    {a_coord = 0} of the cone, and every facet is one of these faces.  A
    face is the cone over the Hilbert-basis elements on it, so faces
    compare as their zero sets over the Hilbert basis do, and every proper
    face lies inside a facet.  So the facets are the proper zero sets that
    no other proper zero set strictly contains.
    """
    first: dict[frozenset[int], int] = {}
    for coord in range(n):
        zs = frozenset(i for i, h in enumerate(hb) if h[coord] == 0)
        if len(zs) < len(hb):  # a coordinate vanishing on all of S cuts out no proper face
            first.setdefault(zs, coord)
    order = [(coord, zs) for zs, coord in first.items() if not any(zs < other for other in first)]
    facets = []
    for idx, (coord, zs) in enumerate(order):
        scale = gcd(*(col[coord] for col in lattice.basis))
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
    budget: Budget,
) -> Vec | None:
    """Some weight-chi element a of the semigroup, or None (exact).

    `equal` fixes a[coord] = value and `upper` bounds a[coord] <= bound at
    the given coordinates.  Each upper bound becomes an equation with one
    slack variable; the slack block is appended after the real variables
    and projected away.
    """
    chi = action.reduce_char(chi)
    equal_items = sorted((equal or {}).items())
    upper_items = sorted((upper or {}).items())
    if any(bound < 0 for _, bound in upper_items):
        return None
    n = action.ambient_dim
    s = len(upper_items)
    congs = [
        (tuple(coeffs) + (0,) * s, m)
        for coeffs, m in (*action.congruences, *action.weight_rows())
    ]
    rhs = [0] * len(action.congruences) + list(chi)
    bounded = [((coord,), val) for coord, val in equal_items]
    bounded += [((coord, n + k), bound) for k, (coord, bound) in enumerate(upper_items)]
    for support, value in bounded:
        rhs.append(value)
        congs.append((tuple(int(j in support) for j in range(n + s)), 0))
    sol = solve_system_nonneg(tuple(congs), n + s, rhs, budget)
    return sol[:n] if sol is not None else None


def enumerate_fiber(action: WeightedAction, chi: Vec, degree_cap: int) -> list[Vec]:
    """All weight-chi semigroup elements of total degree <= degree_cap, graded-lex.

    A depth-first walk over the variables that enters only the weight-chi
    fiber.  Its rows are the weight coordinates (target chi) and the
    congruences (target 0); a row of modulus m > 0 is read mod m.  A
    repeated row is dropped; a row with no coefficient and a nonzero
    target, or two equal rows with different targets, make the fiber empty.

    The exact rows (modulus 0) bound every level.  With residual s and r
    degrees left, the later variables add between r lo and r hi to a row,
    lo and hi the least and greatest of its later coefficients and 0.  So a
    value v with coefficient c keeps the row reachable iff
    v (c - lo) <= s - r lo and v (hi - c) <= r hi - s, and each level
    iterates only the interval of values that every exact row allows.  A
    zero slope gives a condition free of v that the parent's interval
    already met; at the root it is left to the deeper levels, as each row is
    met exactly at its last nonzero coefficient.  The last level is solved
    by its interval, one value when an exact row reads it.  The variables
    that some exact row reads are walked first, so the others cost only
    their share of the output.  The modular rows are checked at the leaves.
    """
    if degree_cap < 0:
        raise InputError("degree cap must be >= 0")
    n = action.ambient_dim
    targets = action.reduce_char(chi) + (0,) * len(action.congruences)
    rows: dict[tuple[Vec, int], int] = {}  # (coefficients, modulus) -> target
    for (c, m), t in zip(action.weight_rows() + list(action.congruences), targets):
        if m:
            c, t = tuple(x % m for x in c), t % m
        if not any(c):
            if t:
                return []
        elif rows.setdefault((c, m), t) != t:
            return []
    if not n:
        return [()]
    exact = [(c, t) for (c, m), t in rows.items() if not m]
    order = sorted(range(n), key=lambda j: not any(c[j] for c, _ in exact))
    position = [0] * n  # the walk level of each variable
    for p, j in enumerate(order):
        position[j] = p
    emit = itemgetter(*position) if n > 1 else tuple  # walk order -> input order
    modular = [(tuple(c[j] for j in order), m, t) for (c, m), t in rows.items() if m]
    coeffs = [tuple(c[j] for j in order) for c, _ in exact]  # in walk order
    columns = [tuple(c[p] for c in coeffs) for p in range(n)]
    bounds = []  # per level: (row, a, sign, tau) for v * a <= sign * s + tau * r, a != 0
    for p, column in enumerate(columns):
        spans = [(min(c[p + 1:] + (0,)), max(c[p + 1:] + (0,))) for c in coeffs]
        bounds.append([
            (e, a, sign, tau)
            for e, (c, (lo, hi)) in enumerate(zip(column, spans))
            for a, sign, tau in ((c - lo, 1, -lo), (hi - c, -1, hi))
            if a
        ])
    out: list[Vec] = []
    x = [0] * n  # the walk's vector, in walk order

    def walk(p: int, residual: tuple[int, ...], r: int):
        first, last = 0, r
        for e, a, sign, tau in bounds[p]:
            b = sign * residual[e] + tau * r
            if a > 0:
                if b < a * last:
                    last = b // a
            elif b < a * first:
                first = -(b // -a)
        if p == n - 1:
            for v in range(first, last + 1):
                x[p] = v
                if all((_dot(c, x) - t) % m == 0 for c, m, t in modular):
                    out.append(emit(x))
            return
        column = columns[p]
        for v in range(first, last + 1):
            x[p] = v
            walk(p + 1, tuple([s - v * c for s, c in zip(residual, column)]), r - v)

    walk(0, tuple(t for _, t in exact), degree_cap)
    return sorted(out, key=lambda v: (sum(v), v))
