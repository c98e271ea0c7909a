"""Reference routes: independent computations that tests and consistency
records set against the engine.  This module is their one home.

Brute-force ground truth, deliberately naive and independent of the
divisor-theoretic path: null-fiber dimension by face enumeration, bounded
module freeness by listing one weight fiber up to a degree cap, divisor
class orders by direct diophantine solves, and unit weights by the Hilbert
basis of a paired system or by a Farkas test per weight.  The pipeline
runs the first two beside every verdict; they run no capped search and
read no budget.

Consistency records on one analysis, which the engine never runs: the main
theorem's equivalent conditions, each evaluated on its own; the corollary
"cofree iff the obstruction restricts trivially"; the check that every
qualified character becomes free at the exponent; the search route to the
freeness exponent; and the restriction of an action to a subgroup, which
runs the oracles on that subgroup's action.  Like the engine, each searches
a fiber point once per character it starts from and reaches every other
character it reads by adding and scaling points: the class maps and the
freeness test read the point they are handed.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from .divisors import DivisorContext
from .errors import CappedComputationError, InputError, InvariantViolationError
from .lattice import (
    QuotientGroup,
    mat_vec,
    matrix_rank,
    rational_shifted_cone_nonempty,
    solve_diophantine,
)
from .reduced import QualifiedLattice, signed_points, sweep_points
from .semigroup import (
    AffineSemigroup,
    Budget,
    Vec,
    WeightedAction,
    build_semigroup,
    enumerate_fiber,
    hilbert_basis,
)
from .subgroups import SubgroupOfA, SubgroupOfG, quotient_action

if TYPE_CHECKING:
    from .pipeline import Analysis

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


MAX_FACES = 4096


def face_lattice(S: AffineSemigroup) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """All faces of cone(S), as intersections of facets: for each distinct
    face its Hilbert-basis index set and the coordinates forced to zero by
    the first facet subset that defines it, in the order the subsets are
    enumerated (by size, then lexicographically).  No face is ranked here:
    the null-fiber oracle ranks only the faces it compares."""
    all_idx = frozenset(range(len(S.hilbert_basis)))
    seen: dict[frozenset[int], frozenset[int]] = {}
    n_facets = S.facet_count
    for r in range(n_facets + 1):
        for subset in combinations(range(n_facets), r):
            idx = all_idx
            for fi in subset:
                idx &= S.facets[fi].zero_set
            if idx not in seen:
                if len(seen) >= MAX_FACES:
                    raise CappedComputationError("face enumeration", MAX_FACES)
                seen[idx] = frozenset(S.facets[fi].coord for fi in subset)
    return tuple(seen.items())


def null_fiber_dimension(
    S_X: AffineSemigroup, S_G: AffineSemigroup
) -> tuple[int, bool]:
    """Dimension of the fiber over the cone point, and the verdict that it
    matches the generic fiber dimension (equidimensionality of the quotient).

    A face carries no invariants iff no nonzero invariant generator vanishes
    on all its defining coordinates; the null fiber is the union of such
    faces, so its dimension is their maximal rank.  Only those faces are
    ranked: the maximum over them is the one a scan of every ranked face
    finds, since the faces with invariants never enter it.
    """
    hb = S_X.hilbert_basis
    best = max(
        (
            matrix_rank([hb[i] for i in idx])
            for idx, coords in face_lattice(S_X)
            if not _face_has_invariants(coords, S_G)
        ),
        default=0,
    )
    expected = S_X.rank - S_G.rank
    return best, best == expected


def _face_has_invariants(zero_coords: frozenset[int], S_G: AffineSemigroup) -> bool:
    for h in S_G.hilbert_basis:
        if any(h) and all(h[c] == 0 for c in zero_coords):
            return True
    return False


def bounded_freeness_oracle(
    S_G: AffineSemigroup,
    action: WeightedAction,
    chi: Vec,
    degree_cap: int,
) -> str:
    """Tri-state freeness check on the weight-chi fiber in degrees
    [0, degree_cap].

    Takes the minimal-degree fiber monomial and compares the listed fiber
    with its translate of the invariant semigroup; a violation inside the
    cap is conclusive, agreement is a verdict only at this cap.  Inside
    one fiber b - a in S_G means b >= a, but the test stays membership in
    the lattice that HB(S_G) spans: that is what sets the invariant Hilbert
    basis against the fiber walk.
    """
    fiber = enumerate_fiber(action, chi, degree_cap)
    if not fiber:
        return INCONCLUSIVE
    a = fiber[0]
    for b in fiber:
        diff = tuple(x - y for x, y in zip(b, a))
        if not S_G.contains(diff):
            return NO
    return YES


def brute_force_class_order(
    S: AffineSemigroup, coeffs: Vec, bound: int
) -> int | None:
    """Least m <= bound with m * D in the valuation image, by direct solves."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    basis = S.lattice.basis
    nf = S.facet_count
    if len(coeffs) != nf:
        raise InputError("one coefficient per facet required")
    val_cols = [S.valuation_vector(col) for col in basis]
    M = tuple(zip(*val_cols))
    for m in range(1, bound + 1):
        target = tuple(m * c for c in coeffs)
        if val_cols:
            if solve_diophantine(M, target) is not None:
                return m
        else:
            if all(c == 0 for c in target):
                return m
    return None


def paired_unit_lattice(action: WeightedAction, budget: Budget) -> SubgroupOfA:
    """Unit-weight subgroup from the paired system {(a,b): wt(a) + wt(b) = 0}:
    the weights of the first halves of its Hilbert basis generate the units.
    Reference route for `subgroups.unit_weights` and `weight_unit_lattice`."""
    n = action.ambient_dim
    congs = []
    for coeffs, m in action.congruences:
        congs.append((tuple(coeffs) + (0,) * n, m))
        congs.append(((0,) * n + tuple(coeffs), m))
    for coeffs, m in action.weight_rows():
        congs.append((tuple(coeffs) + tuple(coeffs), m))
    pairs = hilbert_basis(tuple(congs), 2 * n, budget)
    return SubgroupOfA.generated_by(action, [action.raw_weight(p[:n]) for p in pairs])


def weight_unit_lattice(generators: tuple[Vec, ...], action: WeightedAction) -> SubgroupOfA:
    """Characters realized with both signs by the monoid that `generators`
    generate: the Hilbert basis of S, or the face generators of a facet.
    Reference route for `subgroups.unit_weights`, with no invariant
    semigroup.

    The units of a monoid generated by h_1..h_m form the group generated by
    the unit wt(h_j), and whether wt(h_j) is a unit is a rational question
    on the free parts f_i of the raw weights (torsion dropped): wt(h_j) is
    a unit iff -f_j lies in cone(f_1..f_m).  (=>) An element of weight
    -wt(h_j) is a nonnegative combination of the h_i.  (<=) From
    N*(-f_j) = sum mu_i f_i with integers mu_i >= 0, and e the lcm of the
    torsion moduli, M = N*e, the element sum e*mu_i*h_i + (M-1)*h_j has
    weight exactly -wt(h_j).  Both directions use only nonnegative integer
    combinations of the generators, so they hold for any generating set.
    By Farkas' lemma the cone test is the emptiness of {y : y . f_i >= 0
    for all i, y . f_j >= 1}, which one Fourier-Motzkin pass decides.
    """
    r = action.free_rank
    free_parts = {action.weight_of(h): action.raw_weight(h)[:r] for h in generators}
    # the rows y . f >= 0 for every free part f, then the row y . f_j - 1 >= 0
    cols = [tuple(f[k] for f in free_parts.values()) for k in range(r)]
    x0 = (0,) * len(free_parts) + (-1,)
    units = [
        w
        for w, f in free_parts.items()
        if w != action.zero_char
        and not rational_shifted_cone_nonempty(x0, [c + (fk,) for c, fk in zip(cols, f)])
    ]
    return SubgroupOfA.generated_by(action, units)


def restrict_action_to_subgroup(action: WeightedAction, H: SubgroupOfG) -> WeightedAction:
    """Reinterpret the same variables as a representation of the subgroup H.

    The character group of H is A / B_H; weights map through the canonical
    projection.  Used to run oracles against an action of a subgroup.
    """
    q = QuotientGroup.of(H.annihilator.lattice)
    keep = []
    moduli = []
    for i in range(action.char_length):
        m = q.diag[i] if i < len(q.diag) else 0
        if m == 1:
            continue
        keep.append(i)
        moduli.append(m)
    free_idx = [i for i, m in zip(keep, moduli) if m == 0]
    tor_idx = [i for i, m in zip(keep, moduli) if m != 0]
    new_weights = []
    for j in range(action.ambient_dim):
        y = mat_vec(q.transform, action.weights[j])
        new_weights.append(tuple(y[i] for i in free_idx) + tuple(y[i] for i in tor_idx))
    return WeightedAction(
        ambient_dim=action.ambient_dim,
        free_rank=len(free_idx),
        torsion_moduli=tuple(q.diag[i] for i in tor_idx),
        weights=tuple(new_weights),
        congruences=action.congruences,
    )


def min_free_multiple(ctx: DivisorContext, chi: Vec) -> int | None:
    """Least multiple of the character whose module is free, or None.

    Equals the order of the module class; when that order is finite it
    must also equal the order of the character divisor class and is
    cross-checked against the freeness test at every multiple up to it.
    A module class of infinite order has no free multiple (only a few
    small multiples are spot-checked then); the divisor class order
    carries no information in that case.  The character's fiber is searched
    once; its k-th multiple is read at the point k·a.
    """
    a = ctx.fiber_element(chi)
    d_ord = ctx.cl_R.order_of(ctx.char_divisor(a))
    m_ord = ctx.cl_RG.order_of(ctx.module_divisor(a))

    def free_at(k: int) -> bool:
        return ctx.free_test(tuple(k * x for x in a))[0]

    if m_ord is None:
        for k in range(1, 4):
            if free_at(k):
                raise InvariantViolationError("free multiple of a non-torsion module class")
        return None
    if d_ord != m_ord:
        raise InvariantViolationError(
            f"divisor-class and module-class orders disagree ({d_ord} vs {m_ord})"
        )
    for k in range(1, d_ord):
        if free_at(k):
            raise InvariantViolationError("free multiple below the class order")
    if not free_at(d_ord):
        raise InvariantViolationError("module not free at the class order")
    return d_ord


def t_consistency_check(
    ctx: DivisorContext,
    qualified: QualifiedLattice,
    exponent: int,
    wide_bound: int,
) -> bool:
    """Every qualified character in the wider sweep becomes free at the
    exponent.  Only the signed basis characters are searched; the sweep's
    points are their sums, scaled by the exponent."""
    basis = qualified.basis_chars()
    points = sweep_points(ctx.action, basis, wide_bound, signed_points(ctx, basis))
    return all(ctx.free_test(tuple(exponent * x for x in a))[0] for _chi, a in sorted(points.items()))


def main_theorem_conditions(an: Analysis) -> dict:
    """The equivalent finiteness / cofreeness / equidimensionality
    conditions, each evaluated independently; they must agree."""
    red = an.reduced
    v = red.module_exponent
    finite = v is not None
    conds = {
        "module_side_finite": 0 not in red.module_side_factors,
        "module_exponent_finite": finite,
        "exponents_equal_finite": finite and red.divisor_exponent == v,
        "exponent_multiples_free": finite
        and t_consistency_check(an.ctx, an.qualified, v, an.options.wide_bound),
    }
    delta = SubgroupOfG(an.qualified.group)
    S_delta = build_semigroup(quotient_action(an.action, delta), an.budget)
    conds["qualified_quotient_equidimensional"] = null_fiber_dimension(S_delta, an.ctx.S_G)[1]
    if len(set(conds.values())) != 1:
        raise InvariantViolationError(f"equivalent conditions disagree: {conds}")
    return conds


def corollary_consistency(an: Analysis) -> bool | None:
    """On an equidimensional action: cofree iff the obstruction restricts
    trivially.  None unless the action is verdicted equidimensional."""
    v = an.verdict
    if v.equidimensional != "yes":
        return None
    obs = an.obstruction
    if obs is None:
        raise InvariantViolationError("equidimensional verdict without obstruction data")
    return (v.cofree == "yes") == (obs.restriction.order == 1)
