"""Closed subgroups of the diagonalizable group, handled dually.

A closed subgroup H of G is stored as its character annihilator
B_H = {chi : chi(H) = 1}, a subgroup of the character group A.  The pairing
is perfect over an algebraically closed field of characteristic zero, so
perp is an involution and every group-theoretic construction (joins,
inertia groups, torsion pullbacks, restrictions) becomes lattice
arithmetic.  No element-level representation of G exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantViolationError
from .lattice import QuotientGroup, Sublattice, quotient_structure, rational_shifted_cone_nonempty
from .semigroup import AffineSemigroup, FacetPrime, Vec, WeightedAction


@dataclass(frozen=True, eq=False)
class SubgroupOfA:
    """Subgroup of the character group A, canonical lattice representation.

    The lattice lives in Z^k (k = free rank + torsion length) and always
    contains the torsion relation lattice, so equal subgroups have equal
    representations.  Equality compares the character group shape and the
    lattice; the carrying action is incidental.
    """

    action: WeightedAction
    lattice: Sublattice

    def _key(self):
        return (self.action.free_rank, self.action.torsion_moduli, self.lattice)

    def __eq__(self, other):
        if not isinstance(other, SubgroupOfA):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def generated_by(action: WeightedAction, chars: list[Vec]) -> "SubgroupOfA":
        rel = action.relation_lattice()
        cols = [tuple(c) for c in chars] + list(rel.basis)
        return SubgroupOfA(action, Sublattice.from_columns(cols, action.char_length))

    @staticmethod
    def full(action: WeightedAction) -> "SubgroupOfA":
        return SubgroupOfA(action, Sublattice.full(action.char_length))

    @staticmethod
    def trivial(action: WeightedAction) -> "SubgroupOfA":
        return SubgroupOfA.generated_by(action, [])

    def contains_subgroup(self, other: "SubgroupOfA") -> bool:
        return self.lattice.contains_lattice(other.lattice)

    def sum(self, other: "SubgroupOfA") -> "SubgroupOfA":
        self._check(other)
        return SubgroupOfA(self.action, self.lattice.sum(other.lattice))

    def intersect(self, other: "SubgroupOfA") -> "SubgroupOfA":
        self._check(other)
        return SubgroupOfA(self.action, self.lattice.intersect(other.lattice))

    def scale(self, m: int) -> "SubgroupOfA":
        rel = self.action.relation_lattice()
        return SubgroupOfA(self.action, self.lattice.scale(m).sum(rel))

    def generators(self) -> list[Vec]:
        """Reduced nonzero generators (Hermite columns, torsion dropped)."""
        out = []
        for col in self.lattice.basis:
            red = self.action.reduce_char(col)
            if red != self.action.zero_char and red not in out:
                out.append(red)
        return out

    def _check(self, other: "SubgroupOfA"):
        if self.action.char_length != other.action.char_length:
            raise InputError("subgroups live in different character groups")


@dataclass(frozen=True)
class SubgroupOfG:
    """Closed subgroup of G given by its character annihilator."""

    annihilator: SubgroupOfA

    @property
    def action(self) -> WeightedAction:
        return self.annihilator.action

    def contains(self, other: "SubgroupOfG") -> bool:
        # H1 <= H2 iff B2 <= B1
        return other.annihilator.contains_subgroup(self.annihilator)

    def join(self, other: "SubgroupOfG") -> "SubgroupOfG":
        return SubgroupOfG(self.annihilator.intersect(other.annihilator))

    def is_whole_group(self) -> bool:
        return self.annihilator == SubgroupOfA.trivial(self.action)

    def is_trivial(self) -> bool:
        return self.annihilator == SubgroupOfA.full(self.action)


def perp(x: SubgroupOfA | SubgroupOfG):
    """Orthogonal flip between subgroups of A and closed subgroups of G."""
    if isinstance(x, SubgroupOfA):
        return SubgroupOfG(x)
    return x.annihilator


def whole_group(action: WeightedAction) -> SubgroupOfG:
    return SubgroupOfG(SubgroupOfA.trivial(action))


def trivial_subgroup(action: WeightedAction) -> SubgroupOfG:
    return SubgroupOfG(SubgroupOfA.full(action))


@dataclass(frozen=True)
class FiniteAbelianData:
    """Structure of a finite abelian group: invariant factors and order."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def ineffective_kernel(S: AffineSemigroup, action: WeightedAction) -> SubgroupOfG:
    """Largest subgroup acting trivially: annihilator generated by all weights."""
    gens = [action.raw_weight(h) for h in S.hilbert_basis]
    return SubgroupOfG(SubgroupOfA.generated_by(action, gens))


def inertia_subgroup(
    S: AffineSemigroup, action: WeightedAction, P: FacetPrime
) -> SubgroupOfG:
    """Elements congruent to the identity modulo the facet prime P.

    An element fixes K[S]/P iff it fixes every monomial off P, i.e. its
    annihilator contains the weights of the face generators.
    """
    gens = [action.raw_weight(h) for h in P.face_generators]
    return SubgroupOfG(SubgroupOfA.generated_by(action, gens))


def weight_unit_lattice(generators: tuple[Vec, ...], action: WeightedAction) -> SubgroupOfA:
    """Characters realized with both signs by the monoid that `generators`
    generate: the Hilbert basis of S, or the face generators of a facet.

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


def tor_subgroup(m: int, H: SubgroupOfG) -> SubgroupOfG:
    """{sigma : sigma^m in H}; dually the annihilator is m * B_H."""
    if m < 1:
        raise InputError("tor requires m >= 1")
    return SubgroupOfG(H.annihilator.scale(m))


def restriction_data(H: SubgroupOfG, L: SubgroupOfG) -> FiniteAbelianData | None:
    """Structure of the restriction H|_X = H/(H ∩ L); None when infinite.

    Computed dually as B_L / (B_L ∩ B_H).
    """
    BL = L.annihilator.lattice
    BH = H.annihilator.lattice
    inner = BL.intersect(BH)
    factors = quotient_structure(list(BL.basis), inner)
    if any(d == 0 for d in factors):
        return None
    return FiniteAbelianData(factors)


def quotient_action(action: WeightedAction, H: SubgroupOfG) -> WeightedAction:
    """Action on X // H: same weights, congruences keep only H-invariant weights.

    Monomials surviving the quotient are those whose raw weight lies in the
    annihilator lattice B_H; the membership conditions come from the
    invariant-factor presentation of A / B_H composed with the weight map.
    """
    B = H.annihilator.lattice
    q = QuotientGroup.of(B)
    k = action.char_length
    new_rows: list[tuple[Vec, int]] = []
    u = q.transform  # y = U * (raw weight); row i is constrained mod diag[i]
    diag = q.diag
    for i in range(k):
        urow = u.entries[i]
        coeffs = tuple(
            sum(urow[t] * action.weights[j][t] for t in range(k))
            for j in range(action.ambient_dim)
        )
        m = diag[i] if i < len(diag) else 0
        if m == 1:
            continue
        if m == 0 and all(c == 0 for c in coeffs):
            continue
        new_rows.append((coeffs, m))
    return WeightedAction(
        ambient_dim=action.ambient_dim,
        free_rank=action.free_rank,
        torsion_moduli=action.torsion_moduli,
        weights=action.weights,
        congruences=action.congruences + tuple(new_rows),
    )


def invariant_action(action: WeightedAction) -> WeightedAction:
    """Action restricted to the invariant semigroup (quotient by all of G)."""
    return quotient_action(action, whole_group(action))


def is_stable(S: AffineSemigroup, action: WeightedAction, units: SubgroupOfA) -> bool:
    """Is every Hilbert-basis weight a unit?  `units` is the action's unit
    weight group, `weight_unit_lattice(S.hilbert_basis, action)`."""
    return all(units.lattice.contains(action.raw_weight(h)) for h in S.hilbert_basis)


def pseudo_reflection_group(
    S: AffineSemigroup,
    action: WeightedAction,
    ht1_facets: list[FacetPrime],
    kernel: SubgroupOfG,
    principal_flags: dict[int, bool] | None = None,
) -> SubgroupOfG:
    """Join of the inertia subgroups at height-one-over-height-one facets,
    always joined with the ineffective kernel.

    With `principal_flags` (supplied by the divisor module), facets flagged
    principal are skipped: only facets whose divisor class is nonzero
    qualify.
    """
    out = kernel
    for P in ht1_facets:
        if principal_flags is not None and principal_flags[P.index]:
            continue
        out = out.join(inertia_subgroup(S, action, P))
    return out


def restrict_action_to_subgroup(action: WeightedAction, H: SubgroupOfG) -> WeightedAction:
    """Reinterpret the same variables as a representation of the subgroup H.

    The character group of H is A / B_H; weights map through the canonical
    projection.  Used to run oracles against an action of a subgroup.
    """
    B = H.annihilator.lattice
    q = QuotientGroup.of(B)
    k = action.char_length
    diag = q.diag
    keep = []
    moduli = []
    for i in range(k):
        m = diag[i] if i < len(diag) else 0
        if m == 1:
            continue
        keep.append(i)
        moduli.append(m)
    free_idx = [i for i, m in zip(keep, moduli) if m == 0]
    tor_idx = [i for i, m in zip(keep, moduli) if m != 0]
    new_weights = []
    for j in range(action.ambient_dim):
        y = q.transform.mul_vec(action.weights[j])
        new_weights.append(tuple(y[i] for i in free_idx) + tuple(y[i] for i in tor_idx))
    return WeightedAction(
        ambient_dim=action.ambient_dim,
        free_rank=len(free_idx),
        torsion_moduli=tuple(diag[i] for i in tor_idx),
        weights=tuple(new_weights),
        congruences=action.congruences,
    )


def derived_subgroups(
    S: AffineSemigroup,
    action: WeightedAction,
    qualified: SubgroupOfA,
    two_sided: SubgroupOfA,
) -> dict[str, SubgroupOfG]:
    """The kernels cut out by the unit, qualified, and two-sided weight groups."""
    units = weight_unit_lattice(S.hilbert_basis, action)
    out = {
        "stability_kernel": perp(units),
        "qualified_kernel": perp(qualified),
        "two_sided_kernel": perp(two_sided),
    }
    # pairing sanity: annihilators reverse inclusions
    if not units.contains_subgroup(qualified):
        raise InvariantViolationError("qualified characters must be unit weights")
    return out
