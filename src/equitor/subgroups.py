"""Closed subgroups of the diagonalizable group, handled dually.

A closed subgroup H of G is stored as its character annihilator
B_H = {chi : chi(H) = 1}, a subgroup of the character group A.  The pairing
is perfect over an algebraically closed field of characteristic zero, so
H and B_H determine each other (`SubgroupOfG(B)` one way, `H.annihilator`
the other) and every group-theoretic construction (joins, inertia groups,
torsion pullbacks, restrictions) becomes lattice arithmetic.  No
element-level representation of G exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .lattice import Sublattice, quotient_structure
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

    def contains_subgroup(self, other: "SubgroupOfA") -> bool:
        return self.lattice.contains_lattice(other.lattice)

    def sum(self, other: "SubgroupOfA") -> "SubgroupOfA":
        self._check(other)
        return SubgroupOfA(self.action, self.lattice.sum(other.lattice))

    def intersect(self, other: "SubgroupOfA") -> "SubgroupOfA":
        self._check(other)
        return SubgroupOfA(self.action, self.lattice.intersect(other.lattice))

    def scale(self, m: int) -> "SubgroupOfA":
        """m * B + relations; for m = 1 that is B itself, which holds the
        relation lattice, so it is returned as it is."""
        if m == 1:
            return self
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

    def contains(self, other: "SubgroupOfG") -> bool:
        # H1 <= H2 iff B2 <= B1
        return other.annihilator.contains_subgroup(self.annihilator)

    def join(self, other: "SubgroupOfG") -> "SubgroupOfG":
        return SubgroupOfG(self.annihilator.intersect(other.annihilator))


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


def inertia_subgroup(action: WeightedAction, P: FacetPrime) -> SubgroupOfG:
    """Elements congruent to the identity modulo the facet prime P.

    An element fixes K[S]/P iff it fixes every monomial off P, i.e. its
    annihilator contains the weights of the face generators.
    """
    gens = [action.raw_weight(h) for h in P.face_generators]
    return SubgroupOfG(SubgroupOfA.generated_by(action, gens))


def _support(vectors) -> set[int]:
    """The coordinates on which some vector is nonzero."""
    return {i for v in vectors for i, x in enumerate(v) if x}


def unit_weights(
    generators: tuple[Vec, ...], invariants: tuple[Vec, ...], action: WeightedAction
) -> SubgroupOfA:
    """Characters realized with both signs by S = N^n ∩ L, whose Hilbert
    basis is `generators` and that of its weight-zero part S_G `invariants`;
    or by a face S ∩ {a_c = 0}, given the elements of both inside it.

    The units of a monoid are generated by its unit generators, and wt(h)
    is a unit exactly when supp(h) lies in the union U of the supports of
    `invariants`.  (<=) With g their sum, m*g - h lies in L and is >= 0 for
    m large, so it lies in S with weight -wt(h).  (=>) If h' in S has
    weight -wt(h), h + h' is a sum of invariant generators: supp(h) ⊆ U.
    """
    covered = _support(invariants)
    units = [action.weight_of(h) for h in generators if _support([h]) <= covered]
    return SubgroupOfA.generated_by(action, list(dict.fromkeys(units)))


def tor_subgroup(m: int, H: SubgroupOfG) -> SubgroupOfG:
    """{sigma : sigma^m in H}; dually the annihilator is m * B_H."""
    if m < 1:
        raise InputError("tor requires m >= 1")
    return SubgroupOfG(H.annihilator.scale(m))


def restriction_data(H: SubgroupOfG, L: SubgroupOfG) -> FiniteAbelianData | None:
    """Structure of the restriction H|_X = H/(H ∩ L); None when infinite.

    Dually it is B_L / (B_L ∩ B_H), which by the second isomorphism theorem
    is (B_L + B_H) / B_H: the subgroup of A / B_H that B_L generates.
    """
    factors = quotient_structure(list(L.annihilator.lattice.basis), H.annihilator.lattice)
    return None if 0 in factors else FiniteAbelianData(factors)


def quotient_action(action: WeightedAction, H: SubgroupOfG) -> WeightedAction:
    """Action on X // H: same weights, congruences keep only H-invariant weights
    (`WeightedAction.quotient_by` the annihilator lattice B_H).  The quotient
    by all of G, B_H the relation lattice, is the action's own
    `invariant_action`, so it is built once."""
    B = H.annihilator.lattice
    if B == action.relation_lattice():
        return action.invariant_action
    return action.quotient_by(B)


def is_stable(S: AffineSemigroup, S_G: AffineSemigroup) -> bool:
    """Is every Hilbert-basis weight a unit?  By `unit_weights`, exactly when
    the supports over HB(S) lie inside their union over HB(S_G)."""
    return _support(S.hilbert_basis) <= _support(S_G.hilbert_basis)


def pseudo_reflection_group(
    action: WeightedAction,
    facets: list[FacetPrime],
    kernel: SubgroupOfG,
) -> SubgroupOfG:
    """Join of the inertia subgroups at the given height-one facets, always
    joined with the ineffective kernel.  Over the facets of `ht1_facets()`
    it is the pseudo-reflection group; over `obstructing_facets()` (the
    facets over an invariant prime of nonzero class) the obstruction."""
    out = kernel
    for P in facets:
        out = out.join(inertia_subgroup(action, P))
    return out
