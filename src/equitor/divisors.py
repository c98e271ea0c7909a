"""Divisor theory of the pair K[S_G] ⊆ K[S_X]: facet classification over the
invariant ring, ramification indices, contraction of monomial divisors, the
minimal effective divisor of a character, class groups from the facet
presentation, and the rank-one freeness test: one exact-match search,
checked against the class of the module divisor.

The engine only ever needs monomial data: every height-one prime of K[S]
lying over a facet prime of K[S_G] is itself a facet prime, and non-monomial
primes contract with height at most one, so all sums over height-one primes
collapse to sums over facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    CharacterNotRealizedError,
    InputError,
    InvariantViolationError,
)
from .lattice import QuotientGroup, Sublattice, ceil_frac
from .semigroup import (
    AffineSemigroup,
    Budget,
    Vec,
    WeightedAction,
    build_semigroup,
    enumerate_fiber,
    fiber_sample,
)
from .subgroups import ineffective_kernel

HT1 = "ht1"
HT2PLUS = "ht2plus"


@dataclass(frozen=True)
class FacetOverInvariants:
    """How one facet of S_X sits over the invariant semigroup."""

    tier: str
    q_index: int | None = None  # facet of S_G under it, when tier == ht1
    ram_index: int | None = None  # positive generator of u_P(ZS_G), when ht1


@dataclass(frozen=True)
class FacetClassification:
    """Per-facet tiers, fibers over invariant facets, and their columns.

    Every facet of S_X is height-one (over one invariant facet) or deep
    (height >= 2), and every fiber is nonempty (`classify_facets`).  The
    full-fiber column c_q of an invariant facet q has e(P, q) at each facet
    P over q and 0 elsewhere, inside Z^{facets of S_X}: the divisor
    upstairs of the prime q.  Character divisors are additive modulo these
    columns together with the unit vectors at deep facets.
    """

    facets: tuple[FacetOverInvariants, ...]
    fibers: tuple[tuple[int, ...], ...]  # q index -> facet indices of S_X over q
    ht2plus: tuple[int, ...]
    fiber_columns: tuple[Vec, ...]  # q index -> c_q

    @property
    def no_blowing_up(self) -> bool:
        """No codimension jump at height one: no facet of S_X contracts to
        height two or more (every invariant facet has one over it)."""
        return not self.ht2plus


def classify_facets(S_X: AffineSemigroup, S_G: AffineSemigroup) -> FacetClassification:
    """Tier every facet of S_X by the height of its contraction to K[S_G].

    v_P >= 0 on cone(S_G), so P cuts out a face of cone(S_G) whose
    codimension is the height of P's contraction.  Faces compare as their
    zero sets over HB(S_G) do (`_facets_from_basis`), so P's zero set among
    HB(S_G) decides: all of it is height zero, an invariant facet q's zero
    set puts P over q, and any other zero set makes P deep.

    A facet P of height zero has v_P = 0 on all of S_G, and none exists
    exactly when the action is stable.  If it is, each Hilbert-basis
    element h has some h' in S of weight -wt(h), and the invariant sum of
    the h + h' is positive on every facet.  Conversely, if each facet P has
    an invariant g_P with v_P(g_P) > 0, their sum g is positive on every
    facet; for h in S and m large, mg - h lies in ZS with every facet value
    >= 0, so in S (S is saturated), and has weight -wt(h).  So a
    height-zero facet raises: the action is not stable.

    For P over q, v_P and the primitive v_q vanish on the same facet of
    cone(S_G), so v_P = e * v_q on ZS_G with e > 0 the gcd of v_P over a
    basis of ZS_G; a valuation that breaks this raises.

    On any action, every invariant facet q has a facet of S_X over it.
    cone(S_G) is cone(S_X) cut by the rational kernel of the weights (a
    multiple of a rational point of that cut lies in S with weight 0), so q
    lies on the hyperplane v_P = 0 of some facet P of S_X.  The
    Hilbert-basis elements of S_G with v_P = 0 are then those on q, so P
    lies over q.  An empty fiber raises.
    """
    hbg = S_G.hilbert_basis
    facet_of = {q.zero_set: q for q in S_G.facets}
    infos = []
    fibers: list[list[int]] = [[] for _ in S_G.facets]
    ht2plus = []
    for P in S_X.facets:
        zero_idx = frozenset(i for i, h in enumerate(hbg) if P.value(h) == 0)
        if len(zero_idx) == len(hbg):
            raise InvariantViolationError("the action is not stable")
        q = facet_of.get(zero_idx)
        if q is not None:
            e = gcd(*(P.value(col) for col in S_G.lattice.basis))
            if e <= 0:
                raise InvariantViolationError("facet valuation vanishes on the invariant lattice")
            if any(P.value(h) != e * q.value(h) for h in hbg):
                raise InvariantViolationError("facet valuation is not a multiple of the base one")
            infos.append(FacetOverInvariants(HT1, q_index=q.index, ram_index=e))
            fibers[q.index].append(P.index)
        else:
            infos.append(FacetOverInvariants(HT2PLUS))
            ht2plus.append(P.index)
    if not all(fibers):
        raise InvariantViolationError("an invariant facet has no facet over it")
    columns = tuple(
        tuple(infos[pi].ram_index if pi in fiber else 0 for pi in range(S_X.facet_count))
        for fiber in fibers
    )
    return FacetClassification(
        facets=tuple(infos),
        fibers=tuple(tuple(f) for f in fibers),
        ht2plus=tuple(ht2plus),
        fiber_columns=columns,
    )


@dataclass(frozen=True)
class DivisorVector:
    """Weil divisor supported on the facets of one of the two rings."""

    target: str  # "R" or "RG"
    coeffs: Vec

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)


@dataclass(frozen=True)
class ClassGroupData:
    """Divisor class group of K[S] presented as coker(ZS -> Z^facets)."""

    target: str
    facet_count: int
    presentation: Sublattice  # image of the valuation map
    quotient: QuotientGroup

    @staticmethod
    def of(S: AffineSemigroup, target: str) -> "ClassGroupData":
        nf = S.facet_count
        cols = [S.valuation_vector(col) for col in S.lattice.basis]
        image = Sublattice.from_columns(cols, nf)
        if image.rank != S.lattice.rank:
            raise InvariantViolationError("facet valuations do not separate the lattice")
        return ClassGroupData(target, nf, image, QuotientGroup.of(image))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.quotient.invariant_factors

    def class_of(self, D: DivisorVector) -> Vec:
        if D.target != self.target or len(D.coeffs) != self.facet_count:
            raise InputError("divisor does not live on this ring")
        return self.quotient.canonical(D.coeffs)

    def order_of(self, D: DivisorVector) -> int | None:
        if D.target != self.target or len(D.coeffs) != self.facet_count:
            raise InputError("divisor does not live on this ring")
        return self.quotient.order_of(D.coeffs)

    def is_principal(self, D: DivisorVector) -> bool:
        return self.order_of(D) == 1


class DivisorContext:
    """Bundles one stable action with its semigroup pair, ineffective
    kernel, classification, and class groups; `classify_facets` refuses an
    unstable action.  It holds no memo table: every
    solver call runs under `budget`, shared with the analysis that made
    the context.  The class maps, the freeness test and the violator
    search read the weight-chi point `a` their caller passes, and take chi
    as its weight; none of them searches for a point of its own.  The
    sweeps build their points by addition, and a caller with no point
    searches one through `fiber_element`, which keeps no point, and passes
    it on."""

    def __init__(self, action: WeightedAction, budget: Budget):
        self.action = action
        self.budget = budget
        self.S = build_semigroup(action, budget)
        self.S_G = build_semigroup(action.invariant_action, budget)
        self.kernel = ineffective_kernel(self.S, action)
        self.cls = classify_facets(self.S, self.S_G)
        self.cl_R = ClassGroupData.of(self.S, "R")
        self.cl_RG = ClassGroupData.of(self.S_G, "RG")

    # -- fibers ------------------------------------------------------------

    def fiber_element(self, chi: Vec) -> Vec:
        chi = self.action.reduce_char(chi)
        a = fiber_sample(self.action, chi, budget=self.budget)
        if a is None:
            raise CharacterNotRealizedError(f"character {chi} has empty fiber")
        return a

    def second_fiber_element(self, a: Vec) -> Vec | None:
        if not self.S_G.hilbert_basis:
            return None
        g = self.S_G.hilbert_basis[0]
        return tuple(x + y for x, y in zip(a, g))

    # -- the minimal effective divisor of a character ----------------------

    def char_divisor(self, a: Vec) -> DivisorVector:
        """Minimal effective divisor of the character chi = wt(a): the common
        divisor of all weight-chi monomials with every full-fiber multiple
        stripped, read off the weight-chi point `a`."""
        D = self._char_divisor_from(a)
        b = self.second_fiber_element(a)
        if b is not None and self._char_divisor_from(b) != D:
            raise InvariantViolationError("character divisor depends on the fiber element")
        if not D.is_effective:
            raise InvariantViolationError("character divisor not effective")
        self._check_minimality(D)
        return D

    def _char_divisor_from(self, a: Vec) -> DivisorVector:
        vals = self.S.valuation_vector(a)
        coeffs = list(vals)
        for fiber in self.cls.fibers:
            drop = min(vals[pi] // self.cls.facets[pi].ram_index for pi in fiber)
            for pi in fiber:
                coeffs[pi] -= drop * self.cls.facets[pi].ram_index
        for pi in self.cls.ht2plus:
            coeffs[pi] = 0
        return DivisorVector("R", tuple(coeffs))

    def _check_minimality(self, D: DivisorVector):
        for fiber in self.cls.fibers:
            if not any(D.coeffs[pi] < self.cls.facets[pi].ram_index for pi in fiber):
                raise InvariantViolationError("character divisor is not minimal over a facet")

    # -- contraction to the invariant ring ---------------------------------

    def contraction_divisor(self, vals: Vec) -> DivisorVector:
        """Divisor on K[S_G] of the contraction of a monomial fractional ideal
        with the given facet valuations (rounded up fiberwise)."""
        if len(vals) != self.S.facet_count:
            raise InputError("one valuation per facet required")
        coeffs = tuple(
            max(ceil_frac(vals[pi], self.cls.facets[pi].ram_index) for pi in fiber)
            for fiber in self.cls.fibers
        )
        return DivisorVector("RG", coeffs)

    def module_divisor(self, a: Vec) -> DivisorVector:
        """Divisor on K[S_G] of the module of weight-chi elements, chi =
        wt(a), via the contraction of (1/f) K[S] for the weight-chi monomial
        f = x^a.  Its class does not depend on f."""
        D = self.contraction_divisor(tuple(-v for v in self.S.valuation_vector(a)))
        b = self.second_fiber_element(a)
        if b is not None:
            # moving to f * g for invariant g shifts the contraction by div(g)
            D2 = self.contraction_divisor(tuple(-v for v in self.S.valuation_vector(b)))
            shift = self.S_G.valuation_vector(self.S_G.hilbert_basis[0])
            if tuple(x + s for x, s in zip(D2.coeffs, shift)) != D.coeffs:
                raise InvariantViolationError("module divisor depends on the fiber element")
        return D

    # -- freeness ----------------------------------------------------------

    def free_test(self, a: Vec) -> tuple[bool, Vec | None]:
        """Rank-one freeness of the module M_chi over R^G = K[S_G], where
        chi = wt(a) is the weight of the point `a` the caller passes.

        The verdict is one search, for a weight-chi monomial whose valuations
        equal the character divisor away from deep facets: the generator when
        M_chi is free.  It is checked against the class of `module_divisor`
        in Cl(R^G), the generalized Stanley criterion (R. P. Stanley, Invent.
        Math. 68 (1982); W. Bruns, J. Gubeladze, Algebr. Represent. Theory 6
        (2003)).  Both read `a`; no other point is searched.

        The action is stable (`classify_facets` checks it), so weight-chi
        monomials differ by invariant fractions.  The R^G-reflexive hull of
        M_chi is the set of weight-chi h with v_P(h) >= 0 at every
        height-one prime P of R = K[S] that contracts to height <= 1.  For
        h = x^a g that is div(g) >= D on R^G, D = `module_divisor(a)`: a
        facet P over q asks v_q(g) >= ceil(-v_P(a) / e(P, q)), no facet has
        height zero, and a non-monomial prime holds no monomial and
        contracts to height <= 1 (module docstring).  So the hull is x^a
        times the divisorial ideal of D, free exactly when D is principal.
        (=>) on every action: a free M_chi is reflexive, so equals its hull.
        (<=) when nothing blows up: every height-one prime of R contracts to
        height <= 1, so M_chi is its own hull, rank-one reflexive over the
        normal graded ring R^G, and class 0 makes it free.
        (<=) fails under a blow-up: K^3 with weights (1, -1, 1) has R^G =
        K[xy, yz] and Cl(R^G) = 0, yet M_1 = (x, z) R^G is not free.  There
        the check is one-sided; the verdict path never meets it, because
        `decide_cofree` returns before any freeness test when a facet blows up.
        """
        chi = self.action.weight_of(a)
        D = self.char_divisor(a)
        exact = {}
        for P in self.S.facets:
            if self.cls.facets[P.index].tier == HT1:
                exact[P.coord] = P.scale * D.coeffs[P.index]
        w1 = fiber_sample(self.action, chi, equal=exact, budget=self.budget)
        free = w1 is not None
        principal = self.cl_RG.is_principal(self.module_divisor(a))
        if free != principal and (free or self.cls.no_blowing_up):
            raise InvariantViolationError("freeness routes disagree")
        return free, w1

    def not_free_violator(self, a: Vec) -> tuple[Vec, Vec] | None:
        """Exact witness that the module M_chi, chi = wt(a), is not free, or
        None.

        A rank-one-free module is generated by its unique minimal-degree
        monomial, so either two minimal monomials exist, or some fiber
        element drops below the minimal one at a coordinate.  The minimal
        monomials are listed up to the degree of the point `a` the caller
        passes; the only searches are the `upper`-bounded ones below them.
        Independent of the divisor-theoretic freeness route.
        """
        chi = self.action.weight_of(a)
        slice_ = enumerate_fiber(self.action, chi, sum(a))
        dmin = sum(slice_[0])
        mins = [b for b in slice_ if sum(b) == dmin]
        if len(mins) > 1:
            return mins[0], mins[1]
        low = mins[0]
        for i in range(self.action.ambient_dim):
            if low[i] == 0:
                continue
            b = fiber_sample(self.action, chi, upper={i: low[i] - 1}, budget=self.budget)
            if b is not None:
                return low, b
        return None

    # -- facet principality (for the non-principal reflection subgroup) ----

    def obstructing_facets(self) -> list:
        """The height-one facets over an invariant prime of nonzero class.

        Only such a facet can contribute to the module-class subgroup, so
        these (not the facets of nonzero class upstairs) span the
        non-principal reflection subgroup.
        """
        nq = self.S_G.facet_count
        out = []
        for P in self.ht1_facets():
            q = self.cls.facets[P.index].q_index
            if not self.cl_RG.is_principal(DivisorVector("RG", tuple(int(i == q) for i in range(nq)))):
                out.append(P)
        return out

    def ht1_facets(self) -> list:
        return [P for P in self.S.facets if self.cls.facets[P.index].tier == HT1]
