"""End-to-end analysis of one weighted action: reductions, reflection and
obstruction subgroups, the freeness exponent, and the equidimensionality /
cofreeness verdicts with their certificates and oracle cross-checks.

Verdict theory requires an effectively connected group, so an input whose
character group has torsion is first quotiented by the finite component
(fiber dimensions are invariant under finite equivariant quotients), and a
non-stable input is quotiented by the kernel of its unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import add

from .divisors import DivisorContext
from .errors import InputError, InvariantViolationError
from .oracles import (
    INCONCLUSIVE,
    NO,
    YES,
    bounded_freeness_oracle,
    null_fiber_dimension,
)
from .reduced import (
    QualifiedLattice,
    ReducedClassData,
    certified_exponent,
    qualified_lattice,
    reduced_class_groups,
)
from .semigroup import (
    AffineSemigroup,
    Budget,
    Vec,
    WeightedAction,
    build_semigroup,
)
from .subgroups import (
    FiniteAbelianData,
    SubgroupOfA,
    SubgroupOfG,
    is_stable,
    perp,
    pseudo_reflection_group,
    quotient_action,
    restriction_data,
    tor_subgroup,
    unit_weights,
)

UNKNOWN = "unknown-capped"


@dataclass(frozen=True)
class Options:
    sweep_bound: int = 2
    wide_bound: int = 3
    degree_cap: int = 12  # degree bound of the oracle's fiber walk
    max_candidates: int = Budget.max_nodes
    solver_norm_cap: int = Budget.max_norm  # completion-solver breadth-first depth


@dataclass(frozen=True)
class ObstructionData:
    exponent: int
    coprime_part: int
    reflection_part: int
    obstruction: SubgroupOfG
    restriction: FiniteAbelianData


@dataclass(frozen=True)
class CofreeDecision:
    verdict: bool
    swept_characters: int
    witness: Vec | None  # non-free character when verdict is False
    oracle_checked: int


@dataclass(frozen=True)
class Verdict:
    stable: bool
    equidimensional: str  # "yes" | "no" | "unknown-capped"
    cofree: str
    certificates: dict
    null_fiber: tuple[int, bool]
    oracle_agrees: bool


def t_factorization(t: int, reflection_order: int) -> tuple[int, int]:
    """Split t into the part prime to the reflection restriction and the part
    supported on its primes."""
    if t < 1 or reflection_order < 1:
        raise InputError("factorization needs positive inputs")
    refl = 1
    while (g := gcd(t, reflection_order)) > 1:
        t //= g
        refl *= g
    return t, refl


def weight_sweep_points(ctx: DivisorContext, bound: int) -> dict[Vec, Vec]:
    """Each sum of at most `bound` nonzero Hilbert-basis weights, mapped to a
    fiber point: the sum of those Hilbert-basis elements, so no character of
    the sweep is searched.  A character keeps the point of its fewest terms."""
    act = ctx.action
    weights: dict[Vec, Vec] = {}  # nonzero weight -> its first Hilbert-basis element
    for h in ctx.S.hilbert_basis:
        weights.setdefault(act.weight_of(h), h)
    weights.pop(act.zero_char, None)
    points = frontier = {act.zero_char: (0,) * act.ambient_dim}
    for _ in range(bound):
        frontier = {
            act.char_add(c, w): tuple(map(add, a, h))
            for c, a in frontier.items()
            for w, h in weights.items()
        }
        points = frontier | points
    return points


class Analysis:
    """Lazy pipeline over one input action."""

    def __init__(self, action: WeightedAction, options: Options = Options()):
        self.input_action = action
        self.options = options
        self.budget = Budget(max_norm=options.solver_norm_cap, max_nodes=options.max_candidates)

    # -- reductions ---------------------------------------------------------

    @cached_property
    def finite_component(self) -> SubgroupOfG:
        """The finite factor of the group (annihilated by the free characters)."""
        act = self.input_action
        cols = [
            tuple(1 if i == j else 0 for i in range(act.char_length))
            for j in range(act.free_rank)
        ]
        return SubgroupOfG(SubgroupOfA.generated_by(act, cols))

    @cached_property
    def connected_action(self) -> WeightedAction:
        act = self.input_action
        if not act.torsion_moduli:
            return act
        return quotient_action(act, self.finite_component)

    @cached_property
    def finite_reduction_applied(self) -> bool:
        return self.connected_action is not self.input_action

    def _semigroups(self, act: WeightedAction) -> tuple[AffineSemigroup, AffineSemigroup]:
        """S and S_G of an action, from the budget's memo table."""
        return build_semigroup(act, self.budget), build_semigroup(act.invariant_action, self.budget)

    @cached_property
    def input_units(self) -> SubgroupOfA:
        """The unit weights of the connected action."""
        act = self.connected_action
        S, S_G = self._semigroups(act)
        return unit_weights(S.hilbert_basis, S_G.hilbert_basis, act)

    @cached_property
    def input_stable(self) -> bool:
        return is_stable(*self._semigroups(self.connected_action))

    @cached_property
    def action(self) -> WeightedAction:
        """The stabilized, effectively connected action all verdicts refer to.

        Quotienting by perp(U), U the input's unit weights, keeps the part
        S' of S with weights in U.  A unit-weight h in HB(S) and any h' in S
        of weight -wt(h) lie in S', so U, which such wt(h) generate, is the
        unit group of S' (`units`) and holds every weight of S': S' is stable.
        """
        act = self.connected_action
        if self.input_stable:
            return act
        reduced = quotient_action(act, perp(self.input_units))
        if not is_stable(*self._semigroups(reduced)):
            raise InvariantViolationError("stability reduction did not stabilize")
        return reduced

    @cached_property
    def ctx(self) -> DivisorContext:
        return DivisorContext(self.action, self.budget)

    def context_for(self, H: SubgroupOfG) -> DivisorContext:
        """The divisor context of X//H; the ineffective kernel acts
        trivially, so X//kernel is X and shares its context."""
        if H == self.kernel:
            return self.ctx
        return DivisorContext(quotient_action(self.action, H), self.budget)

    # -- group theory of the stabilized action ------------------------------

    @property
    def units(self) -> SubgroupOfA:
        """The unit weights of the stabilized action: the input's (`action`)."""
        return self.input_units

    @property
    def kernel(self) -> SubgroupOfG:
        return self.ctx.kernel

    @cached_property
    def reflection(self) -> SubgroupOfG:
        return pseudo_reflection_group(self.action, self.ctx.ht1_facets(), self.kernel)

    @cached_property
    def reflection_restriction(self) -> FiniteAbelianData:
        data = restriction_data(self.reflection, self.kernel)
        if data is None:
            raise InvariantViolationError("reflection subgroup has infinite restriction")
        return data

    @cached_property
    def qualified(self) -> QualifiedLattice:
        return qualified_lattice(
            self.ctx, self.reflection, self.units, self.options.sweep_bound
        )

    @cached_property
    def reduced(self) -> ReducedClassData:
        return reduced_class_groups(self.ctx, self.qualified, self.options.sweep_bound)

    @cached_property
    def exponent_with_provenance(self) -> tuple[int | None, str]:
        return certified_exponent(self.qualified, self.reduced)

    # -- obstruction subgroup ------------------------------------------------

    @cached_property
    def obstruction(self) -> ObstructionData | None:
        """The obstruction data, when its construction is theorem-backed:
        finite exponent and no height-one facet contracting deep.  A deep
        contraction already certifies non-equidimensionality, and outside
        that regime the restriction order of the quotient's reflection
        subgroup is not controlled by the exponent."""
        t, _prov = self.exponent_with_provenance
        if t is None:
            return None
        if not self.ctx.cls.no_blowing_up:
            return None
        refl_order = self.reflection_restriction.order
        coprime, refl_part = t_factorization(t, refl_order)
        if gcd(coprime, refl_order) != 1:
            raise InvariantViolationError("factorization leaves a common prime")
        # F, the largest subgroup of the reflection group whose restriction
        # order divides a power of refl_part, has annihilator the limit of
        # refl_part^k·B_L + B_R, with B_L ⊇ B_R the annihilators of the kernel
        # and of the reflection group.  Q = B_L/B_R, the character group of
        # the restriction, has order refl_order.  `power`, the part of
        # refl_order on the primes of refl_part, kills the refl_part-primary
        # part of Q and is prime to the order of the rest, on which it acts
        # invertibly; so power·Q = refl_part^k·Q for every large k.
        power = t_factorization(refl_order, refl_part)[1]
        F = SubgroupOfG(self.kernel.annihilator.scale(power).sum(self.reflection.annihilator))
        H = tor_subgroup(coprime, self.kernel).join(tor_subgroup(refl_part, F))
        ctx_h = self.context_for(H)
        obs = pseudo_reflection_group(ctx_h.action, ctx_h.obstructing_facets(), ctx_h.kernel)
        if not obs.contains(self.kernel):
            raise InvariantViolationError("obstruction subgroup misses the kernel")
        restr = restriction_data(obs, self.kernel)
        if restr is None:
            raise InvariantViolationError("obstruction subgroup has infinite restriction")
        return ObstructionData(
            exponent=t,
            coprime_part=coprime,
            reflection_part=refl_part,
            obstruction=obs,
            restriction=restr,
        )

    # -- cofreeness ----------------------------------------------------------

    def decide_cofree(self, ctx: DivisorContext) -> CofreeDecision:
        """Character-by-character freeness over a bounded weight sweep, with
        the bounded-degree oracle required to concur on every character."""
        if not ctx.cls.no_blowing_up:
            return CofreeDecision(False, 0, None, 0)
        act = ctx.action
        points = weight_sweep_points(ctx, self.options.sweep_bound)
        checked = 0
        for chi, a in sorted(points.items()):
            free, _wit = ctx.free_test(a)
            verdict = bounded_freeness_oracle(ctx.S_G, act, chi, self.options.degree_cap)
            if verdict != INCONCLUSIVE:
                checked += 1
                if verdict == NO and free:
                    # a violation inside the slice is conclusive
                    raise InvariantViolationError(
                        f"freeness oracle found a violation at free character {chi}"
                    )
                if verdict == YES and not free:
                    # the slice verdict is cap-conditioned; demand an exact
                    # violator beyond the cap before trusting the engine
                    if ctx.not_free_violator(a) is None:
                        raise InvariantViolationError(
                            f"no freeness violator exists at character {chi}"
                        )
            if not free:
                return CofreeDecision(False, len(points), chi, checked)
        return CofreeDecision(True, len(points), None, checked)

    @cached_property
    def cofree_decision(self) -> CofreeDecision:
        return self.decide_cofree(self.ctx)

    @cached_property
    def obstruction_quotient_cofree(self) -> CofreeDecision | None:
        obs = self.obstruction
        if obs is None:
            return None
        ctx = self.context_for(obs.obstruction)
        return self.cofree_decision if ctx is self.ctx else self.decide_cofree(ctx)

    # -- verdicts --------------------------------------------------------------

    @cached_property
    def verdict(self) -> Verdict:
        t, prov = self.exponent_with_provenance
        nf = null_fiber_dimension(self.ctx.S, self.ctx.S_G)
        certificates: dict = {
            "exponent": t,
            "exponent_provenance": prov,
            "module_exponent": self.reduced.module_exponent,
            "no_codim_one_blowup": self.ctx.cls.no_blowing_up,
            "null_fiber_dimension": nf[0],
            "expected_fiber_dimension": self.ctx.S.rank - self.ctx.S_G.rank,
        }
        if prov == "sweep-unstable":
            equi = UNKNOWN
        elif t is None:
            equi = "no"
            certificates["infinite_order_character"] = self.reduced.infinite_order_character
        elif not certificates["no_codim_one_blowup"]:
            # a deep contraction already refutes equidimensionality
            equi = "no"
            certificates["deep_facet"] = self.ctx.cls.ht2plus[0]
        else:
            qc = self.obstruction_quotient_cofree
            certificates["obstruction_quotient_cofree"] = qc.verdict
            if qc.witness is not None:
                certificates["obstruction_quotient_witness"] = qc.witness
            # an infinite-order module class rules equidimensionality out even
            # when the divisor-side exponent stays finite
            equi = (
                "yes"
                if (qc.verdict and self.reduced.module_exponent is not None)
                else "no"
            )
        cof = self.cofree_decision
        cofree = "yes" if cof.verdict else "no"
        if cof.witness is not None:
            certificates["non_free_character"] = cof.witness
        oracle_ok = equi == UNKNOWN or (equi == "yes") == nf[1]
        return Verdict(
            stable=self.input_stable,
            equidimensional=equi,
            cofree=cofree,
            certificates=certificates,
            null_fiber=nf,
            oracle_agrees=oracle_ok,
        )
