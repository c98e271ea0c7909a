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
    sweep_chars,
)
from .semigroup import (
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
    weight_unit_lattice,
)

UNKNOWN = "unknown-capped"


@dataclass(frozen=True)
class Options:
    sweep_bound: int = 2
    wide_bound: int = 3
    degree_cap: int = 12  # oracle degree slices
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


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def t_factorization(t: int, reflection_order: int) -> tuple[int, int]:
    """Split t into the part prime to the reflection restriction and the part
    supported on its primes."""
    if t < 1 or reflection_order < 1:
        raise InputError("factorization needs positive inputs")
    refl = 1
    for p in prime_factors(reflection_order):
        while t % p == 0:
            t //= p
            refl *= p
    return t, refl


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

    @cached_property
    def input_units(self) -> SubgroupOfA:
        """The unit weights of the connected action."""
        act = self.connected_action
        return weight_unit_lattice(build_semigroup(act, self.budget).hilbert_basis, act)

    @cached_property
    def input_stable(self) -> bool:
        act = self.connected_action
        return is_stable(build_semigroup(act, self.budget), act, self.input_units)

    @cached_property
    def _stabilized(self) -> tuple[WeightedAction, SubgroupOfA]:
        """The stabilized action with its unit weights, each computed once."""
        act = self.connected_action
        if self.input_stable:
            return act, self.input_units
        reduced = quotient_action(act, perp(self.input_units))
        S2 = build_semigroup(reduced, self.budget)
        units = weight_unit_lattice(S2.hilbert_basis, reduced)
        if not is_stable(S2, reduced, units):
            raise InvariantViolationError("stability reduction did not stabilize")
        return reduced, units

    @cached_property
    def action(self) -> WeightedAction:
        """The stabilized, effectively connected action all verdicts refer to."""
        return self._stabilized[0]

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
        return self._stabilized[1]

    @property
    def kernel(self) -> SubgroupOfG:
        return self.ctx.kernel

    @cached_property
    def reflection(self) -> SubgroupOfG:
        return pseudo_reflection_group(
            self.ctx.S, self.action, self.ctx.ht1_facets(), self.kernel
        )

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
        # the stabilized torsion part: the largest subgroup of the reflection
        # group whose restriction is supported on the primes of refl_part
        F = self._primary_part(refl_part, self.reflection)
        H = tor_subgroup(coprime, self.kernel).join(tor_subgroup(refl_part, F))
        ctx_h = self.context_for(H)
        obs = pseudo_reflection_group(
            ctx_h.S,
            ctx_h.action,
            ctx_h.ht1_facets(),
            ctx_h.kernel,
            principal_flags=ctx_h.obstructing_facet_flags(),
        )
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

    def _primary_part(self, m: int, subgroup: SubgroupOfG) -> SubgroupOfG:
        """Elements of the subgroup whose restriction order divides a power
        of m: the stabilized value of tor(m^k, G, kernel) ∩ subgroup."""
        BL = self.kernel.annihilator
        BH = subgroup.annihilator
        prev = None
        power = m
        for _ in range(64):
            cur = BL.scale(power).sum(BH)
            if cur == prev:
                return SubgroupOfG(prev)
            prev = cur
            power *= m
        raise InvariantViolationError(f"{m}-primary part did not stabilise in 64 steps")

    # -- cofreeness ----------------------------------------------------------

    def decide_cofree(self, ctx: DivisorContext) -> CofreeDecision:
        """Character-by-character freeness over a bounded weight sweep, with
        the bounded-degree oracle required to concur on every character."""
        if not ctx.cls.no_blowing_up:
            return CofreeDecision(False, 0, None, 0)
        act = ctx.action
        weights = {act.weight_of(h) for h in ctx.S.hilbert_basis} - {act.zero_char}
        chars = {act.zero_char}
        frontier = {act.zero_char}
        for _ in range(self.options.sweep_bound):
            frontier = {act.char_add(c, w) for c in frontier for w in weights}
            chars |= frontier
        checked = 0
        for chi in sorted(chars):
            free, _wit = ctx.free_test(chi)
            verdict = bounded_freeness_oracle(
                ctx.S_G, act, chi, self.options.degree_cap, budget=ctx.budget
            )
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
                    if ctx.not_free_violator(chi) is None:
                        raise InvariantViolationError(
                            f"no freeness violator exists at character {chi}"
                        )
            if not free:
                return CofreeDecision(False, len(chars), chi, checked)
        return CofreeDecision(True, len(chars), None, checked)

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

    # -- theorem-level consistency records ------------------------------------

    def main_theorem_conditions(self) -> dict:
        """The equivalent finiteness / cofreeness / equidimensionality
        conditions, each evaluated independently; they must agree."""
        act = self.action
        v = self.reduced.module_exponent
        finite = v is not None
        conds = {
            "module_side_finite": finite,
            "module_exponent_finite": finite,
            "exponents_equal_finite": finite
            and self.reduced.divisor_exponent == self.reduced.module_exponent,
        }
        if finite:
            ok = True
            for lam in sweep_chars(act, self.qualified.basis_chars(), self.options.sweep_bound):
                if not self.ctx.free_test(act.char_scale(v, lam))[0]:
                    ok = False
                    break
            conds["exponent_multiples_free"] = ok
        else:
            conds["exponent_multiples_free"] = False
        delta = perp(self.qualified.group)
        S_delta = build_semigroup(quotient_action(act, delta), self.budget)
        conds["qualified_quotient_equidimensional"] = null_fiber_dimension(
            S_delta, self.ctx.S_G
        )[1]
        if len(set(conds.values())) != 1:
            raise InvariantViolationError(f"equivalent conditions disagree: {conds}")
        return conds

    def corollary_consistency(self) -> bool | None:
        """On an equidimensional action: cofree iff the obstruction restricts
        trivially.  None when the equidimensionality verdict is undecided."""
        v = self.verdict
        if v.equidimensional == UNKNOWN:
            return None
        if v.equidimensional != "yes":
            return None
        obs = self.obstruction
        if obs is None:
            raise InvariantViolationError("equidimensional verdict without obstruction data")
        return (v.cofree == "yes") == (obs.restriction.order == 1)
