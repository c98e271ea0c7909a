import pytest

from equitor.divisors import DivisorContext
from equitor.pipeline import Analysis
from equitor.reduced import (
    qualified_lattice,
    reduced_class_groups,
    sweep_chars,
    t_consistency_check,
)
from equitor.semigroup import WeightedAction, fiber_sample
from equitor.subgroups import SubgroupOfA
from conftest import action_5_7, action_5_8, polynomial_action


def test_qualified_trivial_group():
    an = Analysis(polynomial_action(2))
    assert an.qualified.basis_chars() == []
    assert an.qualified.provenance == "exact"


def test_qualified_5_7_full_unit_lattice():
    an = Analysis(action_5_7())
    q = an.qualified
    assert q.provenance == "exact"
    lat = q.group.lattice
    assert lat.contains((1, 0)) and lat.contains((0, 1))


def test_qualified_5_8_exact():
    an = Analysis(action_5_8())
    q = an.qualified
    assert q.provenance == "exact"
    assert q.basis_chars() == [(0, 1)]


def test_qualified_swept_when_deep_facets():
    act = WeightedAction(
        ambient_dim=3, free_rank=1, torsion_moduli=(), weights=((1,), (-1,), (1,))
    )
    an = Analysis(act)
    assert an.qualified.provenance == "swept"
    # nothing qualifies: the negative fiber of every candidate meets the deep facet
    assert an.qualified.basis_chars() == []


def test_qualified_basis_members_qualify(fx57, fx58):
    # membership re-tests: basis elements and their pairwise sums are realized
    # with both signs and kill the reflection subgroup
    for act in (action_5_7(), action_5_8()):
        an = Analysis(act)
        basis = an.qualified.basis_chars()
        candidates = list(basis)
        for a in basis:
            for b in basis:
                candidates.append(act.char_add(a, b))
            candidates.append(act.char_neg(a))
        for chi in candidates:
            assert fiber_sample(act, chi, budget=an.budget) is not None
            assert fiber_sample(act, act.char_neg(chi), budget=an.budget) is not None
            assert an.reflection.annihilator.lattice.contains(chi)


def test_reduced_groups_trivial():
    an = Analysis(polynomial_action(2))
    assert an.reduced.divisor_side_factors == ()
    assert an.reduced.module_side_factors == ()
    assert an.reduced.divisor_exponent == 1
    assert an.reduced.module_exponent == 1


def test_reduced_groups_5_7():
    an = Analysis(action_5_7())
    assert an.reduced.divisor_side_factors == (3,)
    assert an.reduced.module_side_factors == (3,)
    assert an.exponent_with_provenance == (3, "exact")


def test_reduced_groups_5_8():
    an = Analysis(action_5_8())
    assert an.reduced.divisor_side_factors == (3,)
    assert an.exponent_with_provenance == (3, "exact")


def test_exponent_equality_asserted(fx57):
    an = Analysis(action_5_7())
    r = an.reduced
    assert r.divisor_exponent == r.module_exponent == 3
    assert r.sweep_stable


def test_infinite_module_side():
    act = WeightedAction(
        ambient_dim=4, free_rank=1, torsion_moduli=(), weights=((1,), (1,), (-1,), (-1,))
    )
    an = Analysis(act)
    assert an.reduced.divisor_exponent == 1
    assert an.reduced.module_exponent is None
    assert an.reduced.module_side_factors == (0,)


def test_t_consistency(fx57, fx58):
    for act in (action_5_7(), action_5_8()):
        an = Analysis(act)
        t, _ = an.exponent_with_provenance
        assert t_consistency_check(an.ctx, an.qualified, t, wide_bound=3)
        # a deliberately truncated exponent fails
        assert not t_consistency_check(an.ctx, an.qualified, t // 3, wide_bound=1)


def test_t_consistency_trivial_group():
    an = Analysis(polynomial_action(2))
    assert t_consistency_check(an.ctx, an.qualified, 1, wide_bound=3)


def test_sweep_chars_dedupes():
    act = action_5_7()
    got = sweep_chars(act, [(1, 0), (2, 0)], 1)
    assert len(got) == len(set(got))
    assert (3, 0) in got and (-3, 0) in got and (0, 0) in got
