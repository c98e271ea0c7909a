import random
from dataclasses import replace

import pytest

from equitor.divisors import DivisorContext
from equitor.oracles import paired_unit_lattice
from equitor.pipeline import Analysis
from equitor.reduced import (
    qualified_lattice,
    reduced_class_groups,
    sweep_chars,
    t_consistency_check,
)
from equitor.semigroup import WeightedAction, fiber_sample
from equitor.subgroups import SubgroupOfA, weight_unit_lattice
from conftest import action_5_7, action_5_8, polynomial_action
from corpus import random_action

# deep-facet instances of the benchmark's pools (seed 20260810), 1-based;
# `orthant` drops the quotient congruences of the same draws
DEEP_SAMPLE = [
    ("orthant", i) for i in (11, 14, 37, 55, 92, 134, 179, 180, 317)
] + [("corpus", i) for i in (14, 28, 32, 37, 92, 152, 206, 214)]


def _pool_action(pool: str, index: int) -> WeightedAction:
    rng = random.Random(20260810)
    for _ in range(index):
        act = random_action(rng)
    return replace(act, congruences=()) if pool == "orthant" else act


def _avoids_deep_facets(ctx: DivisorContext, chi) -> bool:
    """The fiber-search route: the weight-chi fiber has an element with
    a_coord = 0 on the face of every deep facet."""
    for pi in ctx.cls.ht2plus:
        P = ctx.S.facets[pi]
        if fiber_sample(ctx.action, chi, equal={P.coord: 0}, budget=ctx.budget) is None:
            return False
    return True


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


def test_qualified_exact_when_the_sweep_reaches_the_face_units():
    act = WeightedAction(
        ambient_dim=3, free_rank=1, torsion_moduli=(), weights=((1,), (-1,), (1,))
    )
    an = Analysis(act)
    assert not an.ctx.cls.no_blowing_up
    # nothing qualifies: the negative fiber of every candidate meets the
    # deep facet, so Q is trivial and the sweep reaches it
    assert an.qualified.closed_form == SubgroupOfA.trivial(an.action)
    assert an.qualified.basis_chars() == []
    assert an.qualified.provenance == "exact"


@pytest.mark.parametrize("pool,index", DEEP_SAMPLE, ids=lambda x: str(x))
def test_face_units_match_the_fiber_search(pool, index):
    # chi lies in Q exactly when both signed fibers meet every deep face
    an = Analysis(_pool_action(pool, index))
    ctx, act = an.ctx, an.action
    assert not ctx.cls.no_blowing_up
    closed = an.qualified.closed_form
    base = an.units.intersect(an.reflection.annihilator)
    assert base.contains_subgroup(closed)
    for chi in sweep_chars(act, base.generators(), 3):
        both = _avoids_deep_facets(ctx, chi) and _avoids_deep_facets(ctx, act.char_scale(-1, chi))
        assert closed.lattice.contains(chi) == both, chi
    assert closed.contains_subgroup(an.qualified.group)


@pytest.mark.parametrize(
    "pool,index,coord",
    [("orthant", 55, 3), ("orthant", 92, 1), ("orthant", 179, 2), ("corpus", 152, 2)],
    ids=lambda x: str(x),
)
def test_deep_face_units_match_the_paired_system(pool, index, coord):
    # U(wt(S_P)) against the paired-system route on the face semigroup, the
    # action with the extra row a_coord = 0; the paired Hilbert basis is
    # out of the solver's reach on most deep faces of the pools, so these
    # are the deep faces where it finishes quickly
    an = Analysis(_pool_action(pool, index))
    act = an.action
    (P,) = [an.ctx.S.facets[pi] for pi in an.ctx.cls.ht2plus if an.ctx.S.facets[pi].coord == coord]
    row = tuple(int(j == coord) for j in range(act.ambient_dim))
    face = replace(act, congruences=act.congruences + ((row, 0),))
    assert weight_unit_lattice(P.face_generators, act) == paired_unit_lattice(face, an.budget)


def test_qualified_sweep_falls_short_on_pool_92():
    # the bound-2 sweep over the base generators misses (3, 3), which
    # qualifies; the pinned benchmark value of #92 rests on the sweep
    for pool in ("orthant", "corpus"):
        an = Analysis(_pool_action(pool, 92))
        q = an.qualified
        assert q.basis_chars() == []
        assert q.closed_form == SubgroupOfA.generated_by(an.action, [(3, 3)])
        assert q.provenance == "swept"
        assert an.exponent_with_provenance == (1, "swept")


@pytest.mark.parametrize("index", [134, 138], ids=lambda i: f"orthant-{i}")
def test_empty_qualified_basis_is_certified_exact(index):
    # the generated group is {0}, whatever the envelope certificate says;
    # #134 has a deep facet, #138 none
    an = Analysis(_pool_action("orthant", index))
    assert an.qualified.basis_chars() == []
    assert an.reduced.exact
    assert an.exponent_with_provenance[1] == "exact"


def test_qualified_lattice_runs_no_search():
    an = Analysis(_pool_action("orthant", 317))
    ctx, reflection, units = an.ctx, an.reflection, an.units
    assert not ctx.cls.no_blowing_up
    nodes, fibers = an.budget.nodes, dict(an.budget.fibers)
    q = qualified_lattice(ctx, reflection, units, 3)
    assert q.basis_chars() == [(1, 1)] and q.provenance == "exact"
    assert an.budget.nodes == nodes
    assert an.budget.fibers == fibers


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
            candidates.append(act.char_scale(-1, a))
        for chi in candidates:
            assert fiber_sample(act, chi, budget=an.budget) is not None
            assert fiber_sample(act, act.char_scale(-1, chi), budget=an.budget) is not None
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
