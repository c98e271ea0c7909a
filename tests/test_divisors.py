import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equitor.divisors import (
    HT1,
    HT2PLUS,
    ClassGroupData,
    DivisorContext,
    DivisorVector,
    classify_facets,
)
from equitor.errors import CharacterNotRealizedError, InvariantViolationError
from equitor.oracles import min_free_multiple
from equitor.semigroup import Budget, WeightedAction, build_semigroup
from equitor.subgroups import is_stable
from conftest import (
    action_5_7,
    action_5_8,
    fiber_queries,
    polynomial_action,
    ramification_lattice,
    scaling_action,
)


def ctx_of(action):
    return DivisorContext(action, Budget())


def test_classify_trivial_group():
    ctx = ctx_of(polynomial_action(3))
    assert all(f.tier == HT1 and f.ram_index == 1 for f in ctx.cls.facets)
    assert all(len(fib) == 1 for fib in ctx.cls.fibers)


def test_classify_refuses_an_unstable_action():
    # on both the invariants are the constants, so every facet has height
    # zero; on the second, M_1 = span(x, y) is not free although Cl(K) = 0
    for act in (scaling_action(), WeightedAction(2, 1, (), ((1,), (1,)))):
        with pytest.raises(InvariantViolationError, match="the action is not stable"):
            ctx_of(act)


@st.composite
def small_actions(draw):
    n = draw(st.integers(1, 3))
    free_rank = draw(st.integers(1, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    weight = st.tuples(*[st.integers(-2, 2)] * (free_rank + len(torsion)))
    weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.sampled_from([2, 3]))
    congruences = tuple(draw(st.lists(row, max_size=1)))
    return WeightedAction(n, free_rank, torsion, weights, congruences)


@settings(max_examples=150, deadline=None)
@given(small_actions())
@example(scaling_action())
@example(WeightedAction(2, 1, (), ((1,), (1,))))
@example(WeightedAction(3, 2, (), ((1, 2), (2, -1), (-2, -2)), (((1, -1, -1), 3),)))
def test_a_context_builds_exactly_on_a_stable_action(act):
    # only the candidate cap bounds the work: the last example is stable,
    # and its invariant semigroup needs norm 68, past the default depth cap
    budget = Budget(max_norm=10**6)
    stable = is_stable(build_semigroup(act, budget), build_semigroup(act.invariant_action, budget))
    try:
        DivisorContext(act, budget)
    except InvariantViolationError as e:
        assert not stable and str(e) == "the action is not stable"
    else:
        assert stable


def test_classify_5_8(fx58):
    ctx = ctx_of(fx58)
    assert [f.tier for f in ctx.cls.facets] == [HT1, HT1, HT1]
    # fibers partition the height-one facets
    flat = sorted(i for fib in ctx.cls.fibers for i in fib)
    assert flat == [0, 1, 2]
    assert sorted(map(len, ctx.cls.fibers)) == [1, 2]
    assert all(f.ram_index == 1 for f in ctx.cls.facets)
    assert ctx.cls.no_blowing_up


def test_classify_5_7(fx57):
    ctx = ctx_of(fx57)
    assert [f.tier for f in ctx.cls.facets] == [HT1] * 4
    assert sorted(map(len, ctx.cls.fibers)) == [2, 2]
    assert ctx.cls.no_blowing_up


def deep_contraction_action():
    """K^3 with weights (1,-1,1): the middle facet contracts to height two."""
    return WeightedAction(
        ambient_dim=3, free_rank=1, torsion_moduli=(), weights=((1,), (-1,), (1,))
    )


def test_classify_deep_contraction():
    ctx = ctx_of(deep_contraction_action())
    tiers = {ctx.S.facets[i].coord: f.tier for i, f in enumerate(ctx.cls.facets)}
    assert tiers == {0: HT1, 1: HT2PLUS, 2: HT1}
    assert not ctx.cls.no_blowing_up


def test_free_test_under_a_blow_up_checks_the_class_one_way():
    # R^G = K[xy, yz] has Cl = 0, so every module class is principal
    ctx = ctx_of(deep_contraction_action())
    assert ctx.cl_RG.invariant_factors == ()
    # M_1 = (x, z) R^G: principal class, yet not free, and no raise
    assert ctx.cl_RG.is_principal(ctx.module_divisor(ctx.fiber_element((1,))))
    assert ctx.free_test(ctx.fiber_element((1,))) == (False, None)
    # M_-1 = y R^G
    assert ctx.free_test(ctx.fiber_element((-1,))) == (True, (0, 1, 0))


def test_ramification_index_two():
    # sign flip on one variable: K[x] over K[x^2]
    action = WeightedAction(
        ambient_dim=1, free_rank=0, torsion_moduli=(2,), weights=((1,),)
    )
    ctx = ctx_of(action)
    assert [f.tier for f in ctx.cls.facets] == [HT1]
    assert ctx.cls.facets[0].ram_index == 2
    # contraction of x*K[x] is x^2*K[x^2]: ceil(1/2) = 1
    D = ctx.contraction_divisor((1,))
    assert D.coeffs == (1,)
    assert ctx.contraction_divisor((0,)).coeffs == (0,)


def test_contraction_zero_ideal(fx58):
    ctx = ctx_of(fx58)
    z = ctx.contraction_divisor((0,) * ctx.S.facet_count)
    assert z.coeffs == (0,) * ctx.S_G.facet_count


def test_contraction_power_scaling(fx57, fx58):
    # when all valuations are multiples of the ramification indices the
    # contraction scales linearly in the power
    rng = random.Random(4)
    for action in (fx57, fx58):
        ctx = ctx_of(action)
        for _ in range(10):
            vals = []
            for i, f in enumerate(ctx.cls.facets):
                e = f.ram_index if f.tier == HT1 else 1
                vals.append(e * rng.randint(-2, 2))
            vals = tuple(vals)
            base = ctx.contraction_divisor(vals)
            for n in range(1, 6):
                scaled = ctx.contraction_divisor(tuple(n * v for v in vals))
                assert scaled.coeffs == tuple(n * c for c in base.coeffs)


def test_char_divisor_zero_character(fx57, fx58):
    for action in (fx57, fx58):
        ctx = ctx_of(action)
        assert ctx.char_divisor(ctx.fiber_element(action.zero_char)).coeffs == (0,) * ctx.S.facet_count


def test_char_divisor_invariant_realized(fx58):
    ctx = ctx_of(fx58)
    # any character realized by an invariant monomial gets the zero divisor
    assert ctx.char_divisor(ctx.fiber_element((0, 0))).coeffs == (0, 0, 0)


def test_char_divisor_5_8_value(fx58):
    ctx = ctx_of(fx58)
    D = ctx.char_divisor(ctx.fiber_element((0, 1)))
    by_coord = {ctx.S.facets[i].coord: c for i, c in enumerate(D.coeffs)}
    assert by_coord == {0: 1, 1: 0, 2: 0}


def test_char_divisor_5_7_value(fx57):
    ctx = ctx_of(fx57)
    D = ctx.char_divisor(ctx.fiber_element((1, 0)))
    by_coord = {ctx.S.facets[i].coord: c for i, c in enumerate(D.coeffs)}
    assert by_coord == {0: 1, 1: 0, 2: 0, 3: 0}


def test_char_divisor_unrealized(fx58):
    ctx = ctx_of(fx58)
    with pytest.raises(CharacterNotRealizedError):
        ctx.char_divisor(ctx.fiber_element((1, 0)))


def test_char_divisor_independence_across_fibers(fx57, fx58):
    # recompute from several distinct fiber elements by brute enumeration
    from equitor.semigroup import enumerate_fiber

    for action, chars in (
        (action_5_7(), [(1, 0), (0, 1), (1, 1), (2, -1)]),
        (action_5_8(), [(0, 1), (0, -1), (0, 2)]),
    ):
        ctx = ctx_of(action)
        for chi in chars:
            D = ctx.char_divisor(ctx.fiber_element(chi))
            fib = enumerate_fiber(action, chi, 10)
            assert len(fib) >= 2
            for a in fib[:4]:
                assert ctx._char_divisor_from(a) == D


def test_class_group_polynomial_ring():
    ctx = ctx_of(polynomial_action(4))
    assert ctx.cl_R.invariant_factors == ()


def test_class_group_5_8(fx58):
    ctx = ctx_of(fx58)
    assert ctx.cl_R.invariant_factors == (3,)
    assert ctx.cl_RG.invariant_factors == (3,)


def test_class_group_5_7(fx57):
    ctx = ctx_of(fx57)
    assert ctx.cl_R.invariant_factors == (3,)
    assert ctx.cl_RG.invariant_factors == (3,)


def test_module_class_zero_for_invariant_characters(fx57, fx58):
    for action in (action_5_7(), action_5_8()):
        ctx = ctx_of(action)
        assert ctx.cl_RG.order_of(ctx.module_divisor(ctx.fiber_element(action.zero_char))) == 1


def test_module_class_order_3(fx58):
    ctx = ctx_of(fx58)
    a = ctx.fiber_element((0, 1))
    assert ctx.cl_RG.order_of(ctx.module_divisor(a)) == 3
    assert ctx.cl_R.order_of(ctx.char_divisor(a)) == 3


def test_stanley_test_5_7(fx57):
    ctx = ctx_of(fx57)
    free, wit = ctx.free_test(ctx.fiber_element((0, 0)))
    assert free and wit == (0, 0, 0, 0)
    free, wit = ctx.free_test(ctx.fiber_element((1, 0)))
    assert not free
    free, wit = ctx.free_test(ctx.fiber_element((3, 0)))
    assert free
    assert ctx.action.weight_of(wit) == (3, 0)


def test_stanley_test_5_8(fx58):
    ctx = ctx_of(fx58)
    assert not ctx.free_test(ctx.fiber_element((0, 1)))[0]
    assert not ctx.free_test(ctx.fiber_element((0, 2)))[0]
    free, wit = ctx.free_test(ctx.fiber_element((0, 3)))
    assert free and ctx.action.weight_of(wit) == (0, 3)


def test_ambient_5_7_torus_cofree_characters():
    # the unconstrained 2-torus on K^4 has every realized character free
    action = WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(),
        weights=((1, 0), (-1, 0), (0, 1), (0, -1)),
    )
    ctx = ctx_of(action)
    for chi in itertools.product(range(-2, 3), repeat=2):
        assert ctx.free_test(ctx.fiber_element(chi))[0]


def test_min_free_multiple(fx57, fx58):
    ctx = ctx_of(action_5_7())
    assert min_free_multiple(ctx, (1, 0)) == 3
    assert min_free_multiple(ctx, (0, 0)) == 1
    ctx8 = ctx_of(action_5_8())
    assert min_free_multiple(ctx8, (0, 1)) == 3


def test_min_free_multiple_searches_its_point_once(fx58):
    # the k-th multiple is read at k times the one searched point
    ctx = ctx_of(fx58)
    with fiber_queries() as calls:
        assert min_free_multiple(ctx, (0, 1)) == 3
    assert [key[1] for key, _ in calls if key[2:] == ((), ())] == [(0, 1)]


def test_char_divisor_scaling(fx57, fx58):
    for action in (action_5_7(), action_5_8()):
        ctx = ctx_of(action)
        units = [(1, 0), (0, 1)] if action is not None else []
        for chi in ([(1, 0), (0, 1)] if action.congruences[0][1] == 3 else [(0, 1)]):
            D = ctx.char_divisor(ctx.fiber_element(chi))
            for m in range(1, 5):
                Dm = ctx.char_divisor(ctx.fiber_element(action.char_scale(m, chi)))
                assert Dm.coeffs == tuple(m * c for c in D.coeffs)


def test_char_divisor_congruence_defect(fx57):
    # the defect of additivity lies in the ramification lattice
    ctx = ctx_of(action_5_7())
    ram = ramification_lattice(ctx)
    rng = random.Random(12)
    count = 0
    for _ in range(60):
        c1 = (rng.randint(-2, 2), rng.randint(-2, 2))
        c2 = (rng.randint(-2, 2), rng.randint(-2, 2))
        s = ctx.action.char_add(c1, c2)
        defect = tuple(
            d - d1 - d2
            for d, d1, d2 in zip(
                ctx.char_divisor(ctx.fiber_element(s)).coeffs,
                ctx.char_divisor(ctx.fiber_element(c1)).coeffs,
                ctx.char_divisor(ctx.fiber_element(c2)).coeffs,
            )
        )
        assert ram.contains(defect)
        count += 1
    assert count >= 50


def test_divisor_embedding_bounded(fx58):
    # the divisorialized module embeds in the big ring: for characters whose
    # negative fiber avoids deep facets, a + c stays in S for small invariant
    # denominators c of the contraction ideal
    action = action_5_8()
    ctx = ctx_of(action)
    for chi in [(0, 1), (0, -1), (0, 2)]:
        a = ctx.fiber_element(chi)
        D = ctx.module_divisor(a)
        # sample monomials of the contraction ideal with small coefficients
        basis = ctx.S_G.lattice.basis
        for combo in itertools.product(range(-3, 4), repeat=len(basis)):
            c = tuple(
                sum(k * col[i] for k, col in zip(combo, basis))
                for i in range(action.ambient_dim)
            )
            vals = ctx.S_G.valuation_vector(c)
            if all(v >= d for v, d in zip(vals, D.coeffs)):
                joined = tuple(x + y for x, y in zip(a, c))
                assert all(x >= 0 for x in joined)


def principal_facet_flags(ctx):
    nf = ctx.S.facet_count
    return {
        P.index: ctx.cl_R.is_principal(DivisorVector("R", tuple(int(i == P.index) for i in range(nf))))
        for P in ctx.S.facets
    }


def test_principal_facet_flags(fx58):
    ctx = ctx_of(action_5_8())
    assert principal_facet_flags(ctx) == {0: False, 1: False, 2: False}
    ctx_poly = ctx_of(polynomial_action(3))
    assert all(principal_facet_flags(ctx_poly).values())
