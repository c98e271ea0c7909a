import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equitor.divisors import DivisorContext
from equitor.errors import CappedComputationError
from equitor.lattice import QuotientGroup, matrix_rank
from equitor.oracles import (
    INCONCLUSIVE,
    NO,
    YES,
    bounded_freeness_oracle,
    brute_force_class_order,
    face_lattice,
    null_fiber_dimension,
    t_consistency_check,
)
from equitor.pipeline import Analysis
from equitor.semigroup import Budget, WeightedAction, build_semigroup
from conftest import (
    action_5_7,
    action_5_8,
    ambient_torus_action,
    fiber_queries,
    polynomial_action,
    pool_actions,
)


def semigroup_pair(action):
    return build_semigroup(action, Budget()), build_semigroup(action.invariant_action, Budget())


def test_null_fiber_trivial_group():
    S, SG = semigroup_pair(polynomial_action(3))
    assert null_fiber_dimension(S, SG) == (0, True)


def test_null_fiber_ambient_torus():
    # invariants K[x1 x2, x3 x4]: null fiber has dimension 2 = 4 - 2
    S, SG = semigroup_pair(ambient_torus_action())
    dim, ok = null_fiber_dimension(S, SG)
    assert (dim, ok) == (2, True)
    # cross-check by enumerating all coordinate faces directly
    assert len(face_lattice(S)) == 16


def test_null_fiber_5_7_and_5_8(fx57, fx58):
    for act, expected_dim in ((fx57, 2), (fx58, 1)):
        S, SG = semigroup_pair(act)
        dim, ok = null_fiber_dimension(S, SG)
        assert ok
        assert dim == expected_dim == S.rank - SG.rank


def test_null_fiber_non_equidimensional():
    act = WeightedAction(
        ambient_dim=4, free_rank=1, torsion_moduli=(), weights=((1,), (1,), (-1,), (-1,))
    )
    S, SG = semigroup_pair(act)
    dim, ok = null_fiber_dimension(S, SG)
    assert dim == 2 and not ok  # expected generic dimension is 1


def test_null_fiber_monotone_under_more_invariants(fx57):
    # enlarging the invariant semigroup cannot increase the null fiber
    act = ambient_torus_action()
    S = build_semigroup(act, Budget())
    SG_small = build_semigroup(act.invariant_action, Budget())
    SG_big = S  # pretend the whole thing is invariant
    d_small, _ = null_fiber_dimension(S, SG_small)
    d_big, _ = null_fiber_dimension(S, SG_big)
    assert d_big <= d_small


def _all_faces_ranked(S, S_G):
    """The null-fiber dimension by ranking every face, then scanning them by
    rank for the largest that carries no invariants."""
    hb = S.hilbert_basis
    ranked = sorted(
        (matrix_rank([hb[i] for i in idx]), sorted(idx), coords) for idx, coords in face_lattice(S)
    )
    best = 0
    for rank, _idx, coords in ranked:
        if rank > best and not any(
            any(h) and all(h[c] == 0 for c in coords) for h in S_G.hilbert_basis
        ):
            best = rank
    return best, best == S.rank - S_G.rank


@st.composite
def small_actions(draw):
    n = draw(st.integers(1, 4))
    free = draw(st.integers(0, 2))
    moduli = tuple(draw(st.lists(st.integers(2, 3), max_size=1)))
    k = free + len(moduli)
    weights = tuple(draw(st.tuples(*[st.integers(-2, 2)] * k)) for _ in range(n))
    return WeightedAction(n, free, moduli, weights, ())


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_null_fiber_dimension_matches_the_all_faces_scan(act):
    try:
        S, S_G = semigroup_pair(act)
    except CappedComputationError:
        assume(False)
    assert null_fiber_dimension(S, S_G) == _all_faces_ranked(S, S_G)


@pytest.mark.parametrize("pool", ["orthant", "corpus"])
def test_null_fiber_dimension_matches_the_all_faces_scan_on_a_pool_sample(pool):
    # every 5th action of the pool, the ones whose semigroups build
    checked = 0
    for act in pool_actions(pool)[::5]:
        try:
            S, S_G = semigroup_pair(act)
        except CappedComputationError:
            continue
        assert null_fiber_dimension(S, S_G) == _all_faces_ranked(S, S_G)
        checked += 1
    assert checked >= 40


def test_bounded_freeness_oracle_basics(fx58):
    act = fx58
    _S, SG = semigroup_pair(act)
    assert bounded_freeness_oracle(SG, act, (0, 0), 8) == YES
    assert bounded_freeness_oracle(SG, act, (0, 1), 12) == NO
    assert bounded_freeness_oracle(SG, act, (1, 0), 12) == INCONCLUSIVE


def test_bounded_freeness_agrees_with_divisor_test(fx57, fx58):
    for act in (fx57, fx58):
        ctx = DivisorContext(act, Budget())
        chars = set()
        for h in ctx.S.hilbert_basis:
            w = act.weight_of(h)
            chars.add(w)
            chars.add(act.char_scale(-1, w))
            chars.add(act.char_scale(2, w))
        for chi in sorted(chars):
            verdict = bounded_freeness_oracle(ctx.S_G, act, chi, 12)
            if verdict == INCONCLUSIVE:
                continue
            assert (verdict == YES) == ctx.free_test(ctx.fiber_element(chi))[0], chi


def test_brute_force_class_order_examples(fx58):
    S = build_semigroup(fx58, Budget())
    assert brute_force_class_order(S, (0, 0, 0), 5) == 1
    assert brute_force_class_order(S, (1, 0, 0), 5) == 3
    assert brute_force_class_order(S, (1, 1, 0), 5) == 3
    assert brute_force_class_order(S, (1, 2, 0), 5) == 1
    assert brute_force_class_order(S, (1, 1, 1), 5) == 1


def test_brute_force_matches_lattice_orders(fx57, fx58):
    rng = random.Random(14)
    for act in (action_5_7(), action_5_8()):
        S = build_semigroup(act, Budget())
        image_cols = [S.valuation_vector(c) for c in S.lattice.basis]
        from equitor.lattice import Sublattice

        image = Sublattice.from_columns(image_cols, S.facet_count)
        for _ in range(50):
            D = tuple(rng.randint(-4, 4) for _ in range(S.facet_count))
            exact = QuotientGroup.of(image).order_of(D)
            brute = brute_force_class_order(S, D, 12)
            if exact is not None and exact <= 12:
                assert brute == exact
            else:
                assert brute is None


def test_t_consistency_check_searches_only_the_signed_basis_characters(fx57, fx58):
    # the sweep's points are sums of the signed basis points, scaled by t
    for act in (fx57, fx58):
        an = Analysis(act)
        t = an.reduced.module_exponent
        basis = an.qualified.basis_chars()
        signed = list(dict.fromkeys(act.char_scale(s, b) for b in basis for s in (1, -1)))
        with fiber_queries() as calls:
            assert t_consistency_check(an.ctx, an.qualified, t, an.options.wide_bound)
        assert [key[1] for key, _ in calls if key[2:] == ((), ())] == signed
