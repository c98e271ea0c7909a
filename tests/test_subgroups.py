import itertools
import random

from equitor.divisors import DivisorContext
from equitor.lattice import Sublattice, quotient_structure
from equitor.oracles import restrict_action_to_subgroup, weight_unit_lattice
from equitor.semigroup import Budget, WeightedAction, build_semigroup
from equitor.subgroups import (
    FiniteAbelianData,
    SubgroupOfA,
    SubgroupOfG,
    ineffective_kernel,
    inertia_subgroup,
    is_stable,
    pseudo_reflection_group,
    quotient_action,
    restriction_data,
    tor_subgroup,
)
from conftest import (
    action_5_7,
    action_5_7_ambient,
    action_5_8,
    ambient_torus_action,
    polynomial_action,
    scaling_action,
    trivial_subgroup,
    whole_group,
)


def rank2_plus_torsion_action():
    """A = Z^2 + Z/3 carrier used for duality property tests."""
    return WeightedAction(
        ambient_dim=1, free_rank=2, torsion_moduli=(3,), weights=((1, 0, 0),)
    )


def random_subgroup(action, rng):
    k = action.char_length
    gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 3))]
    return SubgroupOfA.generated_by(action, gens)


def test_annihilators_reverse_order():
    act = rank2_plus_torsion_action()
    rng = random.Random(19)
    for _ in range(25):
        B1 = random_subgroup(act, rng)
        B2 = random_subgroup(act, rng)
        H1, H2 = SubgroupOfG(B1), SubgroupOfG(B2)
        assert B1.contains_subgroup(B2) == H2.contains(H1)


def test_annihilator_extremes():
    act = rank2_plus_torsion_action()
    k = act.char_length
    full = SubgroupOfA.generated_by(act, [tuple(int(i == j) for i in range(k)) for j in range(k)])
    assert SubgroupOfG(full) == trivial_subgroup(act)
    assert SubgroupOfG(SubgroupOfA.generated_by(act, [])) == whole_group(act)


def test_ineffective_kernel_faithful():
    act = ambient_torus_action()
    S = build_semigroup(act, Budget())
    L = ineffective_kernel(S, act)
    assert L == trivial_subgroup(act)


def test_ineffective_kernel_5_8(fx58):
    S = build_semigroup(fx58, Budget())
    L = ineffective_kernel(S, fx58)
    # the scaling one-torus acts trivially on the quotient: annihilator 0 + Z
    assert L.annihilator.lattice == Sublattice.from_columns([(0, 1)], 2)
    # every Hilbert-basis weight kills it
    for h in S.hilbert_basis:
        assert L.annihilator.lattice.contains(fx58.raw_weight(h))


def test_ineffective_kernel_trivial_group():
    act = polynomial_action(2)
    S = build_semigroup(act, Budget())
    assert ineffective_kernel(S, act) == whole_group(act)


def test_inertia_contains_kernel(fx57, fx58):
    for act in (fx57, fx58, ambient_torus_action()):
        S = build_semigroup(act, Budget())
        L = ineffective_kernel(S, act)
        for P in S.facets:
            assert inertia_subgroup(act, P).contains(L)


def test_inertia_generic_weights():
    act = ambient_torus_action()
    S = build_semigroup(act, Budget())
    for P in S.facets:
        I = inertia_subgroup(act, P)
        # the remaining three weights already span the character group
        assert I == trivial_subgroup(act)


def test_reflection_group_trivial_on_quotients(fx57, fx58):
    for act in (fx57, fx58):
        ctx = DivisorContext(act, Budget())
        L = ineffective_kernel(ctx.S, act)
        refl = pseudo_reflection_group(act, ctx.ht1_facets(), L)
        data = restriction_data(refl, L)
        assert data is not None and data.order == 1


def test_reflection_group_ambient_action():
    act = action_5_7_ambient()
    ctx = DivisorContext(act, Budget())
    L = ineffective_kernel(ctx.S, act)
    refl = pseudo_reflection_group(act, ctx.ht1_facets(), L)
    data = restriction_data(refl, L)
    assert data is not None and data.order == 1


def test_reflection_group_scaling_torus_after_reduction():
    # the scaling torus is not stable; the stabilized action is the point,
    # where the whole group acts ineffectively
    act = scaling_action()
    S = build_semigroup(act, Budget())
    units = weight_unit_lattice(S.hilbert_basis, act)
    assert not is_stable(S, build_semigroup(act.invariant_action, Budget()))
    reduced = quotient_action(act, SubgroupOfG(units))
    S2 = build_semigroup(reduced, Budget())
    ctx = DivisorContext(reduced, Budget())
    L = ineffective_kernel(S2, reduced)
    refl = pseudo_reflection_group(reduced, ctx.ht1_facets(), L)
    assert refl == whole_group(reduced)


def test_tor_subgroup_examples():
    act = WeightedAction(ambient_dim=1, free_rank=1, torsion_moduli=(), weights=((1,),))
    mu2 = SubgroupOfG(SubgroupOfA.generated_by(act, [(2,)]))
    mu4 = tor_subgroup(2, mu2)
    assert mu4.annihilator.lattice == Sublattice.from_columns([(4,)], 1)
    assert tor_subgroup(1, mu2) == mu2
    G = whole_group(act)
    assert tor_subgroup(5, G) == G


def test_tor_brute_force_on_finite_groups():
    # enumerate elements of finite diagonalizable groups of order <= 36 and
    # compare sigma^m in H against the annihilator law
    rng = random.Random(8)
    for moduli in [(2,), (3,), (4,), (6,), (2, 3), (2, 2, 3), (3, 3), (6, 6), (4, 9)]:
        order = 1
        for m in moduli:
            order *= m
        if order > 36:
            continue
        act = WeightedAction(
            ambient_dim=1,
            free_rank=0,
            torsion_moduli=moduli,
            weights=((0,) * len(moduli),),
        )
        k = len(moduli)
        for _ in range(4):
            gens = [tuple(rng.randint(0, 5) for _ in range(k)) for _ in range(2)]
            BH = SubgroupOfA.generated_by(act, gens)
            m = rng.randint(1, 6)
            tor_ann = tor_subgroup(m, SubgroupOfG(BH)).annihilator
            # elements of G are tuples (s_i mod m_i); chi(sigma) trivial iff
            # sum chi_i s_i = 0 mod lcm scaling per coordinate
            elements = list(itertools.product(*[range(mm) for mm in moduli]))

            def kills(chi, sigma):
                from math import lcm

                M = lcm(*moduli)
                return sum(chi[i] * sigma[i] * (M // moduli[i]) for i in range(k)) % M == 0

            in_H = [s for s in elements if all(kills(chi, s) for chi in BH.generators())] or [
                tuple(0 for _ in moduli)
            ]
            power_in_H = [
                s
                for s in elements
                if tuple((m * x) % mm for x, mm in zip(s, moduli)) in set(in_H)
            ]
            via_ann = [
                s for s in elements if all(kills(chi, s) for chi in tor_ann.generators())
            ]
            assert set(power_in_H) == set(via_ann)


def test_restriction_data_examples():
    act = action_5_7()
    S = build_semigroup(act, Budget())
    L = ineffective_kernel(S, act)
    # H contained in the kernel restricts trivially
    assert restriction_data(L, L).order == 1
    # the order-3 torsion subgroup of the torus restricts with order 9
    H = tor_subgroup(3, trivial_subgroup(act))
    data = restriction_data(H, L)
    assert data.invariant_factors == (3, 3)
    # the whole torus has infinite restriction
    assert restriction_data(whole_group(act), L) is None


def test_restriction_data_matches_the_intersection_quotient():
    # the engine reads (B_L + B_H) / B_H; the definition is B_L / (B_L ∩ B_H)
    rng = random.Random(25)
    act = rank2_plus_torsion_action()
    seen = {"infinite": 0, "nontrivial": 0}
    for _ in range(200):
        BH, BL = random_subgroup(act, rng), random_subgroup(act, rng)
        want = quotient_structure(list(BL.lattice.basis), BL.lattice.intersect(BH.lattice))
        got = restriction_data(SubgroupOfG(BH), SubgroupOfG(BL))
        if 0 in want:
            assert got is None
            seen["infinite"] += 1
        else:
            assert got.invariant_factors == want
            seen["nontrivial"] += bool(want)
    assert min(seen.values()) >= 20


def test_quotient_action_trivial_and_full(fx57):
    act = fx57
    S = build_semigroup(act, Budget())
    assert build_semigroup(quotient_action(act, trivial_subgroup(act)), Budget()).hilbert_basis == S.hilbert_basis
    SG = build_semigroup(quotient_action(act, whole_group(act)), Budget())
    assert SG.hilbert_basis == build_semigroup(act.invariant_action, Budget()).hilbert_basis
    assert all(act.weight_of(h) == (0, 0) for h in SG.hilbert_basis)


def test_quotient_of_ambient_reproduces_5_7():
    # quotient of K^4 by the order-3 cyclic factor gives the 5.7 semigroup
    amb = action_5_7_ambient()
    tau = SubgroupOfG(SubgroupOfA.generated_by(amb, [(1, 0, 0), (0, 1, 0)]))
    S_quot = build_semigroup(quotient_action(amb, tau), Budget())
    S_57 = build_semigroup(action_5_7(), Budget())
    assert S_quot.hilbert_basis == S_57.hilbert_basis


def test_stability(fx57, fx58):
    for act, expect in ((fx57, True), (fx58, True), (scaling_action(), False)):
        S = build_semigroup(act, Budget())
        assert is_stable(S, build_semigroup(act.invariant_action, Budget())) == expect


def test_pairing_lemma_on_fixtures(fx57, fx58):
    # for subgroups Gamma, the unit weights of the Gamma-invariant semigroup
    # are exactly B_Gamma intersected with the unit weights
    rng = random.Random(6)
    for act in (fx57, fx58):
        S = build_semigroup(act, Budget())
        units = weight_unit_lattice(S.hilbert_basis, act)
        for _ in range(6):
            B = random_subgroup(act, rng)
            sub = quotient_action(act, SubgroupOfG(B))
            S_sub = build_semigroup(sub, Budget())
            sub_units = weight_unit_lattice(S_sub.hilbert_basis, act)
            assert sub_units == units.intersect(B)


def test_reflection_of_quotient_is_product(fx57, fx58):
    # quotienting by a finite-restriction subgroup joins it into the
    # reflection group
    rng = random.Random(21)
    for act in (action_5_7(), action_5_8()):
        ctx = DivisorContext(act, Budget())
        L = ineffective_kernel(ctx.S, act)
        refl = pseudo_reflection_group(act, ctx.ht1_facets(), L)
        for m in (2, 3):
            N = tor_subgroup(m, L)
            ctx_n = DivisorContext(quotient_action(act, N), Budget())
            act_n = ctx_n.action
            L_n = ineffective_kernel(ctx_n.S, act_n)
            refl_n = pseudo_reflection_group(act_n, ctx_n.ht1_facets(), L_n)
            assert refl_n == N.join(refl)


def test_derived_subgroups():
    # the kernels cut out by the unit and qualified weight groups
    from equitor.pipeline import Analysis

    for act in (action_5_7(), action_5_8()):
        an = Analysis(act)
        ctx, units, qualified = an.ctx, an.units, an.qualified.group
        assert ctx.cls.no_blowing_up
        # both fixtures have trivial reflection restriction, so the qualified
        # lattice is the full unit-weight group
        assert qualified == units
        assert units.contains_subgroup(qualified)
        L = ineffective_kernel(ctx.S, act)
        # the stability kernel acts trivially (the actions are stable)
        assert restriction_data(SubgroupOfG(units), L).order == 1
        # qualified kernel contains the stability kernel dually
        assert SubgroupOfG(qualified).contains(SubgroupOfG(units))

    act = polynomial_action(2)
    ctx = DivisorContext(act, Budget())
    units = weight_unit_lattice(ctx.S.hilbert_basis, act)
    assert SubgroupOfG(units) == whole_group(act)  # the trivial group's only subgroup


def test_restrict_action_to_subgroup():
    act = action_5_7()
    H = SubgroupOfG(SubgroupOfA.generated_by(act, [(3, 0)]))
    sub = restrict_action_to_subgroup(act, H)
    # H = mu_3 x (one-torus): characters Z/3 + Z (one free, one torsion)
    assert sub.free_rank == 1
    assert sub.torsion_moduli == (3,)
    assert sub.ambient_dim == act.ambient_dim
    # weights still add up: the restriction of a product is the product
    a = (1, 0, 2, 1)
    b = (0, 1, 0, 2)
    ab = tuple(x + y for x, y in zip(a, b))
    assert sub.weight_of(ab) == sub.char_add(sub.weight_of(a), sub.weight_of(b))
