import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equitor.errors import CappedComputationError, InputError
from equitor.lattice import matrix_rank
from equitor.semigroup import (
    Budget,
    WeightedAction,
    build_semigroup,
    enumerate_fiber,
    fiber_sample,
    hilbert_basis,
)
from equitor.oracles import paired_unit_lattice
from equitor.subgroups import SubgroupOfA, weight_unit_lattice
from conftest import (
    action_5_7,
    action_5_8,
    ambient_torus_action,
    polynomial_action,
    scaling_action,
)


def brute_solutions(congruences, n, cap):
    """All solutions of the congruence system with total degree <= cap."""
    out = []
    for a in itertools.product(range(cap + 1), repeat=n):
        if sum(a) > cap:
            continue
        ok = True
        for coeffs, m in congruences:
            v = sum(c * x for c, x in zip(coeffs, a))
            if (m == 0 and v != 0) or (m != 0 and v % m != 0):
                ok = False
                break
        if ok and any(a):
            out.append(a)
    return out


def brute_minimal(sols):
    mins = []
    for s in sorted(sols, key=sum):
        if not any(all(x >= y for x, y in zip(s, m)) for m in mins):
            mins.append(s)
    return sorted(mins, key=lambda v: (sum(v), v))


def test_hilbert_basis_diagonal():
    assert hilbert_basis((((1, -1), 0),), 2, Budget()) == ((1, 1),)


def test_hilbert_basis_5_8_system():
    # oracle first: enumerate degree <= 8 and reduce
    congs = (((1, 1, 1, -3), 0),)
    expected = brute_minimal(brute_solutions(congs, 4, 8))
    got = hilbert_basis(congs, 4, Budget())
    assert list(got) == expected
    assert len(got) == 10
    assert all(a[3] == 1 for a in got)


def test_hilbert_basis_invariants_5_8():
    congs = (((1, -1, 0, 0), 0), ((2, 0, 1, -3), 0))
    assert hilbert_basis(congs, 4, Budget()) == ((0, 0, 3, 1), (1, 1, 1, 1), (3, 3, 0, 2))


def test_hilbert_basis_congruence_vs_brute():
    congs = (((1, 1, -1, -1), 3),)
    expected = brute_minimal(brute_solutions(congs, 4, 8))
    assert list(hilbert_basis(congs, 4, Budget())) == expected


def test_hilbert_basis_minimality_exhaustive(fx57, fx58):
    for action in (fx57, fx58):
        S = build_semigroup(action, Budget())
        hb = set(S.hilbert_basis)
        for h in hb:
            for u in hb:
                if u != h and all(x <= y for x, y in zip(u, h)):
                    diff = tuple(y - x for x, y in zip(u, h))
                    assert not S.contains(diff) or not any(diff)


def test_build_polynomial_ring():
    S = build_semigroup(polynomial_action(4), Budget())
    assert len(S.hilbert_basis) == 4
    assert S.rank == 4
    assert S.facet_count == 4
    assert [p.coord for p in S.facets] == [0, 1, 2, 3]
    assert all(p.scale == 1 for p in S.facets)


def test_build_5_8_geometry(fx58):
    S = build_semigroup(fx58, Budget())
    assert S.rank == 3
    assert S.facet_count == 3  # the a4 = 0 face meets the cone only at 0
    assert sorted(p.coord for p in S.facets) == [0, 1, 2]
    assert all(p.scale == 1 for p in S.facets)


def test_build_5_7_geometry(fx57):
    S = build_semigroup(fx57, Budget())
    assert S.rank == 4
    assert S.facet_count == 4
    # index-3 lattice, every coordinate still hits 1 on ZS (brute check)
    for coord in range(4):
        hits = set()
        for a in itertools.product(range(-3, 4), repeat=4):
            if (a[0] + a[1] - a[2] - a[3]) % 3 == 0:
                hits.add(a[coord])
        assert 1 in hits
    assert all(p.scale == 1 for p in S.facets)


def test_facet_normal_properties(fx57, fx58):
    for action in (fx57, fx58, polynomial_action(3)):
        S = build_semigroup(action, Budget())
        for P in S.facets:
            vals = [P.value(h) for h in S.hilbert_basis]
            assert all(v >= 0 for v in vals)
            assert any(v == 0 for v in vals)
            zero = [h for h, v in zip(S.hilbert_basis, vals) if v == 0]
            assert matrix_rank(zero) == S.rank - 1


def test_saturation_property(fx57, fx58):
    rng = random.Random(2)
    for action in (fx57, fx58):
        S = build_semigroup(action, Budget())
        for _ in range(60):
            coeffs = [rng.randint(0, 2) for _ in S.hilbert_basis]
            v = tuple(
                sum(c * h[i] for c, h in zip(coeffs, S.hilbert_basis))
                for i in range(S.ambient_dim)
            )
            if sum(v) <= 12:
                assert S.contains(v)
        # random lattice members in the cone of degree <= 12 are in S
        count = 0
        for a in itertools.product(range(4), repeat=4):
            if sum(a) <= 12 and S.lattice.contains(a):
                assert S.contains(a)
                count += 1
        assert count > 0


def test_weight_of(fx58):
    action = fx58
    assert action.weight_of((0, 0, 0, 0)) == (0, 0)
    # on the constrained semigroup the first component vanishes
    assert action.weight_of((1, 0, 2, 1)) == (0, 1)
    rng = random.Random(9)
    for _ in range(30):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        ab = tuple(x + y for x, y in zip(a, b))
        assert action.weight_of(ab) == action.char_add(action.weight_of(a), action.weight_of(b))


def test_fiber_sample(fx58):
    action = fx58
    S = build_semigroup(action, Budget())
    assert fiber_sample(action, (0, 0), budget=Budget()) is not None
    a = fiber_sample(action, (0, 1), budget=Budget())
    assert a is not None
    assert S.contains(a)
    assert action.weight_of(a) == (0, 1)
    # weights outside the realized group have empty fibers
    assert fiber_sample(action, (1, 0), budget=Budget()) is None
    assert fiber_sample(action, (2, 3), budget=Budget()) is None


def test_fiber_sample_unrealized_certified_by_saturation(fx58):
    # the realized weights at small degree already generate 0 + Z; nothing
    # with a nonzero first coordinate ever appears
    action = fx58
    S = build_semigroup(action, Budget())
    seen = {action.weight_of(h) for h in S.hilbert_basis}
    assert all(w[0] == 0 for w in seen)


def test_enumerate_fiber_matches_loop(fx58):
    action = fx58
    got = enumerate_fiber(action, (0, 0), 4, budget=Budget())
    assert (0, 0, 0, 0) in got
    assert (1, 1, 1, 1) in got
    assert (0, 0, 3, 1) in got
    # direct n-fold loop oracle
    brute = []
    for a in itertools.product(range(5), repeat=4):
        if sum(a) <= 4 and a[0] + a[1] + a[2] == 3 * a[3] and a[0] == a[1]:
            brute.append(a)
    assert set(got) == set(brute)


def test_enumerate_fiber_zero_cap(fx57):
    assert enumerate_fiber(fx57, (0, 0), 0, budget=Budget()) == [(0, 0, 0, 0)]


def test_fiber_avoids_prime_trivial_cases():
    action = WeightedAction(
        ambient_dim=2, free_rank=2, torsion_moduli=(), weights=((1, 0), (0, 1))
    )
    S = build_semigroup(action, Budget())
    P1 = next(p for p in S.facets if p.coord == 0)
    assert fiber_sample(action, (0, 0), equal={P1.coord: 0}, budget=Budget()) is not None
    assert fiber_sample(action, (1, 0), equal={P1.coord: 0}, budget=Budget()) is None


def test_fiber_avoids_prime_vs_enumeration(fx58):
    action = fx58
    S = build_semigroup(action, Budget())
    for chi in [(0, 0), (0, 1), (0, -1), (0, 2), (0, 3)]:
        fib = enumerate_fiber(action, chi, 12, budget=Budget())
        for P in S.facets:
            seen_off = any(a[P.coord] == 0 for a in fib)
            got = fiber_sample(action, chi, equal={P.coord: 0}, budget=Budget()) is not None
            if seen_off:
                assert got
        # the enumeration at this cap found a witness whenever one exists
        for P in S.facets:
            if fiber_sample(action, chi, equal={P.coord: 0}, budget=Budget()) is not None:
                assert any(a[P.coord] == 0 for a in fib)


def test_weight_unit_group_trivial_and_positive():
    triv = polynomial_action(3)
    S = build_semigroup(triv, Budget())
    assert weight_unit_lattice(S.hilbert_basis, triv).lattice.rank == 0
    scal = scaling_action()
    Ss = build_semigroup(scal, Budget())
    assert weight_unit_lattice(Ss.hilbert_basis, scal).lattice.rank == 0  # positive grading


def test_weight_unit_group_5_8(fx58):
    S = build_semigroup(fx58, Budget())
    units = weight_unit_lattice(S.hilbert_basis, fx58).lattice
    assert units.contains((0, 1))
    assert not units.contains((1, 0))
    assert units.rank == 1


def test_weight_unit_group_5_7_full(fx57):
    S = build_semigroup(fx57, Budget())
    units = weight_unit_lattice(S.hilbert_basis, fx57).lattice
    assert units.contains((1, 0)) and units.contains((0, 1))


def test_weight_unit_group_matches_paired_system(fx57, fx58):
    for action in (fx57, fx58, ambient_torus_action(), polynomial_action(2)):
        S = build_semigroup(action, Budget())
        assert weight_unit_lattice(S.hilbert_basis, action) == paired_unit_lattice(action, Budget())


def _fiber_search_units(S, action, budget):
    """Unit weights by one fiber search for -w per Hilbert-basis weight w."""
    gens = [
        action.raw_weight(h)
        for h in S.hilbert_basis
        if fiber_sample(action, action.char_scale(-1, action.weight_of(h)), budget=budget)
        is not None
    ]
    return SubgroupOfA.generated_by(action, gens)


@st.composite
def small_actions(draw):
    n = draw(st.integers(1, 3))
    free_rank = draw(st.integers(0, 2))
    torsion = tuple(draw(st.lists(st.integers(2, 3), max_size=1)))
    k = free_rank + len(torsion)
    weights = tuple(tuple(draw(st.integers(-2, 2)) for _ in range(k)) for _ in range(n))
    congruences = tuple(
        (tuple(draw(st.integers(-2, 2)) for _ in range(n)), draw(st.sampled_from([0, 2, 3])))
        for _ in range(draw(st.integers(0, 1)))
    )
    return WeightedAction(n, free_rank, torsion, weights, congruences)


@settings(max_examples=120, deadline=None)
@given(small_actions())
@example(WeightedAction(2, 0, (3,), ((1,), (2,))))  # free rank 0, torsion only
@example(WeightedAction(3, 1, (), ((1,), (-1,), (0,))))  # a zero free part
@example(WeightedAction(3, 1, (2,), ((1, 1), (-1, 0), (0, 1)), (((1, 1, 0), 0),)))  # m = 0
@example(WeightedAction(4, 2, (), ((1, 0), (-1, 0), (0, 1), (0, -1)), (((1, 1, -1, -1), 3),)))
@example(WeightedAction(3, 2, (), ((1, 0), (0, 1), (1, 1))))  # no unit weight
@example(WeightedAction(3, 2, (3,), ((1, 0, 1), (-1, 0, 0), (0, 0, 2)), (((1, 0, 1), 2),)))
def test_weight_unit_lattice_matches_the_fiber_search(action):
    budget = Budget(max_norm=32, max_nodes=20000)
    try:
        S = build_semigroup(action, budget)
        fiber_route = _fiber_search_units(S, action, budget)
        paired = paired_unit_lattice(action, budget)
    except CappedComputationError:
        assume(False)
    units = weight_unit_lattice(S.hilbert_basis, action)
    assert units == fiber_route == paired


@settings(max_examples=80, deadline=None)
@given(small_actions())
@example(WeightedAction(3, 1, (), ((1,), (-1,), (1,))))  # a deep facet
@example(WeightedAction(3, 1, (2,), ((1, 1), (-1, 0), (0, 1)), (((1, 1, 0), 0),)))
def test_face_unit_lattice_matches_the_paired_system(action):
    # U(wt(S_P)) from the face generators, against the paired-system route
    # on the face semigroup S_P: the action with the extra row a_coord = 0
    budget = Budget(max_norm=32, max_nodes=20000)
    n = action.ambient_dim
    try:
        S = build_semigroup(action, budget)
        paired = []
        for P in S.facets:
            row = tuple(int(j == P.coord) for j in range(n))
            face = replace(action, congruences=action.congruences + ((row, 0),))
            paired.append(paired_unit_lattice(face, budget))
    except CappedComputationError:
        assume(False)
    for P, want in zip(S.facets, paired):
        assert weight_unit_lattice(P.face_generators, action) == want


def test_action_validation():
    with pytest.raises(InputError):
        WeightedAction(ambient_dim=2, free_rank=1, torsion_moduli=(), weights=((1,),))
    with pytest.raises(InputError):
        WeightedAction(
            ambient_dim=1, free_rank=1, torsion_moduli=(1,), weights=((1, 0),)
        )
    with pytest.raises(InputError):
        WeightedAction(
            ambient_dim=1,
            free_rank=1,
            torsion_moduli=(),
            weights=((1,),),
            congruences=(((1, 1), 2),),
        )


def test_weight_reduction_mod_torsion():
    a = WeightedAction(
        ambient_dim=1, free_rank=0, torsion_moduli=(3,), weights=((5,),)
    )
    assert a.weights == ((2,),)
    assert a.weight_of((4,)) == (2,)


def test_capped_build_does_not_depend_on_call_history(fx58):
    with pytest.raises(CappedComputationError) as fresh:
        build_semigroup(fx58, Budget(max_norm=2))
    assert fresh.value.cap == 2
    assert build_semigroup(fx58, Budget()).hilbert_basis
    with pytest.raises(CappedComputationError) as again:
        build_semigroup(fx58, Budget(max_norm=2))
    assert again.value.cap == 2


def test_coset_search_runs_under_the_budget_node_cap():
    # weight 7 from weights 2, 3, 5: a bounded fiber reached by the coset search
    action = WeightedAction(ambient_dim=3, free_rank=1, torsion_moduli=(), weights=((2,), (3,), (5,)))
    with pytest.raises(CappedComputationError) as err:
        fiber_sample(action, (7,), budget=Budget(max_nodes=1))
    assert (err.value.what, err.value.cap) == ("coset search (candidates)", 1)
    a = fiber_sample(action, (7,), budget=Budget())
    assert min(a) >= 0 and action.weight_of(a) == (7,)


def test_fiber_sample_bounds_match_enumeration(fx58):
    budget = Budget()
    for chi in [(0, 0), (0, 1), (0, -1), (0, 3)]:
        fib = enumerate_fiber(fx58, chi, 12, budget=Budget())
        for coord in range(fx58.ambient_dim):
            for bound in range(3):
                got = fiber_sample(fx58, chi, upper={coord: bound}, degree_limit=12, budget=budget)
                want = [a for a in fib if a[coord] <= bound]
                assert (got is None) == (not want)
                if got is not None:
                    assert got[coord] <= bound and sum(got) <= 12
                    assert fx58.weight_of(got) == fx58.reduce_char(chi)


@st.composite
def graded_fibers(draw):
    """A small action whose first weight coordinate is positive on every
    variable, so each fiber is finite, with a character to query."""
    n = draw(st.integers(1, 4))
    free_rank = draw(st.integers(1, 2))
    torsion = tuple(draw(st.lists(st.sampled_from([2, 3]), max_size=1)))
    k = free_rank + len(torsion)
    weights = tuple(
        (draw(st.integers(1, 3)),) + tuple(draw(st.integers(-3, 3)) for _ in range(k - 1))
        for _ in range(n)
    )
    congruences = tuple(
        (tuple(draw(st.integers(-3, 3)) for _ in range(n)), draw(st.sampled_from([0, 2, 3])))
        for _ in range(draw(st.integers(0, 1)))
    )
    chi = (draw(st.integers(0, 7)),) + tuple(draw(st.integers(-3, 3)) for _ in range(k - 1))
    return WeightedAction(n, free_rank, torsion, weights, congruences), chi


@settings(max_examples=150, deadline=None)
@given(graded_fibers())
def test_fiber_sample_decides_finite_fibers(case):
    # a weight-chi element has degree <= chi[0], so the slice at that degree
    # holds the whole fiber
    action, chi = case
    fib = enumerate_fiber(action, chi, chi[0], budget=Budget())
    got = fiber_sample(action, chi, budget=Budget())
    assert (got is None) == (not fib)
    if got is not None:
        assert got in fib
