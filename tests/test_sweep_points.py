"""Fiber points built by addition, against the searched route.

The reduced sweep gives each character the sum of the points of its signed
basis characters, and the cofree sweep the sum of its Hilbert-basis
elements.  Every class map and freeness test must read the same answer from
that point as from the one `fiber_element` searches for the character.
"""

import json
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equitor.cli import analyze_report, parse_input
from equitor.divisors import DivisorContext
from equitor.errors import CappedComputationError
from equitor.oracles import NO, bounded_freeness_oracle
from equitor.pipeline import Analysis, Options, weight_sweep_points
from equitor.reduced import sweep_points
from equitor.semigroup import WeightedAction
from conftest import fiber_queries, pool_action, repeated_queries

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


def _fixture_analysis(path: Path) -> Analysis:
    return Analysis(*parse_input(json.loads(path.read_text())))


def _check_points(ctx, points):
    act = ctx.action
    for chi, a in points.items():
        assert ctx.S.contains(a) and act.weight_of(a) == chi, chi
        b = ctx.fiber_element(chi)
        assert ctx.char_divisor(a) == ctx.char_divisor(b), chi
        # the module divisor moves by a principal divisor with the point
        moved, searched = ctx.module_divisor(a), ctx.module_divisor(b)
        assert ctx.cl_RG.class_of(moved) == ctx.cl_RG.class_of(searched), chi
        assert ctx.free_test(a) == ctx.free_test(b), chi


def _cross_check(an: Analysis):
    """Check the points of every sweep the analysis runs, built from the
    signed basis points that the analysis itself searched."""
    with fiber_queries() as calls:
        an.verdict
        an.reduced
    ctx, basis, bound = an.ctx, an.qualified.basis_chars(), an.options.sweep_bound
    act = ctx.action
    searched = {key[1]: a for key, a in calls if key[0] == act and key[2:] == ((), ())}
    signed = [(searched[b], searched[act.char_scale(-1, b)]) for b in basis]
    sweeps = [(ctx, sweep_points(act, basis, b, signed)) for b in (bound, bound + 1)]
    contexts = [ctx]
    if an.obstruction is not None:
        contexts.append(an.context_for(an.obstruction.obstruction))
    sweeps += [(c, weight_sweep_points(c, bound)) for c in contexts if c.cls.no_blowing_up]
    for c, points in sweeps:
        _check_points(c, points)


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_summed_points_match_the_searched_points_on_the_fixtures(fixture):
    _cross_check(_fixture_analysis(fixture))


# all five have torsion; orthant #116, #182 and #210 have an obstruction
# quotient with a context of its own, #295 two basis characters, and corpus
# #6 a quotient congruence and an uncertified group, so its wide sweep runs
@pytest.mark.parametrize(
    "pool,index",
    [("orthant", 116), ("orthant", 182), ("orthant", 210), ("orthant", 295), ("corpus", 6)],
    ids=lambda x: str(x),
)
def test_summed_points_match_the_searched_points_on_the_pools(pool, index):
    _cross_check(Analysis(pool_action(pool, index)))


@st.composite
def small_actions(draw):
    n = draw(st.integers(2, 4))
    free_rank = draw(st.integers(1, 2))
    torsion = tuple(draw(st.lists(st.integers(2, 3), max_size=1)))
    k = free_rank + len(torsion)
    weights = tuple(tuple(draw(st.integers(-2, 2)) for _ in range(k)) for _ in range(n))
    congruences = tuple(
        (tuple(draw(st.integers(-2, 2)) for _ in range(n)), draw(st.sampled_from([0, 2, 3])))
        for _ in range(draw(st.integers(0, 1)))
    )
    return WeightedAction(n, free_rank, torsion, weights, congruences)


@settings(max_examples=60, deadline=None)
@given(small_actions())
@example(WeightedAction(4, 2, (), ((1, 0), (-1, 0), (0, 1), (0, -1)), (((1, 1, -1, -1), 3),)))
@example(WeightedAction(3, 1, (3,), ((2, 0), (-1, 2), (0, 2))))
def test_summed_points_match_the_searched_points_on_random_actions(action):
    try:
        an = Analysis(action, Options(solver_norm_cap=32, max_candidates=20000))
        _cross_check(an)
    except CappedComputationError:
        assume(False)


# plain queries (no `equal` or `upper`) the analysis makes outside the
# sweeps: scaling_torus's stabilized action has no facet, so the exact-match
# search of `free_test` at the zero character pins nothing
OUTSIDE_THE_SWEEPS = {"scaling_torus": {(0,)}}


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_the_sweeps_search_only_the_signed_basis_characters(fixture):
    an = _fixture_analysis(fixture)
    with fiber_queries() as calls:
        an.verdict
    act = an.action
    plain = {key[1] for key, _ in calls if key[2:] == ((), ())}
    signed = {act.char_scale(s, b) for b in an.qualified.basis_chars() for s in (1, -1)}
    assert plain == signed | OUTSIDE_THE_SWEEPS.get(fixture.stem, set())
    # freeness is decided by one exact-match search per character: no
    # upper-bounded search runs on the verdict path
    assert not [key for key, _ in calls if key[3]]


# every fixture, `orthant` #295 (two basis characters) and corpus #6,
# whose wide sweep runs
REPEAT_CASES = [("fixture", p) for p in FIXTURES] + [("orthant", 295), ("corpus", 6)]


@pytest.mark.parametrize("pool,index", REPEAT_CASES, ids=lambda x: getattr(x, "stem", str(x)))
def test_no_fiber_query_repeats_within_an_analysis(pool, index):
    # each caller searches a fiber once and hands the point on, so the
    # engine never asks the same query twice
    if pool == "fixture":
        an = _fixture_analysis(index)
    else:
        an = Analysis(pool_action(pool, index))
    with fiber_queries() as calls:
        analyze_report(an)
    assert repeated_queries(calls) == []


@settings(max_examples=150, deadline=None)
@given(small_actions())
@example(WeightedAction(3, 1, (), ((1,), (-1,), (1,))))
def test_free_test_matches_the_violator_search_and_the_module_class(action):
    """On every swept character, with or without a blow-up: the verdict of
    `free_test` is the violator search's, a slice violation means not free,
    and a free module has a principal class."""
    try:
        an = Analysis(action, Options(solver_norm_cap=32, max_candidates=20000))
        ctx = an.ctx
        for chi, a in sorted(weight_sweep_points(ctx, 2).items()):
            free, _wit = ctx.free_test(a)
            assert free == (ctx.not_free_violator(ctx.fiber_element(chi)) is None), chi
            if bounded_freeness_oracle(ctx.S_G, ctx.action, chi, an.options.degree_cap) == NO:
                assert not free, chi
            if free:
                assert ctx.cl_RG.is_principal(ctx.module_divisor(a)), chi
    except CappedComputationError:
        assume(False)


def test_the_violator_searches_only_below_the_point_it_is_handed(monkeypatch):
    # corpus #166 reaches the violator search on its verdict path: it lists
    # the fiber up to the degree of the point `decide_cofree` summed, and
    # searches only below the minimal monomial, never for a point of its own
    real = DivisorContext.not_free_violator
    queries = []

    def spy(self, *args):
        with fiber_queries() as calls:
            out = real(self, *args)
        queries.append(calls)
        return out

    monkeypatch.setattr(DivisorContext, "not_free_violator", spy)
    assert Analysis(pool_action("corpus", 166)).verdict.cofree == "no"
    assert len(queries) == 1 and queries[0]
    assert [key for key, _ in queries[0] if not key[3]] == []
