import json
import random
from math import gcd
from pathlib import Path

import pytest

import equitor.oracles
import equitor.pipeline
from equitor.cli import analyze_report, parse_input
from equitor.errors import CappedComputationError, InputError, InvariantViolationError
from equitor.oracles import (
    INCONCLUSIVE,
    YES,
    bounded_freeness_oracle,
    corollary_consistency,
    main_theorem_conditions,
    restrict_action_to_subgroup,
)
from equitor.pipeline import (
    Analysis,
    Options,
    t_factorization,
)
from equitor.semigroup import Budget, WeightedAction, build_semigroup
from equitor.subgroups import (
    ineffective_kernel,
    pseudo_reflection_group,
    quotient_action,
    restriction_data,
    tor_subgroup,
)
from conftest import (
    action_5_7,
    action_5_8,
    polynomial_action,
    pool_action,
    scaling_action,
)


def scaling_nonequidim_action():
    """The classic non-equidimensional 1-torus action on K^4."""
    return WeightedAction(
        ambient_dim=4, free_rank=1, torsion_moduli=(), weights=((1,), (1,), (-1,), (-1,))
    )


def _primes(n):
    """The prime divisors of n, by trial division."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_t_factorization():
    assert t_factorization(3, 1) == (3, 1)
    assert t_factorization(12, 2) == (3, 4)
    assert t_factorization(1, 5) == (1, 1)
    assert t_factorization(18, 6) == (1, 18)
    with pytest.raises(InputError):
        t_factorization(0, 1)
    for R in range(1, 301):
        primes = _primes(R)
        for t in range(1, 301):
            coprime, refl = t_factorization(t, R)
            assert coprime * refl == t
            assert gcd(coprime, R) == 1
            assert _primes(refl) <= primes


def test_stability_reduce():
    an = Analysis(action_5_8())
    act, stable = an.action, an.input_stable
    assert stable and act.congruences == action_5_8().congruences
    an = Analysis(scaling_action())
    red, stable = an.action, an.input_stable
    assert not stable
    S = build_semigroup(red, Budget())
    assert S.hilbert_basis == ()  # reduced to the point
    # idempotent
    an = Analysis(red)
    red2, stable2 = an.action, an.input_stable
    assert stable2 and build_semigroup(red2, Budget()).hilbert_basis == ()


def test_analysis_5_7_values():
    an = Analysis(action_5_7())
    assert an.input_stable
    assert an.ctx.cl_RG.invariant_factors == (3,)
    assert an.reflection_restriction.order == 1
    assert an.exponent_with_provenance == (3, "exact")
    obs = an.obstruction
    assert obs.restriction.invariant_factors == (3, 3)
    assert obs.coprime_part == 3 and obs.reflection_part == 1
    v = an.verdict
    assert v.equidimensional == "yes" and v.cofree == "no"
    assert v.oracle_agrees
    assert an.obstruction_quotient_cofree.verdict
    assert corollary_consistency(an) is True


def test_analysis_5_8_values():
    an = Analysis(action_5_8())
    assert an.input_stable
    assert an.ctx.cl_R.invariant_factors == (3,)
    assert an.reduced.divisor_side_factors == (3,)
    obs = an.obstruction
    assert obs.restriction.invariant_factors == (3,)
    v = an.verdict
    assert v.equidimensional == "yes" and v.cofree == "no"
    assert v.oracle_agrees
    assert corollary_consistency(an) is True


def test_factorial_fixture_obstruction():
    # polynomial ring with a cofree torus: exponent 1, obstruction = kernel
    act = WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(),
        weights=((1, 0), (-1, 0), (0, 1), (0, -1)),
    )
    an = Analysis(act)
    assert an.exponent_with_provenance == (1, "exact")
    obs = an.obstruction
    assert obs.restriction.order == 1
    assert obs.obstruction == an.kernel
    v = an.verdict
    assert v.equidimensional == "yes" and v.cofree == "yes"
    assert corollary_consistency(an) is True


def test_trivial_group_verdicts():
    v = Analysis(polynomial_action(3)).verdict
    assert v.equidimensional == "yes" and v.cofree == "yes" and v.oracle_agrees


def test_non_equidimensional_classic():
    an = Analysis(scaling_nonequidim_action())
    v = an.verdict
    assert v.equidimensional == "no" and v.oracle_agrees
    assert v.cofree == "no"
    assert an.reduced.module_exponent is None
    assert an.exponent_with_provenance[0] is None
    assert an.obstruction is None
    conds = main_theorem_conditions(an)
    assert set(conds.values()) == {False}


def test_main_theorem_all_true_on_fixtures():
    for act in (action_5_7(), action_5_8(), polynomial_action(2)):
        conds = main_theorem_conditions(Analysis(act))
        assert set(conds.values()) == {True}


def test_main_theorem_sweeps_at_the_wide_bound(monkeypatch):
    # the exponent-multiples condition checks the wider sweep, not the
    # analysis's own sweep
    real, bounds = equitor.oracles.t_consistency_check, []

    def spy(ctx, qualified, exponent, wide_bound):
        bounds.append(wide_bound)
        return real(ctx, qualified, exponent, wide_bound)

    monkeypatch.setattr(equitor.oracles, "t_consistency_check", spy)
    options = Options(sweep_bound=2, wide_bound=3)
    assert set(main_theorem_conditions(Analysis(action_5_7(), options)).values()) == {True}
    assert bounds == [3]


def test_main_theorem_all_false_on_an_infinite_module_side():
    # `orthant` #32: the divisor side is finite and the module side is not,
    # and the two module-side conditions are read from different values
    an = Analysis(WeightedAction(4, 1, (), ((3,), (3,), (-3,), (-2,))))
    assert an.reduced.divisor_exponent == 1
    assert an.reduced.module_side_factors == (0,)
    conds = main_theorem_conditions(an)
    assert conds["module_side_finite"] is False
    assert conds["module_exponent_finite"] is False
    assert set(conds.values()) == {False}


def test_corollary_13_check():
    assert corollary_consistency(Analysis(action_5_7())) is True
    assert corollary_consistency(Analysis(scaling_nonequidim_action())) is None


def test_theorem_divisibility_on_fixtures():
    for act in (action_5_7(), action_5_8()):
        an = Analysis(act)
        obs = an.obstruction
        assert (obs.exponent ** 8) % obs.restriction.order == 0


def test_finite_component_reduction():
    # disconnected group: mu_2 sign action is quotiented away first, and the
    # verdict machinery stays consistent with the oracle
    act = WeightedAction(
        ambient_dim=2,
        free_rank=0,
        torsion_moduli=(2,),
        weights=((1,), (0,)),
        congruences=(((1, 1), 2),),
    )
    an = Analysis(act)
    assert an.finite_reduction_applied
    v = an.verdict
    assert v.equidimensional == "yes" and v.cofree == "yes" and v.oracle_agrees
    assert corollary_consistency(an) is True


def test_quotient_singularity_counterexample_shape():
    # 1-torus on the order-3 quotient plane: equidimensional, cofree, and the
    # obstruction restricts trivially even though upstairs facet classes and
    # inertia restrictions are nontrivial
    act = WeightedAction(
        ambient_dim=2, free_rank=1, torsion_moduli=(3,), weights=((-3, 1), (1, 2))
    )
    an = Analysis(act)
    assert an.reflection_restriction.order == 9
    v = an.verdict
    assert v.equidimensional == "yes" and v.cofree == "yes" and v.oracle_agrees
    assert an.obstruction.restriction.order == 1
    assert corollary_consistency(an) is True


def test_corpus_210_obstruction_values():
    # corpus attempt #210, the instance acceptance 6 fails on: the obstruction
    # restricts as Z/6 while t = 3, so |Obs|_X| does not divide t^8.  These
    # are the engine's current values, pinned so a change to any of them
    # shows here and not only inside the corpus-wide assertion.
    an = Analysis(WeightedAction(3, 1, (3,), ((2, 0), (-1, 2), (0, 2))))
    v = an.verdict
    obs = an.obstruction
    assert (v.equidimensional, v.cofree) == ("yes", "no")
    assert (obs.exponent, obs.coprime_part, obs.reflection_part) == (3, 3, 1)
    assert an.reflection_restriction.invariant_factors == (2,)
    assert obs.restriction.invariant_factors == (6,)
    assert 3**8 % obs.restriction.order != 0


def test_reflection_part_fixture_values():
    # the first input with t_reflection > 1: the obstruction is built from
    # the 3-primary part of the Z/3 reflection restriction
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "reflection_part.json"
    an = Analysis(parse_input(json.loads(fixture.read_text()))[0])
    v = an.verdict
    obs = an.obstruction
    assert (v.stable, v.equidimensional, v.cofree) == (True, "yes", "no")
    assert (obs.exponent, obs.coprime_part, obs.reflection_part) == (3, 1, 3)
    assert an.reflection_restriction.invariant_factors == (3,)
    assert obs.restriction.invariant_factors == (9,)
    assert an.reduced.divisor_side_factors == an.reduced.module_side_factors == (3,)
    assert obs.obstruction.annihilator.lattice.basis == ((9,),)


def test_torsion_obstruction_with_a_reflection_part():
    # t_reflection = 2 over a Z/6 reflection restriction; only the
    # obstruction is pinned, since the analysis of X//Obs caps on depth
    an = Analysis(WeightedAction(4, 1, (2,), ((-2, 1), (0, 1), (3, 1), (0, 0)), ()))
    obs = an.obstruction
    assert an.reflection_restriction.invariant_factors == (6,)
    assert (obs.exponent, obs.coprime_part, obs.reflection_part) == (2, 1, 2)
    assert obs.obstruction.annihilator.lattice.basis == ((12, 0), (0, 2))
    assert obs.restriction.invariant_factors == (12,)


def test_obstruction_takes_the_whole_primary_part():
    # t_reflection = 2 over a Z/4 reflection restriction: the 2-primary part
    # of the reflection group is all of it, which 2·B_L + B_R does not reach
    # (with that, X//Obs is not cofree and the verdict turns against the oracle)
    an = Analysis(WeightedAction(3, 1, (), ((0,), (1,), (-2,)), (((-2, 1, 1), 4),)))
    v = an.verdict
    obs = an.obstruction
    assert (v.equidimensional, v.cofree, v.oracle_agrees) == ("yes", "no", True)
    assert an.reflection_restriction.invariant_factors == (4,)
    assert (obs.exponent, obs.coprime_part, obs.reflection_part) == (2, 1, 2)
    assert obs.obstruction.annihilator.lattice.basis == ((8,),)
    assert obs.restriction.invariant_factors == (8,)


@pytest.mark.parametrize(
    "fixture", sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")),
    ids=lambda p: p.stem,
)
def test_kernel_quotient_reuses_the_context(fixture):
    # the ineffective kernel acts trivially, so X//kernel is X: the engine
    # answers the obstruction quotient with X's own context and decision
    # exactly where the obstruction restricts trivially to X
    an = Analysis(parse_input(json.loads(fixture.read_text()))[0])
    assert an.context_for(an.kernel) is an.ctx
    obs = an.obstruction
    trivial = obs is not None and obs.restriction.order == 1
    assert (an.obstruction_quotient_cofree is an.cofree_decision) == trivial


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize(
    "source",
    # Obs equals the subgroup H that the obstruction is built on in each of
    # these; X//H is X itself only in `polynomial_ring` and `scaling_torus`
    [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))]
    + [("orthant", 116), ("orthant", 182), ("corpus", 116)],
    ids=str,
)
def test_one_obstruction_quotient_context_per_analysis(monkeypatch, source):
    # X//Obs gets one divisor context per analysis: when Obs = H the
    # obstruction hands on the context of X//H it has already built
    if isinstance(source, str):
        an = Analysis(parse_input(json.loads((FIXTURE_DIR / f"{source}.json").read_text()))[0])
    else:
        an = Analysis(pool_action(*source))
    built = []
    real = equitor.pipeline.DivisorContext

    def spy(action, budget):
        built.append(action)
        return real(action, budget)

    monkeypatch.setattr(equitor.pipeline, "DivisorContext", spy)
    analyze_report(an)
    obs = an.obstruction.obstruction
    quotient = an.action if obs == an.kernel else quotient_action(an.action, obs)
    assert built.count(quotient) == 1


def test_reflection_quotient_action_is_cofree():
    # quotienting a finite-restriction subgroup into the nonprincipal
    # reflection subgroup of the quotient leaves a cofree action of the join
    for base in (action_5_7(), action_5_8()):
        an = Analysis(base)
        act = an.action
        for m in (2, 3):
            N = tor_subgroup(m, an.kernel)
            ctx_n = an.context_for(N)
            act_n = ctx_n.action
            refl_tilde = pseudo_reflection_group(
                act_n, ctx_n.obstructing_facets(), ineffective_kernel(ctx_n.S, act_n)
            )
            join = N.join(an.reflection)
            sub = restrict_action_to_subgroup(
                quotient_action(act, refl_tilde), join
            )
            S_sub = build_semigroup(sub, Budget())
            SG_sub = build_semigroup(sub.invariant_action, Budget())
            for h in S_sub.hilbert_basis:
                chi = sub.weight_of(h)
                got = bounded_freeness_oracle(SG_sub, sub, chi, 10)
                assert got in (YES, INCONCLUSIVE)


def test_corpus_smoke():
    import sys

    sys.path.insert(0, "tests")
    from corpus import random_action
    from equitor.errors import CappedComputationError

    rng = random.Random(7)
    done = 0
    for _ in range(25):
        act = random_action(rng)
        try:
            an = Analysis(act)
            v = an.verdict
        except CappedComputationError:
            continue
        assert v.oracle_agrees
        assert corollary_consistency(an) is not False
        done += 1
    assert done >= 20


@pytest.mark.parametrize("cap", [32, 48])
def test_solver_norm_cap_is_applied_as_stated(cap):
    # corpus pool #201's character (-18, 4) = -3 (6, 0) + (0, 4), in the
    # bound-3 sweep over its qualified basis: its fiber search falls back to
    # the completion solver, which caps at every depth from 20 to 48 and
    # finds a point at 56.  The analysis's own fiber search must run under
    # the stated cap.  The search is called directly because the sweeps sum
    # the points of the signed basis characters and never search this fiber.
    weights = ((0, 2), (3, 2), (0, -2), (-1, -2), (0, 2))
    act = WeightedAction(5, 2, (), weights, (((3, 1, -1, 2, 1), 2),))
    an = Analysis(act, Options(solver_norm_cap=cap))
    with pytest.raises(CappedComputationError) as err:
        an.ctx.fiber_element((-18, 4))
    assert (err.value.what, err.value.cap) == ("completion solver (degree)", cap)
    deeper = Analysis(act, Options(solver_norm_cap=56))
    assert deeper.ctx.fiber_element((-18, 4)) == (20, 0, 0, 18, 0)


def test_orthant_378_decides():
    # its depth cap fired in the deep-facet fiber searches of the qualified
    # lattice, which is now lattice arithmetic
    act = WeightedAction(5, 2, (), ((3, 0), (3, -2), (1, -3), (-3, 2), (-2, -3)), ())
    an = Analysis(act)
    v = an.verdict
    assert (v.equidimensional, v.cofree) == ("no", "no")
    assert an.exponent_with_provenance == (1, "exact")
    assert an.reduced.divisor_side_factors == an.reduced.module_side_factors == ()
    assert v.oracle_agrees


# The small actions on which the engine's equidimensional "no" is wrong:
# each has t = 1, reflection restriction Z/2 and trivial Obs, while its
# null fiber has the expected dimension.  The first is K^4 under T x Z/2
# (in `tests/test_census.py`); the others are K^4 under T x Z/4.
REFUTED_ACTIONS = [WeightedAction(4, 1, (2,), ((-2, 0), (0, 1), (0, 1), (1, 1)), ())] + [
    WeightedAction(4, 1, (4,), ((-2, 0), (0, a), (0, b), (1, 2)), ())
    for a, b in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
]


@pytest.mark.parametrize("act", REFUTED_ACTIONS, ids=lambda a: str(a.weights))
def test_a_verdict_the_null_fiber_oracle_refutes_raises(act):
    an = Analysis(act)
    with pytest.raises(InvariantViolationError, match="null-fiber oracle refutes equidimensional 'no'"):
        an.verdict
    assert an.exponent_with_provenance[0] == 1
    assert (an.reflection_restriction.order, an.obstruction.restriction.order) == (2, 1)
    assert an.obstruction_quotient_cofree.verdict is False
