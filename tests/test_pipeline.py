import json
import random
from pathlib import Path

import pytest

from equitor.cli import parse_input
from equitor.errors import CappedComputationError, InputError, InvariantViolationError
from equitor.oracles import INCONCLUSIVE, YES, bounded_freeness_oracle
from equitor.pipeline import (
    Analysis,
    Options,
    t_factorization,
)
from equitor.semigroup import Budget, WeightedAction, build_semigroup
from equitor.subgroups import (
    SubgroupOfA,
    ineffective_kernel,
    perp,
    pseudo_reflection_group,
    quotient_action,
    restrict_action_to_subgroup,
    restriction_data,
    tor_subgroup,
    whole_group,
)
from conftest import (
    action_5_7,
    action_5_8,
    polynomial_action,
    scaling_action,
)


def scaling_nonequidim_action():
    """The classic non-equidimensional 1-torus action on K^4."""
    return WeightedAction(
        ambient_dim=4, free_rank=1, torsion_moduli=(), weights=((1,), (1,), (-1,), (-1,))
    )


def test_t_factorization():
    assert t_factorization(3, 1) == (3, 1)
    assert t_factorization(12, 2) == (3, 4)
    assert t_factorization(1, 5) == (1, 1)
    assert t_factorization(18, 6) == (1, 18)
    with pytest.raises(InputError):
        t_factorization(0, 1)


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
    assert an.corollary_consistency() is True


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
    assert an.corollary_consistency() is True


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
    assert an.corollary_consistency() is True


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
    conds = an.main_theorem_conditions()
    assert set(conds.values()) == {False}


def test_main_theorem_all_true_on_fixtures():
    for act in (action_5_7(), action_5_8(), polynomial_action(2)):
        conds = Analysis(act).main_theorem_conditions()
        assert set(conds.values()) == {True}


def test_corollary_13_check():
    assert Analysis(action_5_7()).corollary_consistency() is True
    assert Analysis(scaling_nonequidim_action()).corollary_consistency() is None


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
    assert an.corollary_consistency() is True


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
    assert an.corollary_consistency() is True


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
                ctx_n.S,
                act_n,
                ctx_n.ht1_facets(),
                ineffective_kernel(ctx_n.S, act_n),
                principal_flags=ctx_n.obstructing_facet_flags(),
            )
            join = N.join(an.reflection)
            sub = restrict_action_to_subgroup(
                quotient_action(act, refl_tilde), join
            )
            S_sub = build_semigroup(sub, Budget())
            SG_sub = build_semigroup(quotient_action(sub, perp(SubgroupOfA.trivial(sub))), Budget())
            for h in S_sub.hilbert_basis:
                chi = sub.weight_of(h)
                got = bounded_freeness_oracle(SG_sub, sub, chi, 10, Budget())
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
        assert an.corollary_consistency() is not False
        done += 1
    assert done >= 20


@pytest.mark.parametrize("cap", [32, 48])
def test_solver_norm_cap_is_applied_as_stated(cap):
    # corpus pool #201 caps in a fiber search's completion fallback at every
    # depth from 24 to 48 (and decides at 56): every fiber search must run
    # under the stated cap
    weights = ((0, 2), (3, 2), (0, -2), (-1, -2), (0, 2))
    act = WeightedAction(5, 2, (), weights, (((3, 1, -1, 2, 1), 2),))
    with pytest.raises(CappedComputationError) as err:
        Analysis(act, Options(solver_norm_cap=cap)).verdict
    assert err.value.cap == cap


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


def test_primary_part_raises_when_it_does_not_stabilise():
    an = Analysis(action_5_7())
    # the whole torus restricts to an infinite group: 2^k B_L never stabilises
    with pytest.raises(InvariantViolationError):
        an._primary_part(2, whole_group(an.action))
