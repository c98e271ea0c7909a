"""Shared fixture actions used across the suite."""

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

import equitor.divisors
from equitor.lattice import IntMatrix, Sublattice
from equitor.semigroup import WeightedAction
from equitor.subgroups import SubgroupOfA, SubgroupOfG
from corpus import random_action


def action_5_7() -> WeightedAction:
    """2-torus on K^4 with weights (±1,0),(0,±1); ambient quotient by order-3 diagonal."""
    return WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(),
        weights=((1, 0), (-1, 0), (0, 1), (0, -1)),
        congruences=(((1, 1, -1, -1), 3),),
    )


def action_5_8() -> WeightedAction:
    """2-torus on the rank-3 semigroup cut out by a1+a2+a3 = 3*a4."""
    return WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(),
        weights=((1, 1), (1, -1), (1, 0), (-3, 0)),
        congruences=(((1, 1, 1, -3), 0),),
    )


def action_5_7_ambient() -> WeightedAction:
    """The disconnected ambient action: 2-torus times an order-3 cyclic factor on K^4."""
    return WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(3,),
        weights=((1, 0, 1), (-1, 0, 1), (0, 1, -1), (0, -1, -1)),
        congruences=(),
    )


def polynomial_action(n: int = 3) -> WeightedAction:
    """Trivial group on K^n."""
    return WeightedAction(
        ambient_dim=n, free_rank=0, torsion_moduli=(), weights=((),) * n, congruences=()
    )


def scaling_action() -> WeightedAction:
    """1-torus scaling a single variable."""
    return WeightedAction(
        ambient_dim=1, free_rank=1, torsion_moduli=(), weights=((1,),), congruences=()
    )


def ambient_torus_action() -> WeightedAction:
    """The 5.7 torus on K^4 without the finite quotient."""
    return WeightedAction(
        ambient_dim=4,
        free_rank=2,
        torsion_moduli=(),
        weights=((1, 0), (-1, 0), (0, 1), (0, -1)),
        congruences=(),
    )


def trivial_subgroup(action: WeightedAction) -> SubgroupOfG:
    """The trivial subgroup of G: every character annihilates it."""
    k = action.char_length
    return SubgroupOfG(SubgroupOfA.generated_by(action, [tuple(int(i == j) for i in range(k)) for j in range(k)]))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def whole_group(action: WeightedAction) -> SubgroupOfG:
    """All of G: only the character-group relations annihilate it."""
    return SubgroupOfG(SubgroupOfA.generated_by(action, []))


def ramification_lattice(ctx) -> Sublattice:
    """The full-fiber columns with the unit vectors at the deep facets:
    character divisors are additive modulo this lattice."""
    nf = ctx.S.facet_count
    deep = [tuple(int(i == pi) for i in range(nf)) for pi in ctx.cls.ht2plus]
    return Sublattice.from_columns(list(ctx.cls.fiber_columns) + deep, nf)


@contextmanager
def fiber_queries():
    """Record every `fiber_sample` call that `equitor.divisors` makes and
    that returns, in order, as ((action, reduced chi, sorted equal items,
    sorted upper items), answer); the answer is None for an empty fiber."""
    real = equitor.divisors.fiber_sample
    calls = []

    def spy(action, chi, *, equal=None, upper=None, budget):
        got = real(action, chi, equal=equal, upper=upper, budget=budget)
        key = (
            action,
            action.reduce_char(chi),
            tuple(sorted((equal or {}).items())),
            tuple(sorted((upper or {}).items())),
        )
        calls.append((key, got))
        return got

    equitor.divisors.fiber_sample = spy
    try:
        yield calls
    finally:
        equitor.divisors.fiber_sample = real


@contextmanager
def quotient_builds():
    """Record every quotient action built (`WeightedAction.quotient_by`), in
    order, as (action, annihilator lattice); the whole-group quotient has
    the action's relation lattice."""
    real = WeightedAction.quotient_by
    calls = []

    def spy(self, B):
        calls.append((self, B))
        return real(self, B)

    WeightedAction.quotient_by = spy
    try:
        yield calls
    finally:
        WeightedAction.quotient_by = real


def pool_action(pool: str, index: int) -> WeightedAction:
    """Action #index of the acceptance-corpus generator (seed 20260810);
    the `orthant` pool drops its quotient congruences."""
    rng = random.Random(20260810)
    for _ in range(index):
        act = random_action(rng)
    return replace(act, congruences=()) if pool == "orthant" else act


def repeated_queries(calls) -> list:
    """The queries in `calls` that an earlier call already made."""
    seen, out = set(), []
    for key, _got in calls:
        if key in seen:
            out.append(key)
        seen.add(key)
    return out


@pytest.fixture
def fx57():
    return action_5_7()


@pytest.fixture
def fx58():
    return action_5_8()
