"""Pinned copy of the acceptance-corpus generator and the benchmark's pools.

`random_action` must draw from the random stream exactly as
`tests/corpus.py` does, so that a seed names the same actions in both;
`test_perfbench.py` checks this.  Keeping a copy here means a later change
to the test generator cannot silently change the benchmark's inputs.
"""

import random
from dataclasses import replace

from equitor.semigroup import WeightedAction
from shared import POOL_SEED, POOL_SIZE


def random_action(rng: random.Random) -> WeightedAction:
    n = rng.randint(2, 5)
    free_rank = rng.randint(1, 2)
    torsion = ()
    if rng.random() < 0.35:
        torsion = (rng.choice([2, 3]),)
    k = free_rank + len(torsion)
    weights = tuple(
        tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)
    )
    congruences = []
    if rng.random() < 0.45:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        if rng.random() < 0.3:
            if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
                congruences.append((coeffs, 0))
        else:
            congruences.append((coeffs, rng.choice([2, 3])))
    return WeightedAction(
        ambient_dim=n,
        free_rank=free_rank,
        torsion_moduli=torsion,
        weights=weights,
        congruences=tuple(congruences),
    )


def pool(name: str) -> list[WeightedAction]:
    """The pool's actions in generation order (index i is action #i+1).

    `orthant` draws the same actions as `corpus` and drops their
    quotient congruences, so the semigroup is the full orthant.
    """
    rng = random.Random(POOL_SEED)
    actions = [random_action(rng) for _ in range(POOL_SIZE[name])]
    if name == "orthant":
        actions = [replace(a, congruences=()) for a in actions]
    return actions


def round_order(name: str, seed: int, round_no: int) -> list[int]:
    """1-based pool indices in the order one round analyses them.

    The seed fixes the order; it matters because the engine keeps caches
    across the analyses of one process.
    """
    order = list(range(1, POOL_SIZE[name] + 1))
    random.Random(f"{name}/{seed}/{round_no}").shuffle(order)
    return order
