"""An exhaustive census of small actions, every one pinned.

Each box holds every action of a rank-one torus, with no torsion or one
factor Z/m, on K^n with free weights in [-2, 2] and no congruences, taken
up to a permutation of the coordinates and the sign of the free weight.
Within a box nothing is drawn at random, so a defect outside the habits of
the random pools shows here.  `census_digests.json` holds, per box and in
generation order, the sha256 of each `analyze` report with its solver work,
or of the cap, or the message of a consistency check that raised.

Rewrite the file after a deliberate change of output with

    PYTHONPATH=src python tests/test_census.py
"""

import itertools
import json
from pathlib import Path

import pytest

from equitor.errors import CappedComputationError, InvariantViolationError
from equitor.oracles import corollary_consistency
from equitor.pipeline import Analysis
from equitor.semigroup import WeightedAction
from conftest import cap_digest, report_digest

DIGESTS = Path(__file__).resolve().parent / "census_digests.json"

# (n, torsion moduli) -> (actions decided, actions capped)
BOXES = {
    (3, ()): (19, 0),
    (3, (2,)): (116, 0),
    (3, (3,)): (350, 4),
    (3, (4,)): (784, 12),
    (4, ()): (38, 0),
    (4, (2,)): (370, 0),
}

# An open defect, a false "not equidimensional": the engine's "no" on this
# action is refuted by the null-fiber oracle, so its analysis raises.  Its
# obstruction is built on X itself (t = 1), so the reflection group, whose
# quotient gives a cofree cover, never enters.
REFUTED = WeightedAction(4, 1, (2,), ((-2, 0), (0, 1), (0, 1), (1, 1)), ())


def census(n: int, moduli: tuple[int, ...], bound: int = 2):
    """The actions of one box: of the sorted weights and their sign flip,
    the lexicographically smaller."""
    weights = itertools.product(range(-bound, bound + 1), *map(range, moduli))
    for ws in itertools.combinations_with_replacement(sorted(weights), n):
        if ws <= tuple(sorted((-w[0],) + w[1:] for w in ws)):
            yield WeightedAction(n, 1, moduli, ws, ())


def outcome(act: WeightedAction) -> tuple[str, str, dict | None]:
    """(kind, digest, facts): kind is "decided", "capped" or "raised"; the
    facts of a decided action are what the census properties read."""
    an = Analysis(act)
    try:
        digest = report_digest(an)
    except CappedComputationError as e:
        return "capped", cap_digest(e), {"cap": (e.what, e.cap)}
    except InvariantViolationError as e:
        return "raised", f"raised: {e}", None
    v = an.verdict
    return "decided", digest, {
        "equidimensional": v.equidimensional,
        "cofree": v.cofree,
        "null_fiber": v.null_fiber[1],
        "corollary": corollary_consistency(an),
    }


@pytest.fixture(scope="module")
def census_results():
    return {box: [(act, *outcome(act)) for act in census(*box)] for box in BOXES}


def _key(box) -> str:
    n, moduli = box
    return f"n={n} torsion={list(moduli)}"


def test_the_boxes_decide_and_cap_as_pinned(census_results):
    counts = {
        box: tuple(sum(kind == k for _a, kind, _d, _f in rows) for k in ("decided", "capped"))
        for box, rows in census_results.items()
    }
    assert counts == BOXES
    caps = [f["cap"] for rows in census_results.values() for _a, kind, _d, f in rows if kind == "capped"]
    assert set(caps) == {("completion solver (degree)", 64)} and len(caps) == 16


def test_the_only_raising_action_is_the_refuted_one(census_results):
    raised = [act for rows in census_results.values() for act, kind, _d, _f in rows if kind == "raised"]
    assert raised == [REFUTED]


def test_the_null_fiber_oracle_agrees_on_every_decided_action(census_results):
    disagree = [
        act
        for rows in census_results.values()
        for act, kind, _d, f in rows
        if kind == "decided" and (f["equidimensional"] == "yes") != f["null_fiber"]
    ]
    assert disagree == []


def test_equidimensional_iff_cofree_without_torsion(census_results):
    # X = K^n is factorial: no class group, so no cover is needed
    for box in ((3, ()), (4, ())):
        for act, kind, _d, f in census_results[box]:
            assert kind == "decided" and (f["equidimensional"] == "yes") == (f["cofree"] == "yes"), act


def test_cofree_iff_the_obstruction_restricts_trivially(census_results):
    checked = [
        (act, f["corollary"])
        for rows in census_results.values()
        for act, kind, _d, f in rows
        if kind == "decided" and f["equidimensional"] == "yes"
    ]
    assert [act for act, holds in checked if not holds] == []
    assert checked


def test_census_reports_match_the_digests(census_results):
    want = json.loads(DIGESTS.read_text())
    for box, rows in census_results.items():
        got = [digest for _a, _k, digest, _f in rows]
        pinned = want[_key(box)]
        assert len(got) == len(pinned)
        first = next((act for (act, *_), g, w in zip(rows, got, pinned) if g != w), None)
        assert first is None, f"{_key(box)}: {first}"


if __name__ == "__main__":
    digests = {_key(box): [outcome(act)[1] for act in census(*box)] for box in BOXES}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
