"""The completion solver and the weight-fiber walk against brute force, and
the deterministic work counters that pin their searches and the lattice
work of an analysis."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equitor import lattice
from equitor.cli import analyze_report, parse_input
from equitor.errors import CappedComputationError
from equitor.pipeline import Analysis
from equitor.semigroup import (
    Budget,
    WeightedAction,
    build_semigroup,
    enumerate_fiber,
    minimal_nonneg_solutions,
)
from equitor.subgroups import perp, quotient_action
from conftest import fiber_queries, identity_matrix, pool_action, quotient_builds

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

NORM = 9  # brute-force norm bound of the solver property


def _vectors(n, cap):
    return [a for a in itertools.product(range(cap + 1), repeat=n) if sum(a) <= cap]


def _minimal_kernel_elements(rows, n, cap):
    sols = [x for x in _vectors(n, cap) if any(x) and all(sum(r * v for r, v in zip(row, x)) == 0 for row in rows)]
    return {s for s in sols if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in sols)}


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    # a row scaled by up to 20 keeps its solutions and widens the residual fields
    rows = [
        tuple(scale * draw(st.integers(-3, 3)) for _ in range(n))
        for scale in [draw(st.integers(1, 20)) for _ in range(m)]
    ]
    return rows, n


@settings(max_examples=150, deadline=None)
@given(systems(), st.integers(1, NORM - 1), st.integers(0, 3), st.integers(0, 2))
@example(([(1, -1)], 2), NORM - 1, 0, 1)
@example(([(2, -3, 0)], 3), NORM - 1, 1, 2)
@example(([(60, -60, 0), (-20, 0, 20)], 3), 3, 2, 1)  # (1, 1, 1) at the last level
@example(([(0, 0)], 2), 1, 1, 1)  # an all-zero row: every unit vector is a solution
def test_solver_finds_the_minimal_kernel_elements(system, max_norm, coord, want):
    rows, n = system
    try:
        sols = minimal_nonneg_solutions(rows, n, Budget(max_norm=max_norm))
    except CappedComputationError:
        assume(False)  # some minimal solution has norm > max_norm
    assert len(set(sols)) == len(sols)
    assert set(sols) == _minimal_kernel_elements(rows, n, NORM)
    # an early stop returns the first full-run solution with that coordinate
    j = coord % n
    first = [s for s in sols if s[j] == want][:1]
    assert minimal_nonneg_solutions(rows, n, Budget(max_norm=max_norm), stop_on_coord=(j, want)) == first


def test_solver_work_does_not_depend_on_the_field_widths():
    # the largest completion-solver call of the 5.8 analysis: a lifted quotient
    # system whose modulus-3 row has its slack in the last column; a norm cap of
    # 10**5 widens every packed field and must change neither result nor work
    rows = [(1, 1, 1, -3, 0), (1, 2, 0, 0, -3), (1, 1, 1, -3, 0), (1, 1, 1, -3, 0), (1, -1, 0, 0, 0)]
    default, wide = Budget(), Budget(max_norm=10**5)
    sols = minimal_nonneg_solutions(rows, 5, default)
    assert minimal_nonneg_solutions(rows, 5, wide) == sols
    assert (wide.nodes, wide.norm_reached) == (default.nodes, default.norm_reached) == (92, 18)
    assert len(sols) == 3


@pytest.mark.parametrize("rows, max_norm, nodes", [([(-5, 1, 2)], 5, 14), ([(5, -3, -1)], 6, 16)])
def test_degree_cap_counts_the_level_it_stops_at(rows, max_norm, nodes):
    # the candidates of level max_norm + 1 are counted before the degree cap
    # raises; their coordinates reach 4 = 2^2 here, so the node fields need
    # (max_norm + 1).bit_length() value bits and a guard bit above them
    budget = Budget(max_norm=max_norm)
    with pytest.raises(CappedComputationError) as err:
        minimal_nonneg_solutions(rows, 3, budget)
    assert (err.value.what, err.value.cap) == ("completion solver (degree)", max_norm)
    assert (budget.nodes, budget.norm_reached) == (nodes, max_norm)


def _naive_slices(action, cap):
    groups = {}
    for a in _vectors(action.ambient_dim, cap):
        if all(
            (v == 0) if m == 0 else (v % m == 0)
            for coeffs, m in action.congruences
            for v in [sum(c * x for c, x in zip(coeffs, a))]
        ):
            groups.setdefault(action.weight_of(a), []).append(a)
    return {w: tuple(sorted(vs, key=lambda v: (sum(v), v))) for w, vs in groups.items()}


@st.composite
def actions(draw):
    n = draw(st.integers(0, 5))
    free_rank = draw(st.integers(0, 2))
    torsion = tuple(draw(st.lists(st.integers(2, 4), max_size=1)))
    k = free_rank + len(torsion)
    weights = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(n))
    congruences = tuple(
        (tuple(draw(st.integers(-3, 3)) for _ in range(n)), draw(st.sampled_from([0, 2, 3])))
        for _ in range(draw(st.integers(0, 2)))
    )
    return WeightedAction(n, free_rank, torsion, weights, congruences)


@settings(max_examples=200, deadline=None)
@given(actions(), st.integers(0, 6))
@example(WeightedAction(3, 1, (), ((0,), (0,), (0,))), 4)  # all-zero weights: no row prunes
@example(WeightedAction(2, 0, (3,), ((1,), (2,)), (((1, -1), 0),)), 5)
@example(WeightedAction(2, 1, (2,), ((-3, 1), (3, 1)), (((1, 2), 2),)), 0)
@example(WeightedAction(0, 1, (), ()), 3)
@example(WeightedAction(1, 1, (3,), ((-2, 2),)), 6)
# a modular row repeated, as a quotient action appends a row already present
@example(WeightedAction(2, 1, (), ((1,), (-1,)), (((1, 1), 2), ((1, 1), 2))), 5)
# an exact congruence equal to the weight row: empty unless chi's coordinate is 0
@example(WeightedAction(2, 1, (), ((1,), (-1,)), (((1, -1), 0),)), 4)
@example(WeightedAction(2, 1, (), ((1,), (2,)), (((0, 0), 0),)), 5)  # an all-zero row
@example(WeightedAction(5, 1, (2,), ((1, 0), (-1, 1), (2, 1), (0, 1), (-2, 0)), (((1, 1, 0, 0, 1), 3),)), 6)
def test_weight_slices_match_enumeration(action, cap):
    naive = _naive_slices(action, cap)
    for chi, group in naive.items():
        assert enumerate_fiber(action, chi, cap) == list(group)
    # a free coordinate of 3 * cap + 1 is out of reach, so a box that wide
    # holds an unrealized character unless the group is finite and covered
    box = itertools.product(range(3 * cap + 2), repeat=action.char_length)
    unrealized = next((chi for chi in map(action.reduce_char, box) if chi not in naive), None)
    if unrealized is not None:
        assert enumerate_fiber(action, unrealized, cap) == []


def _fixture_analysis(name, **changes):
    action, options = parse_input(json.loads((FIXTURES / f"{name}.json").read_text()))
    return Analysis(action, dataclasses.replace(options, **changes))


@pytest.mark.parametrize(
    "name, nodes, norm_reached",
    [
        ("example_5_7", 2621, 28),
        ("example_5_8", 238, 18),
        ("polynomial_ring", 0, 0),
        ("scaling_torus", 0, 1),
    ],
)
def test_solver_work_counters_are_pinned(name, nodes, norm_reached):
    an = _fixture_analysis(name)
    analyze_report(an)
    assert (an.budget.nodes, an.budget.norm_reached) == (nodes, norm_reached)


@pytest.mark.parametrize(
    "name, smith, eliminating, quotients",
    [
        ("example_5_7", 34, 27, 5),
        ("example_5_8", 23, 18, 5),
        ("polynomial_ring", 5, 0, 1),
        ("reflection_part", 23, 16, 5),
        ("scaling_torus", 4, 0, 2),
    ],
)
def test_lattice_work_counters_are_pinned(monkeypatch, name, smith, eliminating, quotients):
    # Smith forms, those that eliminate (an input already in Smith form
    # comes back as (M, I, I)), and quotient actions built, over one report
    real = lattice.smith_normal_form
    results = []

    def counted(M):
        got = real(M)
        results.append(got != (M, identity_matrix(M.rows), identity_matrix(M.cols)))
        return got

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    an = _fixture_analysis(name)
    with quotient_builds() as built:
        analyze_report(an)
    assert (len(results), sum(results), len(built)) == (smith, eliminating, quotients)


@pytest.mark.parametrize(
    "source",
    ["example_5_7", "example_5_8", "polynomial_ring", "reflection_part", "scaling_torus"]
    # unstable with no unit weight (#2), with torsion too (#5), unstable with
    # unit weights (#16), an obstruction quotient of its own (#116, #182)
    + [("orthant", 2), ("orthant", 5), ("orthant", 16), ("orthant", 116), ("orthant", 182), ("corpus", 6)],
    ids=str,
)
def test_one_invariant_action_per_action(source):
    # the quotient by all of G is built once per action object, whichever
    # stage asks for it first; its annihilator is the relation lattice
    an = _fixture_analysis(source) if isinstance(source, str) else Analysis(pool_action(*source))
    with quotient_builds() as built:
        analyze_report(an)
    whole = [id(act) for act, B in built if B == act.relation_lattice()]
    assert whole and len(whole) == len(set(whole))


@pytest.mark.parametrize("name", ["example_5_7", "example_5_8", "polynomial_ring", "scaling_torus"])
def test_unit_weights_run_no_search(name):
    # once the semigroups are built, the stability decision and the
    # stabilization touch neither the solver nor a fiber search
    an = _fixture_analysis(name)
    act = an.connected_action
    build_semigroup(act, an.budget)
    build_semigroup(act.invariant_action, an.budget)
    with fiber_queries() as calls:
        before = an.budget.nodes
        assert an.input_stable == (name != "scaling_torus")
        assert (an.budget.nodes, calls) == (before, [])
        if not an.input_stable:
            reduced = quotient_action(act, perp(an.input_units))
            build_semigroup(reduced, an.budget)
            build_semigroup(reduced.invariant_action, an.budget)
            before = an.budget.nodes
        an.action
        an.units
    assert (an.budget.nodes, calls) == (before, [])


def test_candidate_cap_boundary_on_5_8():
    # the largest completion-solver call of the 5.8 analysis makes 92 candidates
    analyze_report(_fixture_analysis("example_5_8", max_candidates=92))
    with pytest.raises(CappedComputationError) as err:
        analyze_report(_fixture_analysis("example_5_8", max_candidates=91))
    assert (err.value.what, err.value.cap) == ("completion solver (candidates)", 91)


CORPUS_42 = """
import random
from corpus import random_action
from equitor.errors import CappedComputationError
from equitor.pipeline import Analysis
rng = random.Random(20260810)
for _ in range(42):
    action = random_action(rng)
try:
    Analysis(action).verdict
    print("decided")
except CappedComputationError as e:
    print(e.what)
"""

# A process's own getrusage peak includes the memory of the process it was
# started from (exec keeps the peak of the image it replaces), so the peak
# is read as RUSAGE_CHILDREN in a small process between the suite and the run.
PEAK_OF_CHILD = """
import resource, subprocess, sys
print(subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True, text=True, check=True).stdout.strip())
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_corpus_42_caps_in_bounded_memory():
    # the solver keeps one breadth-first level of candidates, not all of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    out = subprocess.run(
        [sys.executable, "-c", PEAK_OF_CHILD, CORPUS_42], capture_output=True, text=True, env=env, check=True
    )
    what, peak_kb = out.stdout.splitlines()
    assert what == "completion solver (candidates)"
    assert int(peak_kb) < 100 * 1024
