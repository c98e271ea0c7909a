"""Checks of the benchmark itself (not part of the engine's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _test_generator():
    spec = importlib.util.spec_from_file_location("tests_corpus", ROOT / "tests" / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.random_action


def test_pinned_generator_matches_the_test_generator():
    reference = _test_generator()
    ours, theirs = random.Random(corpus.POOL_SEED), random.Random(corpus.POOL_SEED)
    for _ in range(corpus.POOL_SIZE["corpus"]):
        assert corpus.random_action(ours) == reference(theirs)


def test_corpus_golden_pins_the_acceptance_sweep():
    golden = json.loads((HERE / "golden" / "corpus.json").read_text())["instances"]
    assert [g["index"] for g in golden] == list(range(1, 216))
    capped = [g["index"] for g in golden if g["status"] == "capped"]
    assert len(capped) == 10
    assert {42, 72, 78} <= set(capped)


def test_orthant_pool_drops_congruences_only():
    full, orth = corpus.pool("corpus"), corpus.pool("orthant")[:215]
    assert all(o.congruences == () for o in orth)
    assert [o.weights for o in orth] == [a.weights for a in full]


def test_round_order_depends_on_seed_and_round_only():
    a = corpus.round_order("corpus", 3, 0)
    assert a == corpus.round_order("corpus", 3, 0)
    assert a != corpus.round_order("corpus", 4, 0)
    assert a != corpus.round_order("corpus", 3, 1)
    assert sorted(a) == list(range(1, 216))


def test_benchmark_json_lists_the_metrics_run_py_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {f"{s}.{stat}": run.STAT_UNITS[stat] for s, stat in run.PER_LAYER}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100))
    value, pct, n = run.tail(samples)
    assert (value, n) == (89, 100)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0
    assert run.tail(list(range(12)))[0] == 6


def test_tracer_rebinds_every_importer_and_reports_absent_names(monkeypatch):
    import equitor.divisors
    import equitor.semigroup
    from equitor.pipeline import Analysis

    import tracer as tracer_mod

    for mod, attr in (
        (equitor.semigroup, "fiber_sample"),
        (equitor.divisors, "fiber_sample"),
        (equitor.semigroup, "minimal_nonneg_solutions"),
        (equitor.semigroup, "solve_system_nonneg"),
    ):
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    monkeypatch.setattr(Analysis, "verdict", Analysis.__dict__["verdict"])
    monkeypatch.setattr(
        tracer_mod, "TARGETS", tracer_mod.TARGETS + [("semigroup", "gone_function", "semigroup.gone", None)]
    )
    t = Tracer()
    t.install()
    assert equitor.divisors.fiber_sample is equitor.semigroup.fiber_sample
    assert hasattr(equitor.divisors.fiber_sample, "__wrapped__")
    assert t.absent == ["semigroup.gone"]
    Analysis(corpus.pool("orthant")[0]).verdict
    agg = t.aggregates()
    assert agg["calls"]["pipeline.verdict"] == 1
    assert agg["calls"]["semigroup.fiber_sample"] > 0
    assert len(t.name) == sum(agg["calls"].values())
