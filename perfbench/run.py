"""equitor benchmark: one workload per run, checked against pinned outputs.

    python3 perfbench/run.py --workload corpus|orthant|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The engine is imported from `src/`; nothing
needs installing.  Each round runs in a freshly started interpreter (one
process, one operation at a time), and rounds repeat while another round
fits in `--seconds`.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of one traced round beside an untraced round of the
same inputs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit, plus figures that are not metrics
because they can be zero (capped and failed ratios, time spent capped).
See README.md for the workloads, metrics and golden files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from shared import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

WORKLOADS = ("corpus", "orthant", "cli")
# Set-up probes per run, spread evenly over the run's time between rounds.
SETUP_PROBES = 40
MODULES = ("lattice", "semigroup", "subgroups", "divisors", "reduced", "pipeline", "oracles", "cli")

# The nine command lines of the README, then `analyze` on the other fixtures.
CLI_COMMANDS = [
    ["analyze", "fixtures/example_5_7.json", "--pretty"],
    ["invariants", "fixtures/example_5_8.json"],
    ["class-group", "fixtures/example_5_8.json", "--of", "RG"],
    ["dchi", "fixtures/example_5_8.json", "--chi", "0,1"],
    ["free", "fixtures/example_5_8.json", "--chi", "0,3"],
    ["obstruction", "fixtures/example_5_7.json"],
    ["equidim", "fixtures/example_5_8.json", "--oracle-only"],
    ["cofree", "fixtures/example_5_7.json", "--degree-cap", "10"],
    ["sweep", "fixtures/example_5_7.json", "--bound", "3"],
    ["analyze", "fixtures/example_5_8.json"],
    ["analyze", "fixtures/polynomial_ring.json"],
    ["analyze", "fixtures/scaling_torus.json"],
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (span, statistic) pairs of the traced run; the metric is "<span>.<statistic>".
PER_LAYER = (
    [(f"pipeline.{s}", stat) for s in STAGES for stat in ("incl_s", "capped")]
    + [(f"semigroup.{k}", stat) for k in ("solver_fallback", "solver_hilbert") for stat in ("calls", "self_s", "capped")]
    + [("semigroup.hilbert_basis", "calls"), ("semigroup.hilbert_basis", "incl_s")]
    + [("semigroup.solve_system_nonneg", "calls"), ("semigroup.solve_system_nonneg", "incl_s")]
    + [("semigroup.enumerate_fiber", "calls"), ("semigroup.enumerate_fiber", "self_s")]
    + [(f"semigroup.{k}", stat) for k in ("build_semigroup", "fiber_sample") for stat in ("calls", "hit_ratio")]
    + [
        (f"lattice.{k}", stat)
        for k in (
            "solve_diophantine",
            "kernel_basis",
            "column_hnf",
            "QuotientGroup.of",
            "rational_shifted_cone_nonempty",
            "coset_orthant_search",
        )
        for stat in ("calls", "self_s")
    ]
    + [("lattice.coset_orthant_search", "unbounded_ratio")]
    + [
        (f"divisors.{k}", stat)
        for k in ("DivisorContext", "free_test", "char_divisor", "not_free_violator")
        for stat in ("calls", "incl_s")
    ]
    + [("reduced.qualified_lattice", "incl_s"), ("reduced.reduced_class_groups", "incl_s")]
    + [("subgroups.is_stable", "incl_s"), ("subgroups.quotient_action", "incl_s")]
    + [("oracles.null_fiber_dimension", "calls"), ("oracles.null_fiber_dimension", "incl_s")]
    + [("oracles.bounded_freeness_oracle", stat) for stat in ("calls", "incl_s", "conclusive_ratio")]
    + [("cli.main", "incl_s")]
    + [(m, "src_lines") for m in MODULES]
    + [("trace", "overhead_ratio")]
)

STAT_UNITS = {
    "calls": "count",
    "capped": "count",
    "incl_s": "s",
    "self_s": "s",
    "hit_ratio": "ratio",
    "unbounded_ratio": "ratio",
    "conclusive_ratio": "ratio",
    "src_lines": "lines",
    "overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a worker that died)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc: subprocess.Popen) -> float:
    """Wait for the child; return its peak resident memory in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def in_worker(job: dict) -> tuple[dict | None, float, float]:
    """Run one job in a fresh engine interpreter (see worker.py).

    Returns (result, set-up seconds, peak MB).  Set-up runs from launch
    until the worker prints `ready`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError("engine worker failed to start (see its error above)")
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        text = proc.stdout.read()
        rss = reap(proc)
    finally:
        if proc.returncode is None:
            proc.kill()
            reap(proc)
    if proc.returncode != 0:
        raise BenchError(f"engine worker exited with {proc.returncode}")
    return (json.loads(text) if text.strip() else None), setup_s, rss


def load_golden(workload: str) -> dict:
    doc = json.loads((GOLDEN / f"{workload}.json").read_text())
    if workload == "cli":
        return {tuple(g["argv"]): g for g in doc["commands"]}
    return {g["index"]: g for g in doc["instances"]}


def judge_pool_op(op: list, golden: dict) -> tuple[str, str | None]:
    """Classify one analysis as decided, capped or failed (with a reason)."""
    idx, status, payload, agrees, _lat = op
    want = golden[idx]
    if status == "decided":
        if not agrees:
            return "failed", f"#{idx}: null-fiber oracle disagrees"
        if want["status"] == "decided" and payload != want["fields"]:
            return "failed", f"#{idx}: {payload} != golden {want['fields']}"
        return "decided", None
    if status == "capped":
        if want["status"] != "capped":
            return "failed", f"#{idx}: decided instance capped in {payload}"
        if payload != want["cap"]:
            return "failed", f"#{idx}: capped in {payload}, golden cap {want['cap']}"
        return "capped", None
    return "failed", f"#{idx}: {payload}"


def judge_cli_op(argv, code, stdout, golden: dict) -> tuple[str, str | None]:
    want = golden[tuple(argv)]
    if code != want["exit"] or stdout != want["stdout"]:
        return "failed", f"{' '.join(argv)}: exit {code}, output differs from golden"
    if code == 3:
        return "capped", None
    return "decided", None


def pool_round(args, golden, round_no: int, trace: bool, spans: str | None) -> dict:
    job = {
        "kind": "pool",
        "workload": args.workload,
        "seed": args.seed,
        "round": round_no,
        "trace": trace,
        "spans": spans,
    }
    result, _setup, rss = in_worker(job)
    outcomes = [judge_pool_op(op, golden) for op in result["ops"]]
    return {
        "wall_s": result["wall_s"],
        "latencies": [op[-1] for op in result["ops"]],
        "outcomes": outcomes,
        "capped_s": sum(op[-1] for op, o in zip(result["ops"], outcomes) if o[0] == "capped"),
        "rss_mb": rss,
        "trace": result.get("trace"),
    }


def cli_round(golden) -> dict:
    """The twelve commands, each as its own `python -m equitor` process."""
    latencies, outcomes, rss = [], [], []
    capped_s = 0.0
    for argv in CLI_COMMANDS:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "equitor", *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            stdout = proc.stdout.read()
            rss.append(reap(proc))
        finally:
            if proc.returncode is None:
                proc.kill()
                reap(proc)
        lat = time.perf_counter() - t0
        outcome = judge_cli_op(argv, proc.returncode, stdout, golden)
        if outcome[0] == "capped":
            capped_s += lat
        latencies.append(lat)
        outcomes.append(outcome)
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "outcomes": outcomes,
        "capped_s": capped_s,
        "rss_mb": max(rss),
    }


def cli_inprocess_round(golden, trace: bool, spans_dir: Path | None) -> dict:
    """The twelve commands through `cli.main`, each in a fresh worker."""
    latencies, outcomes, traces = [], [], []
    for k, argv in enumerate(CLI_COMMANDS):
        spans = str(spans_dir / f"spans-{k:02d}.jsonl.gz") if spans_dir else None
        result, _setup, _rss = in_worker({"kind": "cli", "argv": argv, "trace": trace, "spans": spans})
        (argv_, code, stdout, lat), = result["ops"]
        latencies.append(lat)
        outcomes.append(judge_cli_op(argv_, code, stdout, golden))
        if trace:
            traces.append(result["trace"])
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "outcomes": outcomes,
        "trace": merge_traces(traces) if trace else None,
    }


def merge_traces(traces: list[dict]) -> dict:
    out = {"absent": sorted(set().union(*(t["absent"] for t in traces)))}
    for key in ("calls", "incl_s", "self_s", "capped", "hits", "flagged"):
        merged: dict = {}
        for t in traces:
            for name, v in t[key].items():
                merged[name] = merged.get(name, 0) + v
        out[key] = merged
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, but not
    below the median: (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(rounds: list[dict], setups: list[float], per_round_tail: bool) -> tuple[dict, dict]:
    """Medians over rounds.  The tail is taken per round where a round has
    enough operations (corpus, orthant), so its percentile does not move
    with the number of rounds; a cli round has 12, so its tail pools the run."""
    lat = [x for r in rounds for x in r["latencies"]]
    outcomes = [o for r in rounds for o in r["outcomes"]]
    attempted = len(outcomes)
    capped = sum(o[0] == "capped" for o in outcomes)
    failed = sum(o[0] == "failed" for o in outcomes)
    if per_round_tail:
        tails = [tail(r["latencies"]) for r in rounds]
        tail_ms = statistics.median(t[0] for t in tails)
        _, tail_pct, n = tails[0]
    else:
        tail_ms, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_ms,
        "decided_per_s": statistics.median(
            sum(o[0] == "decided" for o in r["outcomes"]) / r["wall_s"] for r in rounds
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    info = {
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall_s"], 3) for r in rounds],
        "attempted": attempted,
        "decided": sum(o[0] == "decided" for o in outcomes),
        "capped": capped,
        "failed": failed,
        "capped_ratio": capped / attempted,
        "failed_ratio": (capped + failed) / attempted,
        "capped_s": statistics.median(r["capped_s"] for r in rounds),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples": n,
    }
    return metrics, info


def src_lines() -> dict:
    out = {}
    for m in MODULES:
        path = SRC / "equitor" / f"{m}.py"
        if path.is_file():
            out[m] = path.read_text().count("\n")
    return out


def per_layer(agg: dict, overhead: float) -> dict:
    """Per-layer metrics from the traced round's aggregates.  A ratio over
    zero calls reads 0; a span whose function no longer exists is left out."""
    absent = set(agg["absent"])
    lines = src_lines()
    metrics = {}
    for span, stat in PER_LAYER:
        name = f"{span}.{stat}"
        if stat == "src_lines":
            if span in lines:
                metrics[name] = lines[span]
            continue
        if stat == "overhead_ratio":
            metrics[name] = overhead
            continue
        if span in absent:
            continue
        calls = agg["calls"].get(span, 0)
        if stat in ("calls", "capped", "incl_s", "self_s"):
            metrics[name] = agg[stat].get(span, 0)
        elif stat == "hit_ratio":
            metrics[name] = agg["hits"].get(span, 0) / calls if calls else 0.0
        else:  # unbounded_ratio, conclusive_ratio
            metrics[name] = agg["flagged"].get(span, 0) / calls if calls else 0.0
    return metrics


def run_untraced(args, golden) -> tuple[list[dict], list[float]]:
    """Rounds while the next one fits in `--seconds`, with the set-up probes
    spread between them, so that `setup_s` samples the whole run."""
    rounds, setups = [], []
    started = time.perf_counter()

    def probe_until(n: int):
        while len(setups) < n:
            setups.append(in_worker({"kind": "probe"})[1])

    while True:
        r0 = time.perf_counter()
        if args.workload == "cli":
            rounds.append(cli_round(golden))
        else:
            rounds.append(pool_round(args, golden, len(rounds), False, None))
        took = time.perf_counter() - r0
        share = min(1.0, (time.perf_counter() - started) / args.seconds)
        probe_until(math.ceil(SETUP_PROBES * share))
        left = (SETUP_PROBES - len(setups)) * statistics.median(setups or [0.0])
        if time.perf_counter() - started + took + left > args.seconds:
            probe_until(SETUP_PROBES)
            return rounds, setups


def run_traced(args, golden) -> tuple[list[dict], dict]:
    spans_dir = OUT / f"{args.workload}-seed{args.seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli":
        plain = cli_inprocess_round(golden, False, None)
        traced = cli_inprocess_round(golden, True, spans_dir)
    else:
        plain = pool_round(args, golden, 0, False, None)
        traced = pool_round(args, golden, 0, True, str(spans_dir / "spans.jsonl.gz"))
    return [plain, traced], per_layer(traced["trace"], traced["wall_s"] / plain["wall_s"])


def check_checkout(workload: str):
    needed = [SRC / "equitor" / "__init__.py", GOLDEN / f"{workload}.json"]
    if workload == "cli":
        needed += dict.fromkeys(ROOT / argv[1] for argv in CLI_COMMANDS)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("missing from the checkout: " + ", ".join(missing))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout(args.workload)
        golden = load_golden(args.workload)
        if args.trace:
            rounds, metrics = run_traced(args, golden)
            units = {f"{s}.{stat}": STAT_UNITS[stat] for s, stat in PER_LAYER}
            absent = sorted(rounds[1]["trace"]["absent"])
            info = {"absent": absent} if absent else {}
        else:
            rounds, setups = run_untraced(args, golden)
            metrics, info = end_to_end(rounds, setups, args.workload != "cli")
            units = END_TO_END_UNITS
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    outcomes = [o for r in rounds for o in r["outcomes"]]
    failures = [reason for kind, reason in outcomes if kind == "failed"]
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    for name, value in info.items():
        print(f"  ({name} {value})")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
