"""Engine process for one benchmark round.

Started fresh by `run.py` for every round, so the engine's process-wide
caches start empty.  It imports the engine, prints `ready` (the end of
set-up), reads one JSON job from stdin, runs it one operation at a time and
prints one JSON line of results.

Jobs:
  {"kind": "probe"}                         set-up only
  {"kind": "pool", "workload", "seed", "round", "trace", "spans"}
  {"kind": "cli", "argv", "trace", "spans"}  one in-process `equitor` call

Untraced, it uses only the stable entry points `WeightedAction`, `Options`,
`Analysis(...).verdict`, `CappedComputationError`, `EquitorError` and
`cli.main`, plus the two `Analysis` attributes the `analyze` report prints
beside the verdict (`reduced`, `obstruction`) for the pinned fields.
"""

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import equitor.cli  # noqa: E402  (imports the whole engine)
from equitor.errors import CappedComputationError, EquitorError  # noqa: E402
from equitor.pipeline import Analysis, Options  # noqa: E402

from corpus import pool, round_order  # noqa: E402


def pinned_fields(action) -> tuple[dict, bool]:
    """The per-instance values the golden files pin, and the null-fiber
    oracle's agreement with the verdict."""
    an = Analysis(action, Options())
    v = an.verdict
    obs = an.obstruction
    fields = {
        "equidimensional": v.equidimensional,
        "cofree": v.cofree,
        "t": v.certificates.get("exponent"),
        "urcl": list(an.reduced.divisor_side_factors),
        "cltilde": list(an.reduced.module_side_factors),
        "obs_restriction": list(obs.restriction.invariant_factors) if obs else None,
    }
    return fields, v.oracle_agrees


def run_pool(job, tracer) -> dict:
    actions = pool(job["workload"])
    order = round_order(job["workload"], job["seed"], job["round"])
    ops = []
    started = time.perf_counter()
    for idx in order:
        if tracer is not None:
            tracer.request = idx
        t0 = time.perf_counter()
        try:
            fields, agrees = pinned_fields(actions[idx - 1])
            op = [idx, "decided", fields, agrees]
        except CappedComputationError as e:
            op = [idx, "capped", e.what, None]
        except EquitorError as e:
            op = [idx, "error", f"{type(e).__name__}: {e}", None]
        except Exception:  # an engine bug fails this operation, not the run
            op = [idx, "error", traceback.format_exc(limit=3), None]
        op.append(time.perf_counter() - t0)
        ops.append(op)
    return {"ops": ops, "wall_s": time.perf_counter() - started}


def run_cli(job, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = 1
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = equitor.cli.main(job["argv"])
    wall = time.perf_counter() - t0
    return {"ops": [[job["argv"], code, out.getvalue(), wall]], "wall_s": wall}


def main() -> int:
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    if job["kind"] == "probe":
        return 0
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = (run_pool if job["kind"] == "pool" else run_cli)(job, tracer)
    if tracer is not None:
        result["trace"] = tracer.aggregates()
        if job.get("spans"):
            tracer.dump(job["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
