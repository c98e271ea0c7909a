"""Rewrite the golden files from the engine as it is now.

    python3 perfbench/make_golden.py [corpus] [orthant] [cli]

Run it only when a change of outputs is intended and reviewed: the
benchmark counts every difference from these files as a failed operation.
`corpus` takes about two minutes because it includes the slow capped
instances.
"""

import json
import subprocess
import sys

from shared import POOL_SEED, POOL_SIZE
from run import CLI_COMMANDS, GOLDEN, ROOT, child_env, in_worker


def pool_golden(workload: str) -> dict:
    job = {"kind": "pool", "workload": workload, "seed": POOL_SEED, "round": 0,
           "trace": False, "spans": None}
    result, _setup, _rss = in_worker(job)
    instances = []
    for idx, status, payload, agrees, _lat in sorted(result["ops"], key=lambda op: op[0]):
        if status == "decided" and agrees:
            instances.append({"index": idx, "status": "decided", "fields": payload})
        elif status == "capped":
            instances.append({"index": idx, "status": "capped", "cap": payload})
        else:
            raise SystemExit(f"#{idx}: {status} {payload} (oracle agrees: {agrees}); not pinned")
    return {
        "pool_seed": POOL_SEED,
        "attempts": POOL_SIZE[workload],
        "options": "defaults",
        "instances": instances,
    }


def cli_golden() -> dict:
    commands = []
    for argv in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "equitor", *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=False,
        )
        commands.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    return {"commands": commands}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or ["corpus", "orthant", "cli"]:
        doc = cli_golden() if workload == "cli" else pool_golden(workload)
        (GOLDEN / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote golden/{workload}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
