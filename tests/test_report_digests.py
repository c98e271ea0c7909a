"""Every `analyze` report of the two benchmark pools, pinned byte for byte.

`report_digests.json` holds one sha256 per attempt: of the `analyze` report
with the solver's `nodes` and `norm_reached`, or of the cap's `what` and
message.  The 400 `orthant` attempts are checked here, the 215 `corpus`
attempts inside the shared corpus sweep of `test_acceptance.py`.  A change
that is meant to keep every output must keep every digest.

Rewrite the file after a deliberate change of output with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import json

from equitor.errors import CappedComputationError
from equitor.pipeline import Analysis
from conftest import DIGESTS, cap_digest, first_difference, pool_actions, report_digest


def pool_digests(pool: str) -> list[str]:
    out = []
    for act in pool_actions(pool):
        an = Analysis(act)
        try:
            out.append(report_digest(an))
        except CappedComputationError as e:
            out.append(cap_digest(e))
    return out


def test_orthant_reports_match_the_digests():
    assert first_difference("orthant", pool_digests("orthant")) is None


if __name__ == "__main__":
    digests = {pool: pool_digests(pool) for pool in ("orthant", "corpus")}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
