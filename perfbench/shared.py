"""Constants shared by the orchestrator and the engine worker.

Importing this module must not import the engine: the orchestrator never
loads it, so its own start-up stays out of the measurements.
"""

POOL_SEED = 20260810

# Pool sizes are fixed attempt counts, not "until N decided", so the inputs
# stay the same when capped instances start deciding.
POOL_SIZE = {"corpus": 215, "orthant": 400}

# The `Analysis` cached properties traced as pipeline stages.
STAGES = (
    "input_stable",
    "action",
    "ctx",
    "reflection",
    "reduced",
    "obstruction",
    "obstruction_quotient_cofree",
    "cofree_decision",
    "verdict",
)
