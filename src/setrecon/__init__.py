"""Set reconciliation toolkit.

Polynomial set sketches with bounded-capacity recovery, divide-and-conquer
reconciliation protocols over a request/reply transport, exact recursive
cost analysis with Monte Carlo verification, and a discrete-event network
simulator.
"""

from .analysis import (
    ExpectationTables,
    enumerate_tree_expectations,
    exact_expectation_tables,
    expectation_tables,
    h_index,
    mc_sample_batch,
    psr_recovery_bound,
)
from .netsim import (
    SCENARIO_PRESETS,
    PlacementNode,
    ScenarioConfig,
    load_scenario,
    run_trial,
    sample_placement_tree,
)
from .partition import (
    PartitionSchedule,
    fair_probs,
    key_of,
    key_range,
    round_optimal_probs,
    schedule_from_strings,
)
from .protocol import (
    Fixture,
    LoopbackTransport,
    ProtocolConfig,
    ProtocolError,
    ReconcileMetrics,
    ReconcileResult,
    Responder,
    epsr_reconcile,
    load_fixture,
    make_loopback,
    psr_reconcile,
    reconcile,
)
from .sketch import (
    ConfigError,
    ElementError,
    FieldConfig,
    MismatchError,
    RecoveryOutcome,
    SRSketch,
    field_setup,
    from_bytes,
    insert_set,
    new_sketch,
    recover,
    sketch_of,
    subtract,
    to_bytes,
    wire_cost,
)

__version__ = "0.1.0"
