"""Set reconciliation toolkit.

Polynomial set sketches with bounded-capacity recovery, divide-and-conquer
reconciliation protocols over a request/reply transport, exact recursive
cost analysis with Monte Carlo verification, and a discrete-event network
simulator.
"""

from .analysis import (
    ExpectationTables,
    RoundBoundParams,
    TreeSample,
    enumerate_tree_expectations,
    epsr_expected_recoveries,
    epsr_expected_sketches,
    exact_expectation_tables,
    expectation_tables,
    h_index,
    mc_sample_batch,
    mc_tree_sample,
    normalized_complexity,
    psr_expected_recoveries,
    psr_expected_recoveries_fair,
    psr_recovery_bound,
    redundancy,
    round_bounds,
)
from .netsim import (
    SCENARIO_PRESETS,
    PlacementNode,
    ScenarioConfig,
    load_scenario,
    run_scenario,
    run_trial,
    sample_placement_tree,
    tree_from_words,
    write_event_log,
)
from .partition import (
    PartitionInterval,
    PartitionSchedule,
    fair_probs,
    interval_for_path,
    key_of,
    root_interval,
    round_optimal_probs,
    schedule_from_strings,
    word_of_key,
)
from .protocol import (
    Fixture,
    HashPlacement,
    LoopbackTransport,
    ProtocolConfig,
    ProtocolError,
    ProtocolTrace,
    ReconcileMetrics,
    ReconcileResult,
    Responder,
    TablePlacement,
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
    hex_dump,
    insert_element,
    insert_set,
    new_sketch,
    recover,
    sketch_of,
    subtract,
    to_bytes,
    wire_cost,
)

__version__ = "0.1.0"
