"""Delay-insensitive dual-rail asynchronous adders: generation, event-driven
simulation with 4-phase return-to-zero handshaking, static timing analysis,
and oracle-based verification."""

from .generators import (
    AdderSpec,
    gen_completion_detector,
    gen_dafa,
    gen_hybrid_rca,
    gen_safa,
    gen_stage,
)
from .netlist import ARITY, GATE_AT, Gate, GateKind, Netlist, PortGroup
from .simulator import (
    DEFAULT_SEED,
    DelayTable,
    IndicationReport,
    ProtocolSummary,
    SimulationLimitError,
    TransactionLog,
    TransactionView,
    classify_indication,
    dump_waveform,
    random_vectors,
    run_protocol,
    simulate_transaction,
)
from .timing import (
    LEGENDS,
    AdderLegend,
    ComparisonReport,
    CriticalPath,
    LatencyExpr,
    SweepResult,
    compare_report,
    critical_path,
    hybrid_latency,
    latency_expr_table,
    sweep_hybrid,
)
from .verification import (
    ALL_EQUATION_SETS,
    DAFA_EQUATIONS,
    SAFA_EQUATIONS,
    EquationSet,
    OutputPair,
    VerifyResult,
    dsop_check,
    equation_equivalence,
    exhaustive_verify,
    monotonic_cover_check,
    oracle_add,
    semantically_disjoint,
    steady_reset_levels,
    steady_set_levels,
    structurally_disjoint,
)

__version__ = "0.1.0"
