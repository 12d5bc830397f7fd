"""Decision-tree extraction via simulated TEE branch-trace side channels.

A library for reconstructing secret binary decision trees from an
inference oracle that leaks, per query, the sequence of left/right
decisions. Ships the tree structures themselves, three channel models
(perfect traces, a branch-history-register readout with a tagged
predictor, and a single-step retired-branch counter log), the extraction
logic, a label-only baseline attack, and an evaluation harness.
"""

__version__ = "0.1.0"

from .baseline import BaselineResult, RuleSetModel, api_attack_extract
from .cart import train_cart
from .channel import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    OracleResult,
    decode_step_counters,
    label_only_oracle,
    make_oracle,
    observe,
)
from .errors import (
    ChannelInconsistencyError,
    CollisionAmbiguityError,
    DoubletDecodeError,
    FeatureNotFoundError,
    InfeasibleGridError,
    PathDeviationError,
    SchemaError,
    TreeStealerError,
    TruncatedTraceError,
)
from .evaluate import (
    Dataset,
    SweepPoint,
    SweepResult,
    boundary_margin_inputs,
    emit_report,
    extraction_error,
    fidelity,
    load_dataset,
    load_report,
    pareto_frontier,
    pareto_sweep,
    split_dataset,
    threshold_margin,
    uniform_inputs,
)
from .extraction import (
    ExtractionResult,
    ShadowNode,
    ShadowTree,
    dt_extraction,
)
from .phr import (
    MAX_DEPTH,
    PHR_CAPACITY,
    decode_branch_trace,
    encode_inference,
    extract_via_collisions,
    footprint,
    format_doublets,
)
from .trees import (
    DecisionTree,
    TreeNode,
    generate_random_tree,
    infer,
    infer_with_trace,
    load_tree,
    min_path_separation,
    save_tree,
    trace_from_text,
    trace_text,
    tree_equal,
)
