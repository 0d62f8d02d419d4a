"""Desk-scale deterministic simulator for sequence-parallel attention.

Sharded causal grouped-query attention under four parallelism strategies,
verified against a single-device oracle; the two-stage multimodal sharding
workflow; sequence-parallel inference; and an analytic performance model.
"""

__version__ = "0.1.0"

from .numeric import (  # noqa: F401
    AttentionSpec,
    AttentionState,
    blockwise_attention_step,
    finalize_attention,
    init_attention_state,
    kv_block,
    merge_attention_partials,
    reference_attention,
    start_fold,
)
from .fabric import (  # noqa: F401
    CommLog,
    DeviceMesh,
    Topology,
    build_mesh,
    comm_time,
    rank_program,
    run_program,
)
from .sharding import (  # noqa: F401
    EncodedSequence,
    MultimodalSequence,
    ShardPlan,
    distribute_images,
    globalize_and_pad,
    shard_plan,
)
from .strategies import (  # noqa: F401
    StrategyConfig,
    attention_2d,
    execute_strategy,
    ring_attention,
    ulysses_attention,
    zigzag_ring_attention,
)
