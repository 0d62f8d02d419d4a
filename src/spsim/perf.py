"""Analytic performance model and strategy planner.

The FLOPs model is calibrated once per component against one row of the
measured complexity table and must then predict every other row; the
communication model enumerates the exact message pattern of each strategy,
so its byte counts equal the executed CommLog to the byte.  Iteration-time
and memory estimates are used only for ratios and orderings, never for
absolute wall-clock claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .fabric import SCALAR_BYTES, DeviceMesh, Topology, build_mesh, comm_time
from .numeric import AttentionSpec
from .sharding import padded_length, plan_granule
from .strategies import (
    RING_KINDS,
    StrategyConfig,
    StrategyConfigError,
    effective_kv_heads,
    plan_kind,
    resolve_strategy,
)

__all__ = [
    "overlap_penalty",
    "ModelProfile",
    "CalibrationRow",
    "PROFILE_NAMES",
    "model_profile",
    "reference_rows",
    "calibrate",
    "flops_profile",
    "comm_volume",
    "strategy_messages",
    "decode_messages",
    "per_rank_comm_seconds",
    "iteration_time",
    "megatron_baseline_time",
    "max_context",
    "peak_memory_per_rank",
    "two_stage_gain",
    "plan",
]

COMPONENTS = ("encoder", "linears", "attention", "others")

FLOAT_BYTES = 8  # simulator tensors are float64

# Hardware and footprint constants of the cost model (inference reads the
# device ones too); acceptance checks use only ratios and orderings.
DEVICE_RATE = 989e12 * 0.45  # peak per-device FLOP/s times the achieved fraction
BACKWARD_MULTIPLIER = 2.0  # fwd+bwd as a multiple of fwd
ACTIVATION_TENSORS_PER_LAYER = 18.0
ACTIVATION_BYTES = 2.0  # activations are half precision
WEIGHT_BYTES_PER_PARAM = 2.0
MEMORY_OVERHEAD_BYTES = 2e9
DEVICE_MEMORY_BYTES = 80e9  # per-device budget of the max-length estimates


# Measured attention-kernel slowdown when communication overlap competes for
# SM resources, keyed by per-rank token count (forward pass).
_OVERLAP_TABLE = (
    (4096, 0.186),
    (8192, 0.107),
    (16384, 0.075),
    (24576, 0.048),
    (32768, 0.042),
)


def overlap_penalty(per_rank_tokens: float) -> float:
    """Relative compute slowdown at a per-rank sequence length: the table
    interpolated linearly, clamped at its ends."""
    pts = _OVERLAP_TABLE
    if per_rank_tokens <= pts[0][0]:
        return pts[0][1]
    if per_rank_tokens >= pts[-1][0]:
        return pts[-1][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= per_rank_tokens <= x1:
            frac = (per_rank_tokens - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ModelProfile:
    """Model shape, per-component parameter counts and fitted constants.

    The published TFLOPs convention embeds an unstated constant, so one
    dimensionless constant per component is fitted from a single calibration
    row and then frozen; every other row must be predicted within tolerance.
    """

    name: str
    spec: AttentionSpec
    encoder_params: float
    linear_params: float
    other_params: float
    tokens_per_frame: int = 197
    constants: dict | None = None  # c_encoder, c_linear, c_attention, c_other

    @property
    def calibrated(self) -> bool:
        return self.constants is not None

    @property
    def total_params(self) -> float:
        return self.encoder_params + self.linear_params + self.other_params


@dataclass(frozen=True)
class CalibrationRow:
    frames: int
    context: int
    tflops: dict  # component -> published TFLOPs


# Measured per-component TFLOPs of the two long-video VLM configurations,
# across frame counts; source data for calibration and validation.
_COMPLEXITY_CONTEXTS = ((32, 6415), (64, 12719), (128, 25327), (256, 50543), (512, 100975))
_COMPLEXITY_TFLOPS = {
    "1.5b": {
        "encoder": (5.13, 10.26, 20.52, 41.05, 82.09),
        "linears": (4.20, 8.33, 16.60, 33.12, 66.17),
        "attention": (1.77, 6.96, 27.59, 109.89, 438.59),
        "others": (0.75, 1.48, 2.95, 5.88, 11.75),
    },
    "7b": {
        "encoder": (5.22, 10.45, 20.89, 41.78, 83.57),
        "linears": (20.93, 41.50, 82.64, 164.92, 329.48),
        "attention": (4.13, 16.24, 64.38, 256.40, 1023.37),
        "others": (1.74, 3.46, 6.89, 13.74, 27.45),
    },
}

_BASE_PROFILES = {
    "1.5b": ModelProfile(
        name="1.5b",
        spec=AttentionSpec(num_q_heads=12, num_kv_heads=2, head_dim=128, num_layers=28),
        encoder_params=0.44e9,
        linear_params=1.31e9,
        other_params=0.23e9,
    ),
    "7b": ModelProfile(
        name="7b",
        spec=AttentionSpec(num_q_heads=28, num_kv_heads=4, head_dim=128, num_layers=28),
        encoder_params=0.46e9,
        linear_params=6.53e9,
        other_params=1.09e9,
    ),
    # GQA config with 32 query / 8 KV heads, used for scalability studies;
    # no measured complexity rows exist, so it borrows the 7b constants.
    "8b": ModelProfile(
        name="8b",
        spec=AttentionSpec(num_q_heads=32, num_kv_heads=8, head_dim=128, num_layers=32),
        encoder_params=0.45e9,
        linear_params=6.5e9,
        other_params=1.05e9,
    ),
}

PROFILE_NAMES = tuple(sorted(_BASE_PROFILES))


def reference_rows(name: str) -> list[CalibrationRow]:
    """The measured complexity rows for a profile (empty if none exist)."""
    if name not in _COMPLEXITY_TFLOPS:
        return []
    table = _COMPLEXITY_TFLOPS[name]
    return [
        CalibrationRow(
            frames=frames,
            context=context,
            tflops={c: table[c][i] for c in COMPONENTS},
        )
        for i, (frames, context) in enumerate(_COMPLEXITY_CONTEXTS)
    ]


def calibrate(profile: ModelProfile, row: CalibrationRow) -> ModelProfile:
    """Fit the four component constants so the model reproduces ``row`` exactly."""
    if row.context < 1 or row.frames < 1:
        raise ValueError("calibration row must have positive context and frames")
    spec = profile.spec
    vision_tokens = row.frames * profile.tokens_per_frame
    constants = {
        "c_encoder": row.tflops["encoder"] * 1e12 / (profile.encoder_params * vision_tokens),
        "c_linear": row.tflops["linears"] * 1e12 / (profile.linear_params * row.context),
        "c_attention": row.tflops["attention"] * 1e12
        / (spec.num_layers * row.context**2 * spec.hidden_size),
        "c_other": row.tflops["others"] * 1e12 / (profile.other_params * row.context),
    }
    if any(value <= 0 for value in constants.values()):
        raise ValueError(f"calibration produced non-positive constants: {constants}")
    return replace(profile, constants=constants)


def model_profile(name: str) -> ModelProfile:
    """Calibrated preset profile by name."""
    if name not in _BASE_PROFILES:
        raise KeyError(
            f"unknown model profile {name!r}; available: {', '.join(PROFILE_NAMES)}"
        )
    base = _BASE_PROFILES[name]
    rows = reference_rows(name)
    if rows:
        return calibrate(base, rows[1])  # 64-frame row
    borrowed = calibrate(_BASE_PROFILES["7b"], reference_rows("7b")[1])
    return replace(base, constants=dict(borrowed.constants))


def flops_profile(profile: ModelProfile, num_frames: int, context_len: int) -> dict:
    """Per-component forward FLOPs at the given workload size.

    Attention grows quadratically in context; linears and others grow
    linearly; the encoder grows linearly in vision tokens.
    """
    if not profile.calibrated:
        raise ValueError(f"profile {profile.name!r} is not calibrated")
    if context_len < 1:
        raise ValueError("context_len must be >= 1")
    if num_frames < 0:
        raise ValueError("num_frames must be >= 0")
    c = profile.constants
    spec = profile.spec
    return {
        "encoder": c["c_encoder"] * profile.encoder_params
        * num_frames * profile.tokens_per_frame,
        "linears": c["c_linear"] * profile.linear_params * context_len,
        "attention": c["c_attention"] * spec.num_layers * context_len**2 * spec.hidden_size,
        "others": c["c_other"] * profile.other_params * context_len,
    }


# ---------------------------------------------------------------------------
# Communication model: exact mirror of the executed message patterns
# ---------------------------------------------------------------------------

def strategy_messages(config: StrategyConfig, spec: AttentionSpec, seq_len: int,
                      mesh: DeviceMesh):
    """Yield every off-rank message (src, dst, nbytes, kind) of one forward pass.

    This enumerates exactly the messages the executed strategy issues on the
    same shapes, which is what makes the analytic byte counts checkable
    against the CommLog without tolerance.  The mesh spans the world, so
    the config must factor it too.  Messages come source-major: each rank's
    a2a sends out, its ring hops to ``(src + a2a) % world``, then its a2a
    sends back; the executed log interleaves the ranks in another order.
    """
    config.check_mesh(mesh)
    sp = config.sp_degree
    padded = padded_length(plan_kind(config.kind), sp, seq_len)
    local = padded // sp
    d = spec.head_dim
    degree = config.a2a_degree
    rounds = config.p2p_degree
    eff_kv = effective_kv_heads(spec, degree, config.kv_replication)
    q_part = (spec.num_q_heads // degree) * local * d * FLOAT_BYTES
    kv_part = (eff_kv // degree) * local * d * FLOAT_BYTES
    seg_kv_bytes = 2 * (eff_kv // degree) * (degree * local) * d * FLOAT_BYTES

    # One 2D pattern for every kind: the rings are its a2a=1 factor (no
    # exchange) and ulysses its p2p=1 factor (no ring), as in execution.
    world = mesh.world_size
    for src in range(world):
        a2a_peers = [dst for dst in mesh.a2a_group_of(src) if dst != src]
        for dst in a2a_peers:
            yield src, dst, q_part + 2 * kv_part, "a2a"
        for _hop in range(rounds - 1):
            yield src, (src + degree) % world, seg_kv_bytes, "p2p"
        for dst in a2a_peers:
            yield src, dst, q_part, "a2a"


def decode_messages(spec: AttentionSpec, mesh: DeviceMesh, owner: int,
                    final: bool = False):
    """Yield every off-rank message (src, dst, nbytes, kind) of one
    ``sp_decode_step``, in log order.

    The owner broadcasts the sampled token.  Unless that token ends the
    sequence (``final``), each layer then gathers every rank's partial
    softmax state (heads x (head_dim + 2) floats) at the owner and
    broadcasts the layer's new hidden row: (W-1)(1 + 2L) messages in all.
    """
    if not 0 <= owner < mesh.world_size:
        raise ValueError(f"owner {owner} is not a rank of a world of {mesh.world_size}")
    others = [rank for rank in range(mesh.world_size) if rank != owner]
    for dst in others:
        yield owner, dst, SCALAR_BYTES, "broadcast"
    if final:
        return
    partial = spec.num_q_heads * (spec.head_dim + 2) * FLOAT_BYTES
    row = spec.hidden_size * FLOAT_BYTES
    for _layer in range(spec.num_layers):
        for src in others:
            yield src, owner, partial, "gather"
        for dst in others:
            yield owner, dst, row, "broadcast"


def comm_volume(config: StrategyConfig, spec: AttentionSpec, seq_len: int,
                mesh: DeviceMesh) -> dict:
    """Total bytes by (collective kind, link class) for one forward pass."""
    topo = mesh.topology
    volume: dict[tuple[str, str], int] = {}
    for src, dst, nbytes, kind in strategy_messages(config, spec, seq_len, mesh):
        key = (kind, topo.link_class(src, dst))
        volume[key] = volume.get(key, 0) + nbytes
    return volume


def volume_total(volume: dict, kind: str | None = None, link: str | None = None) -> int:
    return sum(
        b
        for (k, l), b in volume.items()
        if (kind is None or k == kind) and (link is None or l == link)
    )


def per_rank_comm_seconds(config: StrategyConfig, spec: AttentionSpec, seq_len: int,
                          mesh: DeviceMesh) -> list[float]:
    """Seconds each rank spends sending its messages of one forward pass."""
    topo = mesh.topology
    seconds = [0.0] * mesh.world_size
    for src, dst, nbytes, _kind in strategy_messages(config, spec, seq_len, mesh):
        seconds[src] += comm_time(nbytes, topo.link_class(src, dst), topo)
    return seconds


# ---------------------------------------------------------------------------
# Iteration time, memory and the planner
# ---------------------------------------------------------------------------

def iteration_time(config: StrategyConfig, profile: ModelProfile, topology: Topology,
                   seq_len: int, num_frames: int = 0) -> float:
    """Modeled seconds per training iteration (forward+backward).

    Ring strategies hide KV transfers under the attention kernel at the
    overlap penalty, so a rank takes the longer of its penalized compute and
    its communication; the A2A-based strategies run blocking exchanges, so
    their compute and communication add.  The slowest rank sets the
    iteration time.
    """
    flops = flops_profile(profile, num_frames, seq_len)
    sp = config.sp_degree
    mesh = build_mesh(topology, config.a2a_degree, config.p2p_degree)
    fwd_total = flops["linears"] + flops["attention"] + flops["others"]
    if num_frames > 0:
        fwd_total += flops["encoder"]
    compute = fwd_total / sp / DEVICE_RATE * BACKWARD_MULTIPLIER

    # Doubling and adding ``compute`` are monotone, so pricing the slowest
    # rank's communication alone gives the max over ranks to the bit.
    comm = max(per_rank_comm_seconds(config, profile.spec, seq_len, mesh)) \
        * BACKWARD_MULTIPLIER
    if config.kind in RING_KINDS:
        per_rank_tokens = padded_length(plan_kind(config.kind), sp, seq_len) / sp
        return max(compute * (1.0 + overlap_penalty(per_rank_tokens)), comm)
    return compute + comm


def megatron_baseline_time(profile: ModelProfile, topology: Topology, seq_len: int,
                           hybrid: bool = False) -> float:
    """Ring-with-extra-allreduce baseline curve, for ordering comparisons only.

    Plain context parallelism is a non-overlapping zigzag ring plus per-layer
    activation all-reduces; the hybrid variant keeps tensor parallelism
    inside the node and rings context across nodes.
    """
    spec = profile.spec
    world = topology.world_size
    flops = flops_profile(profile, 0, seq_len)
    fwd_total = flops["linears"] + flops["attention"] + flops["others"]
    if hybrid:
        tp = min(topology.gpus_per_node, spec.num_q_heads)
        cp = max(1, world // tp)
    else:
        tp, cp = 1, world
    compute = fwd_total / (tp * cp) / DEVICE_RATE * BACKWARD_MULTIPLIER
    # CP ring: KV shards (split across TP heads) hop cp-1 times over slow links
    ring_link = "inter" if cp > 1 and topology.num_nodes > 1 else "intra"
    kv_bytes = 2 * (spec.num_kv_heads / tp) * (seq_len / cp) * spec.head_dim * FLOAT_BYTES
    ring_seconds = (cp - 1) * comm_time(kv_bytes, ring_link, topology)
    # per-layer activation all-reduces inside the TP group
    ar_seconds = 0.0
    if tp > 1:
        ar_bytes = 2 * (tp - 1) / tp * (seq_len / cp) * spec.hidden_size * FLOAT_BYTES
        ar_seconds = 2 * spec.num_layers * comm_time(ar_bytes, "intra", topology)
    return compute + (ring_seconds + ar_seconds) * BACKWARD_MULTIPLIER


def activation_bytes_per_token(spec: AttentionSpec) -> float:
    """Bytes of saved activations per token, over all layers."""
    return (
        spec.num_layers * spec.hidden_size * ACTIVATION_TENSORS_PER_LAYER * ACTIVATION_BYTES
    )


def peak_memory_per_rank(profile: ModelProfile, world_size: int, seq_len: int) -> float:
    """Weights share (fully sharded) plus this rank's activation slice."""
    weights = profile.total_params * WEIGHT_BYTES_PER_PARAM / world_size
    activations = seq_len / world_size * activation_bytes_per_token(profile.spec)
    return weights + activations + MEMORY_OVERHEAD_BYTES


def _sp_cap(config: StrategyConfig | str, spec: AttentionSpec) -> int | None:
    if isinstance(config, str):
        if config == "data_parallel":
            return 1
        raise ValueError(f"unknown strategy name {config!r}")
    if config.kind == "ulysses":
        return spec.num_q_heads if config.kv_replication else spec.num_kv_heads
    return None  # ring and 2D scale with the world


def max_context(config: StrategyConfig | str, profile: ModelProfile, world_size: int) -> int:
    """Largest context whose per-rank memory fits the per-device budget.

    Ulysses is capped at its head-count degree; plain data parallelism never
    shards a sequence, so it is capped at single-device capacity.
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    cap = _sp_cap(config, profile.spec)
    sp = world_size if cap is None else min(world_size, cap)
    weights = profile.total_params * WEIGHT_BYTES_PER_PARAM / world_size
    budget = DEVICE_MEMORY_BYTES - weights - MEMORY_OVERHEAD_BYTES
    if budget <= 0:
        return 0
    per_token = activation_bytes_per_token(profile.spec)
    tokens = int(sp * budget / per_token)
    return tokens - tokens % plan_granule("zigzag", sp)  # largest padded length that fits


def two_stage_gain(samples, sp_degree: int, profile: ModelProfile,
                   tokens_per_frame: int | None = None) -> tuple[float, float]:
    """Modeled iteration seconds under one-stage vs two-stage sharding.

    One-stage balances frames only (text tokens stay on their sample's home
    rank); two-stage re-balances every token.  Both are the max over ranks
    of encoder plus language-model compute.
    """
    if not profile.calibrated:
        raise ValueError("two_stage_gain requires a calibrated profile")
    if sp_degree < 1:
        raise ValueError("sp_degree must be >= 1")
    c = profile.constants
    spec = profile.spec
    tpf = profile.tokens_per_frame if tokens_per_frame is None else tokens_per_frame

    frames = [s.num_frames for s in samples]
    texts = [s.num_text_tokens for s in samples]
    total_frames = sum(frames)
    total_tokens = total_frames * tpf + sum(texts)

    # stage 1 (identical in both schemes): frames split evenly
    base, extra = divmod(total_frames, sp_degree)
    frames_per_rank = [base + (1 if r < extra else 0) for r in range(sp_degree)]

    def llm_seconds(tokens: float) -> float:
        linear = c["c_linear"] * profile.linear_params * tokens
        other = c["c_other"] * profile.other_params * tokens
        attn = c["c_attention"] * spec.num_layers * tokens * total_tokens * spec.hidden_size
        return (linear + other + attn) / DEVICE_RATE * BACKWARD_MULTIPLIER

    def encoder_seconds(n_frames: float) -> float:
        return (
            c["c_encoder"] * profile.encoder_params * n_frames * tpf
            / DEVICE_RATE * BACKWARD_MULTIPLIER
        )

    # one-stage: vision tokens follow the frame split, text stays home
    one_tokens = [f * tpf for f in frames_per_rank]
    for i, text in enumerate(texts):
        one_tokens[i % sp_degree] += text
    one_stage = max(
        encoder_seconds(f) + llm_seconds(t) for f, t in zip(frames_per_rank, one_tokens)
    )

    # two-stage: every token re-balanced
    tok_base, tok_extra = divmod(total_tokens, sp_degree)
    two_tokens = [tok_base + (1 if r < tok_extra else 0) for r in range(sp_degree)]
    two_stage = max(
        encoder_seconds(f) + llm_seconds(t) for f, t in zip(frames_per_rank, two_tokens)
    )
    return one_stage, two_stage


def _divisors(n: int) -> list[int]:
    """The divisors of ``n`` in ascending order, found in O(sqrt(n)) steps."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def plan(topology: Topology, profile: ModelProfile, seq_len: int) -> StrategyConfig:
    """Pick the fastest valid strategy for this topology and sequence length.

    Enumerates every (a2a, p2p) factorization of the world (the degenerate
    factors are the pure strategies), scores each with iteration_time and
    returns the argmin; ties prefer a larger a2a factor, then a smaller p2p.
    """
    candidates: list[StrategyConfig] = []
    for a2a in _divisors(topology.world_size):
        try:
            candidates.append(resolve_strategy(profile.spec, topology, a2a=a2a))
        except StrategyConfigError:
            continue
    scored = [
        (iteration_time(cfg, profile, topology, seq_len),
         -cfg.a2a_degree, cfg.p2p_degree, cfg)
        for cfg in candidates
    ]
    scored.sort(key=lambda item: item[:3])
    return scored[0][3]
