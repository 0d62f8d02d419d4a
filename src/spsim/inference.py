"""Sequence-parallel inference: distributed prefill, per-token decode, and
an analytic pipeline-parallel baseline for schedule and memory comparison.

The model is a stub: a stack of attention layers with deterministic
projection weights and a deterministic linear head.  That is enough to
exercise KV-cache distribution, position tracking and the last-token
termination protocol, which are the parts under test; it is not a language
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fabric import CommLog, DeviceMesh, Topology, comm_time, rank_program, run_program
from .numeric import (
    AttentionSpec,
    blockwise_attention_step,
    finalize_attention,
    kv_block,
    merge_attention_partials,
    reference_attention,
    start_fold,
)
from .sharding import EncodedSequence, ShardPlan, text_embedding_stub
from .strategies import attention_rank_body, resolve_strategy
from . import perf

__all__ = [
    "StubModel",
    "DecodeState",
    "ScheduleReport",
    "sp_prefill",
    "sp_decode_step",
    "decode_greedy",
    "local_forward",
    "local_decode",
    "pipeline_baseline",
    "sp_inference_report",
    "pipeline_max_seq",
    "sp_max_seq",
]

_MODEL_SEED = 0xD0DE


class StubModel:
    """Deterministic attention stack plus a linear vocabulary head.

    Weights are derived from a fixed seed, so every rank (and every world
    size) materializes identical parameters without communication.
    """

    def __init__(self, spec: AttentionSpec, vocab_size: int = 64,
                 eos_token_id: int = 0) -> None:
        self.spec = spec
        self.vocab_size = vocab_size
        self.eos_token_id = eos_token_id
        hidden = spec.hidden_size
        scale = 1.0 / np.sqrt(hidden)
        self.w_q, self.w_k, self.w_v, self.w_o = [], [], [], []
        for layer in range(spec.num_layers):
            rng = np.random.default_rng([_MODEL_SEED, layer])
            self.w_q.append(rng.standard_normal((hidden, spec.num_q_heads * spec.head_dim)) * scale)
            self.w_k.append(rng.standard_normal((hidden, spec.num_kv_heads * spec.head_dim)) * scale)
            self.w_v.append(rng.standard_normal((hidden, spec.num_kv_heads * spec.head_dim)) * scale)
            self.w_o.append(rng.standard_normal((spec.num_q_heads * spec.head_dim, hidden)) * scale)
        head_rng = np.random.default_rng([_MODEL_SEED, spec.num_layers, 1])
        self.w_head = head_rng.standard_normal((hidden, vocab_size)) * scale
        self._embedding_rows: dict[int, np.ndarray] = {}  # vocabulary id -> row

    def embed(self, token_ids) -> np.ndarray:
        """``text_embedding_stub`` rows; a vocabulary id's row is derived once."""
        rows = np.empty((len(token_ids), self.spec.hidden_size))
        for i, token_id in enumerate(token_ids):
            token_id = int(token_id)
            row = self._embedding_rows.get(token_id)
            if row is None:
                row = text_embedding_stub([token_id], self.spec.hidden_size)[0]
                if 0 <= token_id < self.vocab_size:
                    self._embedding_rows[token_id] = row
            rows[i] = row
        return rows

    def qkv(self, layer: int, x: np.ndarray, *, kv: bool = True):
        """Project (n, hidden) rows into per-head q/k/v tensors; without
        ``kv``, k and v are not projected and come back as None."""
        spec = self.spec
        n = x.shape[0]
        q = (x @ self.w_q[layer]).reshape(n, spec.num_q_heads, spec.head_dim)
        if not kv:
            return np.ascontiguousarray(q.transpose(1, 0, 2)), None, None
        k = (x @ self.w_k[layer]).reshape(n, spec.num_kv_heads, spec.head_dim)
        v = (x @ self.w_v[layer]).reshape(n, spec.num_kv_heads, spec.head_dim)
        return (
            np.ascontiguousarray(q.transpose(1, 0, 2)),
            np.ascontiguousarray(k.transpose(1, 0, 2)),
            np.ascontiguousarray(v.transpose(1, 0, 2)),
        )

    def project_out(self, layer: int, heads_out: np.ndarray) -> np.ndarray:
        """Fold (heads, n, head_dim) attention output back to (n, hidden)."""
        n = heads_out.shape[1]
        stacked = heads_out.transpose(1, 0, 2).reshape(n, -1)
        return stacked @ self.w_o[layer]

    def logits(self, hidden_row: np.ndarray) -> np.ndarray:
        return hidden_row @ self.w_head


def greedy_sampler(logits: np.ndarray) -> int:
    return int(np.argmax(logits))


# ---------------------------------------------------------------------------
# Single-device reference paths (used by tests and world=1 checks)
# ---------------------------------------------------------------------------

def local_forward(model: StubModel, embeddings: np.ndarray) -> np.ndarray:
    """Plain one-device forward pass over the full sequence."""
    x = embeddings
    for layer in range(model.spec.num_layers):
        q, k, v = model.qkv(layer, x)
        out = reference_attention(q, k, v, model.spec)
        x = model.project_out(layer, out) + x
    return x


def local_decode(model: StubModel, embeddings: np.ndarray, max_new_tokens: int) -> list[int]:
    """One-device greedy decode by full recomputation each step."""
    rows = embeddings
    tokens: list[int] = []
    for _ in range(max_new_tokens):
        hidden = local_forward(model, rows)
        token = greedy_sampler(model.logits(hidden[-1]))
        tokens.append(token)
        if token == model.eos_token_id:
            break
        rows = np.concatenate([rows, model.embed([token])], axis=0)
    return tokens


# ---------------------------------------------------------------------------
# Distributed prefill and decode
# ---------------------------------------------------------------------------

@dataclass
class DecodeState:
    """Everything that progressively changes during decoding.  A rank's cache
    is the KV block ``kv_block`` checked where the rank made it."""

    model: StubModel
    plan: ShardPlan
    caches: list[list]  # [rank][layer] checked KV blocks: k, v and positions
    last_hidden: np.ndarray  # (hidden,) output at the newest position
    next_position: int
    owner: int  # rank that owns the newest token's KV slot
    generated: list[int] = field(default_factory=list)
    finished: bool = False
    comm_log: CommLog = field(default_factory=CommLog)


def sp_prefill(mesh: DeviceMesh, encoded: EncodedSequence, plan: ShardPlan,
               model: StubModel, kv_replication: bool = False) -> DecodeState:
    """Run the prompt through the SP attention stack, retaining per-rank KV.

    Dummy padding rows flow through compute (harmless under the causal
    mask) but are stripped from the caches, so decode positions continue
    from the original prompt length.
    """
    if plan.sp_degree != mesh.world_size:
        raise ValueError("plan does not match mesh world size")
    x_shards = plan.shard(encoded.embeddings, axis=0)
    prompt_len = plan.original_length

    def program(handle):
        rank = handle.rank
        positions = plan.rank_positions(rank)
        real = positions < prompt_len
        x = x_shards[rank]
        caches = []
        for layer in range(model.spec.num_layers):
            q, k, v = model.qkv(layer, x)
            out = yield from attention_rank_body(handle, mesh, plan, model.spec, q, k, v,
                                                 kv_replication)
            x = model.project_out(layer, out) + x
            caches.append(kv_block(k[:, real], v[:, real], positions[real]))
        return x, caches

    outputs, log = run_program(mesh, rank_program(program))
    hidden = plan.gather([o[0] for o in outputs], axis=0, trim=True)
    state = DecodeState(
        model=model,
        plan=plan,
        caches=[o[1] for o in outputs],
        last_hidden=hidden[-1],
        next_position=prompt_len,
        owner=plan.rank_of_chunk(plan.num_chunks - 1),
    )
    state.comm_log.extend(log)
    return state


def sp_decode_step(mesh: DeviceMesh, state: DecodeState, sampler=greedy_sampler):
    """Sample one token and (unless it terminates) advance the caches.

    The owner rank samples from the newest position's logits and broadcasts
    the token; end-of-sequence is the collective termination signal.  In
    each layer every rank folds the new token's query over its own cache;
    the owner gathers the partial states, merges them once in group order
    (a log-sum-exp reduce), finalizes and projects, and broadcasts the
    layer's new hidden row.
    """
    if state.finished:
        raise RuntimeError("decode after the stream finished")
    model = state.model
    sp = state.plan.sp_degree
    if sp != mesh.world_size:
        raise ValueError("plan does not match mesh world size")
    group = tuple(range(sp))
    owner = state.owner
    pos = state.next_position
    q_pos = np.array([pos], dtype=np.int64)

    def program(handle):
        rank = handle.rank
        if rank == owner:
            token = int(sampler(model.logits(state.last_hidden)))
        else:
            token = None
        token = yield handle.broadcast(group, owner, token)
        if token == model.eos_token_id:
            return token, None, None
        x = model.embed([token])
        new_caches = []  # the owner's caches with the new token appended
        for layer in range(model.spec.num_layers):
            q, k, v = model.qkv(layer, x, kv=rank == owner)  # only the owner caches k, v
            cache = state.caches[rank][layer]
            if rank == owner:
                cache = kv_block(np.concatenate([cache.k, k], axis=1),
                                 np.concatenate([cache.v, v], axis=1),
                                 np.concatenate([cache.positions, q_pos]))
                new_caches.append(cache)
            fold = start_fold(q, q_pos)
            # No fold writes into a block's k or v, so a cache folds as stored.
            blockwise_attention_step(fold, [cache])
            gathered = yield handle.all_gather(group, fold.state, root=owner)
            if rank == owner:
                merged = merge_attention_partials(*gathered)
                x = model.project_out(layer, finalize_attention(merged)) + x
            x = yield handle.broadcast(group, owner, x)
        return token, x[0], new_caches

    outputs, log = run_program(mesh, rank_program(program))
    state.comm_log.extend(log)
    token = outputs[0][0]
    if token == model.eos_token_id:
        state.finished = True
        return token, state
    _, state.last_hidden, state.caches[owner] = outputs[owner]
    state.next_position = pos + 1
    state.generated.append(token)
    return token, state


def decode_greedy(mesh: DeviceMesh, state: DecodeState, max_new_tokens: int) -> list[int]:
    """Greedy-decode up to ``max_new_tokens`` tokens (stops at end-of-sequence)."""
    tokens = []
    for _ in range(max_new_tokens):
        token, state = sp_decode_step(mesh, state)
        tokens.append(token)
        if state.finished:
            break
    return tokens


# ---------------------------------------------------------------------------
# Analytic schedules: pipeline baseline vs sequence-parallel inference
# ---------------------------------------------------------------------------

@dataclass
class ScheduleReport:
    """Per-device busy/idle split, peak memory and total request latency."""

    mode: str  # "pipeline" | "sp"
    busy_seconds: list[float]
    idle_seconds: list[float]
    peak_memory_bytes: list[float]
    total_latency: float

    @property
    def num_devices(self) -> int:
        return len(self.busy_seconds)

    def rows(self):
        for dev in range(self.num_devices):
            yield (self.mode, dev, self.busy_seconds[dev], self.idle_seconds[dev],
                   self.peak_memory_bytes[dev])


# Inference's own footprint model, which prices a layer from the hidden size
# alone rather than from the profile's parameter counts.
_LINEAR_PARAMS_FACTOR = 12.0  # per-layer linear params / hidden^2
_INPUT_RESIDENT_FACTOR = 100.0  # embeddings + vision pinned on device 0
_WORKING_FACTOR = 22.0  # per-device working activations


def _layer_forward_flops(spec: AttentionSpec, seq_len: int) -> float:
    hidden = spec.hidden_size
    linear = 2.0 * _LINEAR_PARAMS_FACTOR * hidden * hidden * seq_len
    attention = 2.0 * seq_len * seq_len * hidden
    return linear + attention


def _total_weight_bytes(spec: AttentionSpec) -> float:
    params = spec.num_layers * _LINEAR_PARAMS_FACTOR * spec.hidden_size**2
    return params * perf.WEIGHT_BYTES_PER_PARAM


def _bytes_per_token(spec: AttentionSpec) -> float:
    return spec.hidden_size * perf.ACTIVATION_BYTES


def pipeline_baseline(topology: Topology, spec: AttentionSpec, seq_len: int,
                      stages: int) -> ScheduleReport:
    """Layer-by-layer pipeline over one request: one device busy at a time.

    The first device additionally holds the full input embeddings and vision
    tokens, which is the memory bottleneck that caps its sequence length.
    """
    if stages < 1 or stages > topology.world_size:
        raise ValueError(f"stages must be in [1, {topology.world_size}]")
    layers = [spec.num_layers // stages] * stages
    layers[-1] += spec.num_layers - sum(layers)
    layer_seconds = _layer_forward_flops(spec, seq_len) / perf.DEVICE_RATE
    busy = [n * layer_seconds for n in layers]
    transfer_total = 0.0
    for dev in range(stages - 1):
        transfer_total += comm_time(
            seq_len * _bytes_per_token(spec),
            topology.link_class(dev, dev + 1),
            topology,
        )
    total = sum(busy) + transfer_total
    idle = [total - b for b in busy]
    weight_share = [n / spec.num_layers * _total_weight_bytes(spec) for n in layers]
    token_bytes = seq_len * _bytes_per_token(spec)
    peak = [
        w + token_bytes * _WORKING_FACTOR
        + (token_bytes * _INPUT_RESIDENT_FACTOR if dev == 0 else 0.0)
        for dev, w in enumerate(weight_share)
    ]
    return ScheduleReport(
        mode="pipeline",
        busy_seconds=busy,
        idle_seconds=idle,
        peak_memory_bytes=peak,
        total_latency=total,
    )


def sp_inference_report(mesh: DeviceMesh, spec: AttentionSpec, seq_len: int) -> ScheduleReport:
    """All devices busy concurrently; activations and KV spread evenly."""
    world = mesh.world_size
    compute = spec.num_layers * _layer_forward_flops(spec, seq_len) \
        / perf.DEVICE_RATE / world
    config = resolve_strategy(spec, mesh.topology, a2a=mesh.a2a_degree)
    comm = max(perf.per_rank_comm_seconds(config, spec, seq_len, mesh)) * spec.num_layers
    total = compute + comm
    token_bytes = seq_len * _bytes_per_token(spec)
    per_device_mem = (
        _total_weight_bytes(spec) / world
        + token_bytes * (_INPUT_RESIDENT_FACTOR + _WORKING_FACTOR) / world
    )
    return ScheduleReport(
        mode="sp",
        busy_seconds=[total] * world,
        idle_seconds=[0.0] * world,
        peak_memory_bytes=[per_device_mem] * world,
        total_latency=total,
    )


def pipeline_max_seq(topology: Topology, spec: AttentionSpec, stages: int) -> int:
    """Longest sequence the pipeline's first device can hold."""
    first_weights = (spec.num_layers // stages) / spec.num_layers \
        * _total_weight_bytes(spec)
    budget = perf.DEVICE_MEMORY_BYTES - first_weights
    if budget <= 0:
        return 0
    per_token = _bytes_per_token(spec) * (
        _INPUT_RESIDENT_FACTOR + _WORKING_FACTOR
    )
    return int(budget / per_token)


def sp_max_seq(mesh: DeviceMesh, spec: AttentionSpec) -> int:
    """Longest sequence when activations are spread evenly across devices."""
    world = mesh.world_size
    budget = perf.DEVICE_MEMORY_BYTES - _total_weight_bytes(spec) / world
    if budget <= 0:
        return 0
    per_token = _bytes_per_token(spec) * (
        _INPUT_RESIDENT_FACTOR + _WORKING_FACTOR
    ) / world
    return int(budget / per_token)
