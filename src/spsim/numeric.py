"""Dense float64 attention primitives.

Provides the single-device causal grouped-query attention oracle and the
blockwise safe-softmax accumulator that every ring-style sharding strategy
is built on.  Everything here is 64-bit, allocation-pure and deterministic:
identical inputs produce bitwise-identical outputs, which is what makes
cross-strategy equivalence checks meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AttentionSpec",
    "AttentionState",
    "init_attention_state",
    "reference_attention",
    "blockwise_attention_step",
    "merge_attention_partials",
    "finalize_attention",
]


@dataclass(frozen=True)
class AttentionSpec:
    """Shape of one attention stack: query/KV head counts, head width, depth."""

    num_q_heads: int
    num_kv_heads: int
    head_dim: int
    num_layers: int = 1

    def __post_init__(self) -> None:
        for name in ("num_q_heads", "num_kv_heads", "head_dim", "num_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_q_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_kv_heads ({self.num_kv_heads}) must divide "
                f"num_q_heads ({self.num_q_heads})"
            )

    @property
    def hidden_size(self) -> int:
        return self.num_q_heads * self.head_dim

    @property
    def group_size(self) -> int:
        """Query heads sharing one KV head (contiguous grouping)."""
        return self.num_q_heads // self.num_kv_heads

    def kv_head_of(self, q_head: int) -> int:
        return q_head // self.group_size


@dataclass
class AttentionState:
    """Running blockwise-softmax accumulator for a fixed set of query rows.

    ``partial_output`` holds the un-normalized weighted value sum,
    ``running_max`` the per-row score maximum seen so far (-inf until the
    first visible key), and ``running_denominator`` the per-row softmax
    normalizer.  Finalizing divides the partial output by the denominator.
    """

    partial_output: np.ndarray  # (heads, queries, head_dim)
    running_max: np.ndarray  # (heads, queries)
    running_denominator: np.ndarray  # (heads, queries)

    @property
    def num_heads(self) -> int:
        return self.partial_output.shape[0]

    @property
    def num_queries(self) -> int:
        return self.partial_output.shape[1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.partial_output, self.running_max, self.running_denominator)


def init_attention_state(num_heads: int, num_queries: int, head_dim: int) -> AttentionState:
    """Empty accumulator: no keys visited yet for any query row."""
    return AttentionState(
        partial_output=np.zeros((num_heads, num_queries, head_dim)),
        running_max=np.full((num_heads, num_queries), -np.inf),
        running_denominator=np.zeros((num_heads, num_queries)),
    )


def _check_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_positions(pos, name: str, length: int) -> np.ndarray:
    arr = np.asarray(pos, dtype=np.int64)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    return arr


def _grouped_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` (heads, n, x) times ``b`` (kv_heads, x, y), giving (heads, n, y).

    Each KV head serves ``heads // kv_heads`` consecutive query heads
    (contiguous grouping).  Their rows are stacked into one matrix per KV
    head, so ``b`` is never copied out to every query head.
    """
    heads, n, _ = a.shape
    kv_heads = b.shape[0]
    stacked = a.reshape(kv_heads, heads // kv_heads * n, a.shape[2])
    return np.matmul(stacked, b).reshape(heads, n, b.shape[2])


def _masked_scores(q, k, q_pos, kv_pos) -> np.ndarray:
    """Scaled scores (heads, n_q, n_k) with causally masked entries at -inf."""
    scores = _grouped_matmul(q, k.transpose(0, 2, 1))
    scores *= 1.0 / math.sqrt(q.shape[2])
    np.copyto(scores, -np.inf, where=kv_pos[np.newaxis, :] > q_pos[:, np.newaxis])
    return scores


def reference_attention(q, k, v, spec: AttentionSpec, q_positions=None, kv_positions=None):
    """Exact causal grouped-query attention for one layer on one device.

    ``q`` is (num_q_heads, n_q, head_dim); ``k``/``v`` are
    (num_kv_heads, n_k, head_dim).  Positions are global token indices; a
    query at position i attends keys at positions <= i.  Scores are scaled
    by 1/sqrt(head_dim).  This is the oracle every sharded strategy is
    verified against.
    """
    q = _check_array(q, "q", 3)
    k = _check_array(k, "k", 3)
    v = _check_array(v, "v", 3)
    if q.shape[0] != spec.num_q_heads or q.shape[2] != spec.head_dim:
        raise ValueError(f"q shape {q.shape} does not match spec {spec}")
    if k.shape[0] != spec.num_kv_heads or k.shape[2] != spec.head_dim:
        raise ValueError(f"k shape {k.shape} does not match spec {spec}")
    if v.shape != k.shape:
        raise ValueError(f"v shape {v.shape} does not match k shape {k.shape}")

    n_q, n_k = q.shape[1], k.shape[1]
    q_pos = (
        np.arange(n_q, dtype=np.int64)
        if q_positions is None
        else _check_positions(q_positions, "q_positions", n_q)
    )
    kv_pos = (
        np.arange(n_k, dtype=np.int64)
        if kv_positions is None
        else _check_positions(kv_positions, "kv_positions", n_k)
    )
    for name, pos in (("q_positions", q_pos), ("kv_positions", kv_pos)):
        if pos.size > 1 and np.any(np.diff(pos) <= 0):
            raise ValueError(f"{name} must be strictly increasing")

    scores = _masked_scores(q, k, q_pos, kv_pos)
    row_max = scores.max(axis=-1)
    if np.any(np.isneginf(row_max)):
        raise ValueError("some query rows attend no keys (empty causal window)")
    scores -= row_max[..., np.newaxis]
    weights = np.exp(scores, out=scores)
    denom = weights.sum(axis=-1)
    out = _grouped_matmul(weights, v)
    out /= denom[..., np.newaxis]
    return out


def blockwise_attention_step(state: AttentionState, q_block, k_block, v_block,
                             q_positions, kv_positions) -> AttentionState:
    """Fold one KV block into the accumulator (one ring hop's local compute).

    Safe-softmax update: the running maximum absorbs the block's row maxima
    and previous contributions are rescaled by exp(old_max - new_max).
    A block whose keys are all causally masked for a row leaves that row's
    state unchanged; a block that no query row sees returns ``state``
    itself.  Otherwise returns a new state.  The input is never mutated.
    """
    q = _check_array(q_block, "q_block", 3)
    k = _check_array(k_block, "k_block", 3)
    v = _check_array(v_block, "v_block", 3)
    heads, n_q, head_dim = q.shape
    if state.partial_output.shape != (heads, n_q, head_dim):
        raise ValueError(
            f"state shape {state.partial_output.shape} does not match "
            f"q_block shape {q.shape}"
        )
    if v.shape != k.shape:
        raise ValueError(f"v_block shape {v.shape} does not match k_block {k.shape}")
    if heads % k.shape[0] != 0:
        raise ValueError(
            f"kv head count {k.shape[0]} does not divide q head count {heads}"
        )
    q_pos = _check_positions(q_positions, "q_positions", n_q)
    kv_pos = _check_positions(kv_positions, "kv_positions", k.shape[1])
    # Every key lies after every query: the update would rescale by 1 and
    # add 0, so skip the arithmetic.
    if kv_pos.size == 0 or q_pos.size == 0 or kv_pos.min() > q_pos.max():
        return state

    scores = _masked_scores(q, k, q_pos, kv_pos)
    block_max = scores.max(axis=-1)  # -inf on rows fully masked in this block
    new_max = np.maximum(state.running_max, block_max)
    # Shift by 0 instead of -inf for rows that have still seen no key, so the
    # exponentials below evaluate to exact 0.0 rather than nan.
    safe_max = np.where(np.isneginf(new_max), 0.0, new_max)
    scores -= safe_max[..., np.newaxis]
    weights = np.exp(scores, out=scores)
    rescale = np.exp(state.running_max - safe_max)
    partial_output = _grouped_matmul(weights, v)
    partial_output += state.partial_output * rescale[..., np.newaxis]
    return AttentionState(
        partial_output=partial_output,
        running_max=new_max,
        running_denominator=state.running_denominator * rescale + weights.sum(axis=-1),
    )


def merge_attention_partials(a: AttentionState, b: AttentionState) -> AttentionState:
    """Log-sum-exp merge of two accumulators over disjoint key sets.

    Finalizing the merge equals finalizing a single accumulation over the
    union of both key sets; the empty state is the identity element.
    """
    if a.partial_output.shape != b.partial_output.shape:
        raise ValueError(
            f"query dimensions differ: {a.partial_output.shape} vs "
            f"{b.partial_output.shape}"
        )
    merged_max = np.maximum(a.running_max, b.running_max)
    safe_max = np.where(np.isneginf(merged_max), 0.0, merged_max)
    scale_a = np.exp(a.running_max - safe_max)
    scale_b = np.exp(b.running_max - safe_max)
    return AttentionState(
        partial_output=a.partial_output * scale_a[..., np.newaxis]
        + b.partial_output * scale_b[..., np.newaxis],
        running_max=merged_max,
        running_denominator=a.running_denominator * scale_a
        + b.running_denominator * scale_b,
    )


def finalize_attention(state: AttentionState) -> np.ndarray:
    """Normalize the accumulator into the attention output."""
    if np.any(state.running_denominator <= 0.0):
        raise ValueError("cannot finalize: some query rows never saw a key")
    return state.partial_output / state.running_denominator[..., np.newaxis]
