"""Dense float64 attention primitives.

Provides the single-device causal grouped-query attention oracle and the
blockwise safe-softmax accumulator that every ring-style sharding strategy
is built on.  Everything here is 64-bit and deterministic: identical inputs
produce bitwise-identical outputs, which is what makes cross-strategy
equivalence checks meaningful.

A ring pass folds every KV block it receives into one accumulator in place:
``start_fold`` checks the query block once and owns the state, and
``blockwise_attention_step(..., out=fold)`` then checks only the KV block.
The functional call form is the same fold on a copy of the state.
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
    "AttentionFold",
    "start_fold",
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
    if not np.isfinite(arr).all():
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


def _scores(q, k) -> np.ndarray:
    """Scaled scores (heads, n_q, n_k), no mask."""
    scores = _grouped_matmul(q, k.transpose(0, 2, 1))
    scores *= 1.0 / math.sqrt(q.shape[2])
    return scores


def _masked_scores(q, k, q_pos, kv_pos) -> np.ndarray:
    """Scaled scores (heads, n_q, n_k) with causally masked entries at -inf."""
    scores = _scores(q, k)
    masked = kv_pos[np.newaxis, :] > q_pos[:, np.newaxis]
    if masked.any():  # every row sees every key of the block otherwise
        np.copyto(scores, -np.inf, where=masked)
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


@dataclass
class AttentionFold:
    """A query block, checked once, and the accumulator its KV blocks fold
    into (see ``start_fold``).  A caller's state is copied before its first
    change, never mutated."""

    q: np.ndarray
    q_positions: np.ndarray
    q_span: tuple[int, int]  # least and greatest query position
    state: AttentionState
    owned: bool  # ``state`` belongs to the fold and may change in place
    fresh: bool  # no key folded yet, so every running max is -inf
    all_seen: bool = False  # every row has seen a key: no running max is -inf


def start_fold(q_block, q_positions, state: AttentionState | None = None) -> AttentionFold:
    """Check a query block and its positions once for a chain of KV folds."""
    q = _check_array(q_block, "q_block", 3)
    if state is not None and state.partial_output.shape != q.shape:
        raise ValueError(
            f"state shape {state.partial_output.shape} does not match "
            f"q_block shape {q.shape}"
        )
    q_pos = _check_positions(q_positions, "q_positions", q.shape[1])
    span = (int(q_pos.min()), int(q_pos.max())) if q_pos.size else (0, -1)
    owned = state is None
    return AttentionFold(q, q_pos, span, init_attention_state(*q.shape) if owned else state,
                         owned=owned, fresh=owned)


def blockwise_attention_step(state: AttentionState, q_block, k_block, v_block,
                             q_positions, kv_positions, *,
                             out: AttentionFold | None = None) -> AttentionState:
    """Fold one KV block into the accumulator (one ring hop's local compute).

    Safe-softmax update: the running maximum absorbs the block's row maxima
    and previous contributions are rescaled by exp(old_max - new_max).
    A block whose keys are all causally masked for a row leaves that row's
    state unchanged; a block that no query row sees returns ``state``
    itself.  Otherwise returns a new state.  The input is never mutated.

    In place: with ``out`` from ``start_fold(q_block, q_positions)``, pass
    the fold's own ``state``, ``q`` and ``q_positions``; only the KV block is
    checked, and it folds into ``out.state``, which is returned.

    Provably-zero work is skipped.  Bitwise exact: the rescale on a fresh
    fold's first visible block (zeros times 0), the -inf guard once every
    row has seen a key, the causal mask on a block every row fully sees, and
    rows that see no key of the block.  Keys that no row sees weigh exactly
    0, but dropping them shortens the matmul and sum, which can move last bits.
    """
    if out is None:
        out = start_fold(q_block, q_positions, state)
    elif state is not out.state or q_block is not out.q or q_positions is not out.q_positions:
        raise ValueError("out must be the fold of this state, q_block and q_positions")
    k = _check_array(k_block, "k_block", 3)
    v = _check_array(v_block, "v_block", 3)
    if v.shape != k.shape:
        raise ValueError(f"v_block shape {v.shape} does not match k_block {k.shape}")
    if out.q.shape[0] % k.shape[0] != 0:
        raise ValueError(
            f"kv head count {k.shape[0]} does not divide q head count {out.q.shape[0]}"
        )
    kv_pos = _check_positions(kv_positions, "kv_positions", k.shape[1])
    q_pos, (q_lo, q_hi) = out.q_positions, out.q_span
    if kv_pos.size == 0 or q_pos.size == 0:
        return out.state
    kv_lo, kv_hi = kv_pos.min(), kv_pos.max()
    # Every key lies after every query: the update would rescale by 1 and
    # add 0, so skip the arithmetic.
    if kv_lo > q_hi:
        return out.state
    if not out.owned:
        out.state = AttentionState(*(a.copy() for a in out.state.as_arrays()))
        out.owned = True
    if kv_hi <= q_lo:
        # Every row sees every key (each decode block, each earlier block of
        # a contiguous ring): no mask and no trimming, and afterwards every
        # row has seen a key.
        output, running_max, denominator = out.state.as_arrays()
        scores = _scores(out.q, k)
        block_max = scores.max(axis=-1)
        safe_max = new_max = block_max if out.fresh else np.maximum(running_max, block_max)
        out.all_seen = True
    else:
        # Leading rows before the first key and trailing keys after the last
        # query see nothing.
        first = 0 if kv_lo <= q_lo else int(np.argmax(q_pos >= kv_lo))
        stop = kv_pos.size if kv_hi <= q_hi else kv_pos.size - int(np.argmax(kv_pos[::-1] <= q_hi))
        scores = _masked_scores(out.q[:, first:], k[:, :stop], q_pos[first:], kv_pos[:stop])
        v = v[:, :stop]
        output, running_max, denominator = (a[:, first:] for a in out.state.as_arrays())
        block_max = scores.max(axis=-1)  # -inf on rows fully masked in this block
        new_max = block_max if out.fresh else np.maximum(running_max, block_max)
        if out.all_seen:
            safe_max = new_max
        else:
            # Shift by 0 instead of -inf for rows that have still seen no key,
            # so the exponentials below evaluate to exact 0.0 rather than nan.
            unseen = np.isneginf(new_max)
            safe_max = np.where(unseen, 0.0, new_max)
            out.all_seen = first == 0 and not unseen.any()
    scores -= safe_max[..., np.newaxis]
    weights = np.exp(scores, out=scores)
    if not out.fresh:
        rescale = np.exp(running_max - safe_max)
        output *= rescale[..., np.newaxis]
        denominator *= rescale
    out.fresh = False
    output += _grouped_matmul(weights, v)
    denominator += weights.sum(axis=-1)
    running_max[...] = new_max
    return out.state


def merge_attention_partials(*states: AttentionState) -> AttentionState:
    """Log-sum-exp merge of accumulators over disjoint key sets.

    Finalizing the merge equals finalizing a single accumulation over the
    union of all key sets; the empty state is the identity element.  Each
    partial is rescaled once to the common maximum, and the terms are summed
    in argument order.
    """
    if not states:
        raise ValueError("merge_attention_partials needs at least one state")
    for other in states[1:]:
        if other.partial_output.shape != states[0].partial_output.shape:
            raise ValueError(
                f"query dimensions differ: {states[0].partial_output.shape} vs "
                f"{other.partial_output.shape}"
            )
    maxima = np.array([s.running_max for s in states])
    merged_max = maxima.max(axis=0)
    maxima -= np.where(merged_max == -np.inf, 0.0, merged_max)
    scale = np.exp(maxima, out=maxima)
    outputs = np.array([s.partial_output for s in states])
    outputs *= scale[..., np.newaxis]
    denominators = np.array([s.running_denominator for s in states])
    denominators *= scale
    return AttentionState(
        partial_output=outputs.sum(axis=0),
        running_max=merged_max,
        running_denominator=denominators.sum(axis=0),
    )


def finalize_attention(state: AttentionState) -> np.ndarray:
    """Normalize the accumulator into the attention output."""
    if (state.running_denominator <= 0.0).any():
        raise ValueError("cannot finalize: some query rows never saw a key")
    return state.partial_output / state.running_denominator[..., np.newaxis]
