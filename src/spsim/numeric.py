"""Dense float64 attention primitives.

Provides the single-device causal grouped-query attention oracle and the
blockwise safe-softmax accumulator that every ring-style sharding strategy
is built on.  Everything here is 64-bit and deterministic: identical inputs
produce bitwise-identical outputs, which is what makes cross-strategy
equivalence checks meaningful.

A ring pass folds every KV block it receives into one accumulator in place:
``start_fold`` checks the query block once and owns the accumulator (a
fresh one, or a copy of a given state), ``kv_block`` checks a KV block once,
where its rank made it, and carries its position span,
``blockwise_attention_step(fold, blocks)`` folds such checked blocks into
``fold.state`` without scanning them again, and ``finalize_attention``
normalizes a state in place.  A ring pass rebuilds each block it receives
around the arrays its sender checked, with positions and span from the shard
plan.  One step call takes a pass's blocks as one list and folds them in runs
that share one visible window (see ``blockwise_attention_step``), bit for bit
as one call per block would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "AttentionSpec",
    "AttentionState",
    "init_attention_state",
    "reference_attention",
    "AttentionFold",
    "start_fold",
    "kv_block",
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


class AttentionState(NamedTuple):
    """Running blockwise-softmax accumulator for a fixed set of query rows.

    ``partial_output`` holds the un-normalized weighted value sum,
    ``running_max`` the per-row score maximum seen so far (-inf until the
    first visible key), and ``running_denominator`` the per-row softmax
    normalizer.  Finalizing divides the partial output by the denominator.
    A fold writes into its three arrays in place.
    """

    partial_output: np.ndarray  # (heads, queries, head_dim)
    running_max: np.ndarray  # (heads, queries)
    running_denominator: np.ndarray  # (heads, queries)


def init_attention_state(num_heads: int, num_queries: int, head_dim: int) -> AttentionState:
    """Empty accumulator: no keys visited yet for any query row."""
    running_max = np.empty((num_heads, num_queries))
    running_max.fill(-np.inf)  # np.full's Python wrapper costs more than the fill
    return AttentionState(
        partial_output=np.zeros((num_heads, num_queries, head_dim)),
        running_max=running_max,
        running_denominator=np.zeros((num_heads, num_queries)),
    )


def _check_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    # count_nonzero skips the reduction set-up that .all() pays per call.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_positions(pos, name: str, length: int) -> np.ndarray:
    arr = np.asarray(pos)
    if arr.dtype != np.int64:
        # A cast would truncate 0.5 to 0 and move the causal mask; an empty
        # list reads as float and holds no position to truncate.
        if arr.dtype.kind not in "iu" and arr.size:
            raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    return arr


def _span(positions: np.ndarray) -> tuple[int, int]:
    """Least and greatest position, or (0, -1) when there is none."""
    # argmin / argmax skip the reduction set-up that min / max pay per call.
    if not positions.size:
        return (0, -1)
    return (int(positions[positions.argmin()]), int(positions[positions.argmax()]))


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

    # One KV head's group of query heads at a time: its rows stacked into one
    # (group * n_q, head_dim) matrix, so the score temporaries are one
    # group's, never every head's, and ``k`` is never copied out per head.
    group, head_dim = spec.group_size, spec.head_dim
    masked = kv_pos[np.newaxis, :] > q_pos[:, np.newaxis]
    any_masked = masked.any()  # every row sees every key otherwise
    out = np.empty((spec.num_q_heads, n_q, head_dim))
    for kv_head in range(spec.num_kv_heads):
        heads = slice(kv_head * group, (kv_head + 1) * group)
        scores = np.matmul(q[heads].reshape(group * n_q, head_dim), k[kv_head].T)
        scores *= 1.0 / math.sqrt(head_dim)
        if any_masked:
            np.copyto(scores.reshape(group, n_q, n_k), -np.inf, where=masked)
        row_max = scores.max(axis=-1)
        if np.any(np.isneginf(row_max)):
            raise ValueError("some query rows attend no keys (empty causal window)")
        scores -= row_max[:, np.newaxis]
        weights = np.exp(scores, out=scores)
        denom = weights.sum(axis=-1)
        head_out = out[heads].reshape(group * n_q, head_dim)
        np.matmul(weights, v[kv_head], out=head_out)
        head_out /= denom[:, np.newaxis]
    return out


@dataclass
class AttentionFold:
    """A query block, checked once, and the accumulator that its KV blocks
    fold into in place (see ``start_fold``).  The fold owns ``state``."""

    q: np.ndarray
    q_positions: np.ndarray
    q_span: tuple[int, int]  # least and greatest query position
    state: AttentionState
    fresh: bool  # no key folded yet, so every running max is -inf


def start_fold(q_block, q_positions, state: AttentionState | None = None) -> AttentionFold:
    """Check a query block and its positions once for a chain of KV folds,
    on a fresh accumulator or on a copy of ``state``, which is never mutated."""
    q = _check_array(q_block, "q_block", 3)
    if state is not None and state.partial_output.shape != q.shape:
        raise ValueError(
            f"state shape {state.partial_output.shape} does not match "
            f"q_block shape {q.shape}"
        )
    q_pos = _check_positions(q_positions, "q_positions", q.shape[1])
    fresh = state is None
    state = (init_attention_state(*q.shape) if fresh
             else AttentionState(*(a.copy() for a in state)))
    return AttentionFold(q, q_pos, _span(q_pos), state, fresh)


@dataclass(slots=True)  # one per block a ring hop delivers: a frozen init costs 3x
class _KVBlock:
    """A checked KV block with the least and greatest of its positions.

    Built by ``kv_block``, the public way to make one.  Only a ring pass
    builds one directly, around arrays the block's sender checked with
    ``kv_block`` (the fabric hands over the sender's objects and no fold
    writes into them), with positions and span from the shard plan."""

    k: np.ndarray
    v: np.ndarray
    positions: np.ndarray
    span: tuple[int, int]


def kv_block(k, v, positions) -> _KVBlock:
    """Check a KV block once, for every fold it enters: k and v 3-d, finite
    and of one shape, and one integer position per key.  The block carries
    its span, the least and greatest position, reduced here once."""
    k = _check_array(k, "k_block", 3)
    v = _check_array(v, "v_block", 3)
    if v.shape != k.shape:
        raise ValueError(f"v_block shape {v.shape} does not match k_block {k.shape}")
    positions = _check_positions(positions, "kv_positions", k.shape[1])
    return _KVBlock(k, v, positions, _span(positions))


def blockwise_attention_step(fold: AttentionFold, blocks) -> AttentionState:
    """Fold KV blocks into ``fold.state`` in place and return that state.

    ``blocks`` is a list of checked blocks, folded in list order: a ring
    pass folds its R blocks in hop order in one call, a decode step its one
    cached block.  Only checked blocks are accepted: ``kv_block`` checked
    each one where it was made and gave its position span, and
    ``start_fold`` checked the query block, so the fold scans no block and
    reduces no positions.

    Safe-softmax update: the running maximum absorbs each block's row maxima
    and earlier contributions are rescaled by exp(old_max - new_max).  A
    block whose keys are all causally masked for a row leaves that row's
    state unchanged.

    Each block's visible window is cut first: leading query rows before its
    first key and trailing keys after the last query see nothing, and a
    block of only future keys is skipped.  Consecutive blocks with the same
    window (the same rows cut and the same kept k shape) form a run.  A
    run's scores are one stacked buffer that each block's QK matmul writes
    into; the mask, the row maxima, their running maximum over the run's
    blocks, the exponentials, the row sums and the rescale factors are each
    computed once per run.  Only the P.V matmul and the multiply-add rescale
    of output and denominator run per block, in list order.  Every block
    keeps the matmul shapes and summation lengths of folding it alone, so a
    list folds bit for bit as the chain of its single-block folds.

    Provably-zero work is skipped, bitwise exact: the rescale on a fresh
    fold's first visible block (zeros times 0) and its add to the zero
    accumulator where that is contiguous, the causal mask and the -inf
    guard on a run every row fully sees, and rows that see no key of a
    block.  Keys that no row sees weigh exactly 0, but dropping them
    shortens the matmul and sum, which can move last bits.
    """
    heads, n_q = fold.q.shape[:2]
    q_pos, (q_lo, q_hi) = fold.q_positions, fold.q_span
    visible = []  # (window, k, v, kv positions, masked) of each block some row sees
    for block in blocks:
        if not isinstance(block, _KVBlock):
            raise TypeError(f"blocks must be checked by kv_block, got {type(block).__name__}")
        k, v, kv_pos = block.k, block.v, block.positions
        kv_heads, n_k = k.shape[:2]
        if heads % kv_heads != 0:
            raise ValueError(
                f"kv head count {kv_heads} does not divide q head count {heads}")
        if n_k == 0 or n_q == 0:
            continue
        kv_lo, kv_hi = block.span
        # Every key lies after every query: the update would rescale by 1 and
        # add 0, so skip the arithmetic.
        if kv_lo > q_hi:
            continue
        # Unless some key lies after the first query, every row sees every
        # key (each decode block, each earlier block of a contiguous ring):
        # no mask and no cut.
        masked = kv_hi > q_lo
        first = 0
        if masked:
            if kv_lo > q_lo:
                first = int((q_pos >= kv_lo).argmax())
            if kv_hi > q_hi:
                n_k -= int((kv_pos[::-1] <= q_hi).argmax())
                k, v, kv_pos = k[:, :n_k], v[:, :n_k], kv_pos[:n_k]
        visible.append(((first, k.shape), k, v, kv_pos, masked))
    for (first, _), run in groupby(visible, key=itemgetter(0)):
        _, ks, vs, kv_positions, masked = zip(*run)
        _fold_run(fold, first, ks, vs, kv_positions, any(masked))
    return fold.state


def _fold_run(fold: AttentionFold, first: int, ks, vs, kv_positions, masked: bool) -> None:
    """Fold a run of blocks that share one visible window (query rows from
    ``first`` on, kept k blocks of one shape) in order; ``masked`` is set
    when some key of the run lies after some query."""
    q, q_pos = fold.q, fold.q_positions
    output, running_max, denominator = fold.state
    if first:
        q, q_pos = q[:, first:], q_pos[first:]
        output, running_max, denominator = (
            output[:, first:], running_max[:, first:], denominator[:, first:])
    heads, n_q, head_dim = q.shape
    kv_heads, n_k = ks[0].shape[:2]
    # Each KV head's query group is stacked into one matrix, as in the oracle.
    rows = heads // kv_heads * n_q
    q_rows = q.reshape(kv_heads, rows, head_dim)
    hops = len(ks)
    scores = np.empty((hops, kv_heads, rows, n_k))
    for hop, k in enumerate(ks):
        np.matmul(q_rows, k.transpose(0, 2, 1), out=scores[hop])
    scores *= 1.0 / math.sqrt(head_dim)
    by_head = scores.reshape(hops, heads, n_q, n_k)
    if masked:
        np.copyto(by_head, -np.inf, where=np.array(kv_positions)[:, np.newaxis, np.newaxis]
                  > q_pos[:, np.newaxis])
    # new_max[hop] is the running max after that hop: -inf on rows that have
    # seen no key yet.
    new_max = np.maximum.reduce(by_head, axis=-1)
    if hops > 1:
        np.maximum.accumulate(new_max, axis=0, out=new_max)
    fresh = fold.fresh
    if not fresh:
        np.maximum(new_max, running_max, out=new_max)
    # Shift by 0 instead of -inf for rows that have still seen no key, so
    # the exponentials below evaluate to exact 0.0 rather than nan.  In a
    # run with no mask every row sees every key.
    safe_max = np.where(new_max == -np.inf, 0.0, new_max) if masked else new_max
    by_head -= safe_max[..., np.newaxis]
    np.exp(scores, out=scores)
    sums = np.add.reduce(by_head, axis=-1)
    # A fresh fold's first block is written, not rescaled.
    if hops > fresh:
        previous = (new_max[:-1] if fresh
                    else np.concatenate((running_max[np.newaxis], new_max[:-1])))
        rescale = np.exp(previous - safe_max[fresh:])
    for hop, v in enumerate(vs):
        if fold.fresh and output.flags.c_contiguous:
            # The accumulator is all +0.0, and +0.0 + x == x for every x a
            # matmul returns (its sums start from +0.0, so never -0.0):
            # write in place.
            np.matmul(scores[hop], v, out=output.reshape(kv_heads, rows, head_dim))
        else:
            if not fold.fresh:
                output *= rescale[hop - fresh, ..., np.newaxis]
                denominator *= rescale[hop - fresh]
            output += np.matmul(scores[hop], v).reshape(heads, n_q, head_dim)
        fold.fresh = False
        denominator += sums[hop]
    running_max[...] = new_max[-1]


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
    """Normalize the accumulator into the attention output in place and
    return it: the partial output is divided where it lies, so ``state`` is spent."""
    if (state.running_denominator <= 0.0).any():
        raise ValueError("cannot finalize: some query rows never saw a key")
    return np.divide(state.partial_output, state.running_denominator[..., np.newaxis],
                     out=state.partial_output)
