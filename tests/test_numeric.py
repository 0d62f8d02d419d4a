"""Numeric core: oracle attention and the blockwise-softmax accumulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spsim.numeric as numeric
from spsim.fabric import Topology, build_mesh
from spsim.numeric import (
    AttentionSpec,
    AttentionState,
    _KVBlock,
    blockwise_attention_step,
    finalize_attention,
    init_attention_state,
    kv_block,
    merge_attention_partials,
    reference_attention,
    start_fold,
)
from spsim.sharding import ShardPlan
from spsim.strategies import STRATEGY_KINDS, execute_strategy, resolve_strategy


# ---------------------------------------------------------------------------
# Independent brute-force oracle: three nested loops over heads, queries and
# keys, per-element softmax via math.exp.  Written before the package
# implementation; intentionally shares no code with it.
# ---------------------------------------------------------------------------

def _naive_gqa_attention(q, k, v, q_pos, kv_pos):
    num_q_heads, n_q, head_dim = q.shape
    num_kv_heads = k.shape[0]
    group = num_q_heads // num_kv_heads
    scale = 1.0 / math.sqrt(head_dim)
    out = np.zeros((num_q_heads, n_q, head_dim))
    for h in range(num_q_heads):
        kv_h = h // group
        for i in range(n_q):
            scores = []
            visible = []
            for j in range(k.shape[1]):
                if kv_pos[j] <= q_pos[i]:
                    s = 0.0
                    for d in range(head_dim):
                        s += q[h, i, d] * k[kv_h, j, d]
                    scores.append(s * scale)
                    visible.append(j)
            m = max(scores)
            weights = [math.exp(s - m) for s in scores]
            denom = sum(weights)
            for w, j in zip(weights, visible):
                for d in range(head_dim):
                    out[h, i, d] += (w / denom) * v[kv_h, j, d]
    return out


def _random_qkv(rng, spec, length):
    q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
    k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    return q, k, v


class TestAttentionSpec:
    def test_hidden_size_and_grouping(self):
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=16)
        assert spec.hidden_size == 128
        assert spec.group_size == 4
        assert 0 // spec.group_size == 0
        assert 7 // spec.group_size == 1

    def test_rejects_non_dividing_kv_heads(self):
        with pytest.raises(ValueError, match="divide"):
            AttentionSpec(num_q_heads=6, num_kv_heads=4, head_dim=8)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            AttentionSpec(num_q_heads=0, num_kv_heads=1, head_dim=8)


class TestReferenceAttention:
    def test_single_key_output_equals_v(self):
        spec = AttentionSpec(num_q_heads=3, num_kv_heads=3, head_dim=5)
        rng = np.random.default_rng(0)
        q, k, v = _random_qkv(rng, spec, 1)
        out = reference_attention(q, k, v, spec)
        np.testing.assert_array_equal(out, v)

    def test_deterministic_across_runs(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        rng = np.random.default_rng(1)
        q, k, v = _random_qkv(rng, spec, 17)
        a = reference_attention(q, k, v, spec)
        b = reference_attention(q, k, v, spec)
        np.testing.assert_array_equal(a, b)

    def test_matches_naive_triple_loop_oracle(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        rng = np.random.default_rng(2)
        q, k, v = _random_qkv(rng, spec, 64)
        pos = np.arange(64)
        got = reference_attention(q, k, v, spec, pos, pos)
        want = _naive_gqa_attention(q, k, v, pos, pos)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_causal_suffix_invariance(self):
        # Appending tokens never changes outputs at earlier positions.
        spec = AttentionSpec(num_q_heads=2, num_kv_heads=1, head_dim=4)
        rng = np.random.default_rng(3)
        q, k, v = _random_qkv(rng, spec, 40)
        full = reference_attention(q, k, v, spec)
        short = reference_attention(q[:, :25], k[:, :25], v[:, :25], spec,
                                    np.arange(25), np.arange(25))
        np.testing.assert_array_equal(full[:, :25], short)

    def test_rejects_non_finite_input(self):
        spec = AttentionSpec(num_q_heads=1, num_kv_heads=1, head_dim=2)
        q = np.array([[[np.nan, 0.0]]])
        k = v = np.ones((1, 1, 2))
        with pytest.raises(ValueError, match="non-finite"):
            reference_attention(q, k, v, spec)

    def test_rejects_dimension_mismatch(self):
        spec = AttentionSpec(num_q_heads=2, num_kv_heads=2, head_dim=4)
        rng = np.random.default_rng(4)
        q, k, v = _random_qkv(rng, spec, 6)
        with pytest.raises(ValueError, match="shape"):
            reference_attention(q, k[:1], v[:1], spec)

    def test_rejects_non_increasing_positions(self):
        spec = AttentionSpec(num_q_heads=1, num_kv_heads=1, head_dim=2)
        rng = np.random.default_rng(5)
        q, k, v = _random_qkv(rng, spec, 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            reference_attention(q, k, v, spec, np.array([0, 2, 1, 3]), np.arange(4))


class TestIntegerPositions:
    """Positions are token indices: a fractional one is refused by the one
    position check the oracle, ``start_fold`` and ``kv_block`` share,
    instead of being truncated into a wrong causal mask."""

    def test_oracle_refuses_fractional_positions(self):
        spec = AttentionSpec(num_q_heads=1, num_kv_heads=1, head_dim=2)
        q, k, v = _random_qkv(np.random.default_rng(6), spec, 2)
        with pytest.raises(ValueError, match="q_positions must be integers"):
            reference_attention(q, k, v, spec, [0.5, 1.7], [0, 1])
        with pytest.raises(ValueError, match="kv_positions must be integers"):
            reference_attention(q, k, v, spec, [0, 1], np.array([0.0, 1.5]))

    def test_start_fold_refuses_fractional_positions(self):
        q = np.random.default_rng(7).standard_normal((2, 2, 4))
        with pytest.raises(ValueError, match="q_positions must be integers"):
            start_fold(q, [0.5, 1.7])

    def test_kv_block_refuses_fractional_positions(self):
        k = v = np.random.default_rng(8).standard_normal((1, 3, 4))
        with pytest.raises(ValueError, match="kv_positions must be integers"):
            kv_block(k, v, [0.0, 1.0, 2.5])
        with pytest.raises(ValueError, match="kv_positions must be integers"):
            kv_block(k, v, np.array([True, False, True]))

    def test_integer_lists_and_empty_positions_are_accepted(self):
        rng = np.random.default_rng(9)
        k = v = rng.standard_normal((1, 3, 4))
        block = kv_block(k, v, [4, 0, 2])
        assert block.positions.dtype == np.int64 and block.span == (0, 4)
        assert kv_block(k[:, :0], v[:, :0], []).span == (0, -1)
        assert start_fold(rng.standard_normal((1, 0, 4)), []).q_positions.dtype == np.int64


class TestKVBlock:
    """``kv_block`` is the one KV check: shape, finiteness, k/v agreement,
    positions; the fold itself scans no block."""

    @pytest.mark.parametrize("k_shape,v_shape,nan_in,message", [
        ((2, 3, 4), (2, 3, 4), "k", "k_block contains non-finite entries"),
        ((2, 3, 4), (2, 3, 4), "v", "v_block contains non-finite entries"),
        ((3, 4), (3, 4), None, "k_block must be 3-d"),
        ((2, 3, 4), (2, 2, 4), None, "v_block shape"),
    ])
    def test_refuses_malformed_blocks(self, k_shape, v_shape, nan_in, message):
        rng = np.random.default_rng(10)
        k, v = rng.standard_normal(k_shape), rng.standard_normal(v_shape)
        if nan_in:
            {"k": k, "v": v}[nan_in][1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=message):
            kv_block(k, v, np.arange(k_shape[-2]))

    def test_refuses_positions_of_the_wrong_length(self):
        k = v = np.zeros((1, 3, 2))
        with pytest.raises(ValueError, match=r"kv_positions must have shape \(3,\)"):
            kv_block(k, v, np.arange(4))

    def test_span_is_reduced_from_the_positions(self):
        k = v = np.zeros((1, 4, 2))
        assert kv_block(k, v, np.array([7, 3, 9, 5])).span == (3, 9)


@st.composite
def oracle_inputs(draw):
    """(spec, q, k, v, q positions, KV positions): random GQA shapes and
    strictly increasing positions, some queries possibly before every key."""
    kv_heads = draw(st.integers(1, 3))
    spec = AttentionSpec(num_q_heads=kv_heads * draw(st.integers(1, 4)),
                         num_kv_heads=kv_heads, head_dim=draw(st.integers(1, 8)))
    kv_pos = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=20)))
    q_pos = sorted(draw(st.sets(st.integers(0, 48), min_size=1, max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q = 3 * rng.standard_normal((spec.num_q_heads, len(q_pos), spec.head_dim))
    k = 3 * rng.standard_normal((kv_heads, len(kv_pos), spec.head_dim))
    v = rng.standard_normal((kv_heads, len(kv_pos), spec.head_dim))
    return spec, q, k, v, np.array(q_pos), np.array(kv_pos)


class TestOracleByKVGroup:
    """The oracle computes one KV head's query group at a time; it must
    still be the plain softmax of every query head (the triple loop above)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(inputs=oracle_inputs())
    def test_matches_per_query_head_softmax(self, inputs):
        spec, q, k, v, q_pos, kv_pos = inputs
        if q_pos[0] < kv_pos[0]:
            with pytest.raises(ValueError, match="empty causal window"):
                reference_attention(q, k, v, spec, q_pos, kv_pos)
            return
        got = reference_attention(q, k, v, spec, q_pos, kv_pos)
        want = _naive_gqa_attention(q, k, v, q_pos, kv_pos)
        assert np.max(np.abs(got - want)) < 1e-12


class TestBlockwiseAccumulation:
    def test_single_block_equals_reference(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=4, head_dim=8)
        rng = np.random.default_rng(10)
        q, k, v = _random_qkv(rng, spec, 32)
        pos = np.arange(32)
        fold = start_fold(q, pos, init_attention_state(4, 32, 8))
        blockwise_attention_step(fold, [kv_block(k, v, pos)])
        got = finalize_attention(fold.state)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_four_contiguous_blocks_match_reference(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        rng = np.random.default_rng(11)
        q, k, v = _random_qkv(rng, spec, 64)
        pos = np.arange(64)
        fold = start_fold(q, pos, init_attention_state(4, 64, 8))
        for start in range(0, 64, 16):
            block = slice(start, start + 16)
            blockwise_attention_step(fold, [kv_block(k[:, block], v[:, block], pos[block])])
        got = finalize_attention(fold.state)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_fully_masked_block_leaves_state_unchanged(self):
        spec = AttentionSpec(num_q_heads=2, num_kv_heads=2, head_dim=4)
        rng = np.random.default_rng(12)
        q, k, v = _random_qkv(rng, spec, 8)
        pos = np.arange(8)
        fold = start_fold(q, pos, init_attention_state(2, 8, 4))
        before = [a.copy()
                  for a in blockwise_attention_step(fold, [kv_block(k, v, pos)]).as_arrays()]
        # every key position beyond every query position
        future_k = rng.standard_normal((2, 5, 4))
        future_v = rng.standard_normal((2, 5, 4))
        after = blockwise_attention_step(fold, [kv_block(future_k, future_v, np.arange(100, 105))])
        for kept, now in zip(before, after.as_arrays()):
            np.testing.assert_array_equal(now, kept)

    @pytest.mark.parametrize("seed", range(8))
    def test_any_partition_any_order_matches_reference(self, seed):
        # Oracle equivalence across random partitions of the key set.
        rng = np.random.default_rng(100 + seed)
        q_heads = int(rng.choice([2, 4, 8]))
        kv_heads = int(rng.choice([h for h in (1, 2, 4, 8) if q_heads % h == 0]))
        head_dim = int(rng.choice([4, 8, 16, 32]))
        length = int(rng.integers(8, 257))
        spec = AttentionSpec(num_q_heads=q_heads, num_kv_heads=kv_heads, head_dim=head_dim)
        q, k, v = _random_qkv(rng, spec, length)
        pos = np.arange(length)

        cuts = np.sort(rng.choice(np.arange(1, length), size=min(3, length - 1), replace=False))
        blocks = np.split(np.arange(length), cuts)
        order = rng.permutation(len(blocks))

        fold = start_fold(q, pos, init_attention_state(q_heads, length, head_dim))
        for bi in order:
            rows = blocks[bi]
            blockwise_attention_step(fold, [kv_block(k[:, rows], v[:, rows], pos[rows])])
        got = finalize_attention(fold.state)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("q_heads,kv_heads", [(2, 2), (4, 2), (4, 1), (8, 1)],
                             ids=["group1", "group2", "group4", "group8"])
    def test_reference_and_blockwise_match_naive_oracle(self, q_heads, kv_heads):
        rng = np.random.default_rng(30 + q_heads // kv_heads)
        spec = AttentionSpec(num_q_heads=q_heads, num_kv_heads=kv_heads, head_dim=8)
        length = 24
        q, k, v = _random_qkv(rng, spec, length)
        pos = np.arange(length)
        want = _naive_gqa_attention(q, k, v, pos, pos)
        assert np.max(np.abs(reference_attention(q, k, v, spec) - want)) < 1e-12

        cuts = np.sort(rng.choice(np.arange(1, length), size=3, replace=False))
        fold = start_fold(q, pos, init_attention_state(q_heads, length, 8))
        for rows in np.split(rng.permutation(length), cuts):
            blockwise_attention_step(fold, [kv_block(k[:, rows], v[:, rows], pos[rows])])
        assert np.max(np.abs(finalize_attention(fold.state) - want)) < 1e-12

    @pytest.mark.parametrize("kv_start", [0, 100], ids=["normal", "fully-masked"])
    def test_input_state_is_not_mutated(self, kv_start):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        rng = np.random.default_rng(14)
        q, k, v = _random_qkv(rng, spec, 8)
        pos = np.arange(8)
        state = blockwise_attention_step(start_fold(q, pos, init_attention_state(4, 8, 4)),
                                         [kv_block(k[:, :4], v[:, :4], pos[:4])])
        before = [a.copy() for a in state.as_arrays()]
        blockwise_attention_step(start_fold(q, pos, state),
                                 [kv_block(k[:, 4:], v[:, 4:], pos[4:] + kv_start)])
        for kept, now in zip(before, state.as_arrays()):
            assert kept.tobytes() == now.tobytes()

    def test_non_contiguous_q_matches_contiguous_copy(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        rng = np.random.default_rng(15)
        _, k, v = _random_qkv(rng, spec, 10)
        q_view = rng.standard_normal((10, 4, 8)).transpose(1, 0, 2)
        q_copy = np.ascontiguousarray(q_view)
        assert not q_view.flags.c_contiguous
        pos = np.arange(10)
        np.testing.assert_array_equal(reference_attention(q_view, k, v, spec),
                                      reference_attention(q_copy, k, v, spec))
        states = [blockwise_attention_step(start_fold(q, pos, init_attention_state(4, 10, 8)),
                                           [kv_block(k, v, pos)])
                  for q in (q_view, q_copy)]
        for a, b in zip(*(s.as_arrays() for s in states)):
            np.testing.assert_array_equal(a, b)

    def test_rejects_non_dividing_kv_heads(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((3, 4, 2))
        k = v = rng.standard_normal((2, 4, 2))
        with pytest.raises(ValueError, match="kv head count 2 does not divide q head count 3"):
            blockwise_attention_step(start_fold(q, np.arange(4), init_attention_state(3, 4, 2)),
                                     [kv_block(k, v, np.arange(4))])

    def test_rejects_state_shape_mismatch(self):
        spec = AttentionSpec(num_q_heads=2, num_kv_heads=2, head_dim=4)
        rng = np.random.default_rng(13)
        q, _k, _v = _random_qkv(rng, spec, 8)
        with pytest.raises(ValueError, match="state shape"):
            start_fold(q, np.arange(8), init_attention_state(2, 5, 4))


def _stacked_merge(*states):
    """The n-ary merge as first written, one np.stack per field: the
    reference that the merge must match bit for bit."""
    maxima = np.stack([s.running_max for s in states])
    merged_max = maxima.max(axis=0)
    safe_max = np.where(np.isneginf(merged_max), 0.0, merged_max)
    scale = np.exp(maxima - safe_max)
    outputs = np.stack([s.partial_output for s in states])
    denominators = np.stack([s.running_denominator for s in states])
    return ((outputs * scale[..., np.newaxis]).sum(axis=0), merged_max,
            (denominators * scale).sum(axis=0))


class TestMergePartials:
    def test_merge_with_empty_state_is_identity(self):
        spec = AttentionSpec(num_q_heads=2, num_kv_heads=1, head_dim=4)
        rng = np.random.default_rng(20)
        q, k, v = _random_qkv(rng, spec, 12)
        pos = np.arange(12)
        state = blockwise_attention_step(start_fold(q, pos, init_attention_state(2, 12, 4)),
                                         [kv_block(k, v, pos)])
        merged = merge_attention_partials(state, init_attention_state(2, 12, 4))
        np.testing.assert_array_equal(merged.partial_output, state.partial_output)
        np.testing.assert_array_equal(merged.running_denominator, state.running_denominator)

    def test_merge_commutes(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        rng = np.random.default_rng(21)
        q, k, v = _random_qkv(rng, spec, 30)
        pos = np.arange(30)
        a = blockwise_attention_step(start_fold(q, pos, init_attention_state(4, 30, 8)),
                                     [kv_block(k[:, :14], v[:, :14], pos[:14])])
        b = blockwise_attention_step(start_fold(q, pos, init_attention_state(4, 30, 8)),
                                     [kv_block(k[:, 14:], v[:, 14:], pos[14:])])
        ab = finalize_attention(merge_attention_partials(a, b))
        ba = finalize_attention(merge_attention_partials(b, a))
        assert np.max(np.abs(ab - ba)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_split_merge_matches_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=4, head_dim=8)
        length = 48
        q, k, v = _random_qkv(rng, spec, length)
        pos = np.arange(length)
        mask = rng.random(length) < 0.5
        halves = []
        for rows in (np.flatnonzero(mask), np.flatnonzero(~mask)):
            fold = start_fold(q, pos, init_attention_state(4, length, 8))
            if rows.size:
                blockwise_attention_step(fold, [kv_block(k[:, rows], v[:, rows], pos[rows])])
            halves.append(fold.state)
        got = finalize_attention(merge_attention_partials(*halves))
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("world", [1, 2, 8])
    def test_merge_equals_stacked_formula_bitwise(self, world):
        # Partials with some -inf rows (a rank that saw no key there) and
        # one row no partial saw; the merge must keep the formula's bits.
        rng = np.random.default_rng(world)
        states = []
        for _ in range(world):
            running_max = rng.standard_normal((4, 6)) * 5
            running_max[rng.random((4, 6)) < 0.3] = -np.inf
            running_max[0, 0] = -np.inf
            seen = np.isfinite(running_max)
            states.append(AttentionState(
                partial_output=np.where(seen[..., None], rng.standard_normal((4, 6, 8)), 0.0),
                running_max=running_max,
                running_denominator=np.where(seen, rng.random((4, 6)) + 0.5, 0.0),
            ))
        merged = merge_attention_partials(*states)
        for got, want in zip(merged.as_arrays(), _stacked_merge(*states)):
            np.testing.assert_array_equal(got, want)

    def test_merge_of_no_states_raises(self):
        with pytest.raises(ValueError, match="needs at least one state"):
            merge_attention_partials()

    def test_rejects_query_dimension_mismatch(self):
        with pytest.raises(ValueError, match="query dimensions"):
            merge_attention_partials(
                init_attention_state(2, 4, 8), init_attention_state(2, 5, 8)
            )

    def test_finalize_requires_visited_rows(self):
        with pytest.raises(ValueError, match="never saw a key"):
            finalize_attention(init_attention_state(1, 3, 2))


# ---------------------------------------------------------------------------
# Property tests of the fold and the merge
# ---------------------------------------------------------------------------

@st.composite
def fold_chains(draw):
    """(spec, length, q positions, KV blocks, data seed).

    The query rows are a random subset of [0, length) or two zigzag-like
    chunks.  The KV blocks partition [0, length) in random order, and some
    may be empty, so a block can be fully masked, partly masked or fully
    seen, and rows can see nothing of it.  Every position list ascends.
    """
    kv_heads = draw(st.sampled_from((1, 2)))
    spec = AttentionSpec(num_q_heads=kv_heads * draw(st.sampled_from((1, 2, 4))),
                         num_kv_heads=kv_heads, head_dim=draw(st.sampled_from((1, 4, 8))))
    length = draw(st.integers(2, 24))
    if draw(st.booleans()):
        q_pos = sorted(draw(st.sets(st.integers(0, length - 1), min_size=1)))
    else:
        a, b, c, d = sorted(draw(st.lists(st.integers(0, length), min_size=4, max_size=4)))
        q_pos = list(range(a, b)) + list(range(c, d)) or [length - 1]
    owner = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    order = draw(st.permutations(range(4)))
    blocks = [np.array([p for p in range(length) if owner[p] == b], dtype=np.int64)
              for b in order]
    return spec, length, np.array(q_pos, dtype=np.int64), blocks, draw(st.integers(0, 2**16))


def _chain_inputs(chain):
    spec, length, q_pos, blocks, seed = chain
    q, k, v = _random_qkv(np.random.default_rng(seed), spec, length)
    return spec, q[:, q_pos], k, v, q_pos, blocks


def _general_fold(q, q_pos):
    """A fold started from an explicit empty state: the general path, and
    the bitwise reference for a fresh fold's fast path."""
    return start_fold(q, q_pos, init_attention_state(*q.shape))


def _partials(q, k, v, q_pos, blocks):
    """One fresh fold per block, as each rank's partial in decode."""
    states = []
    for block in blocks:
        fold = start_fold(q, q_pos)
        blockwise_attention_step(fold, [kv_block(k[:, block], v[:, block], block)])
        states.append(fold.state)
    return states


class TestDecodeFold:
    """A decode token's query: one row that sees every cached key."""

    @pytest.mark.parametrize("cached", [0, 1, 37])
    def test_one_row_fold_in_place_equals_functional_form(self, cached):
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=16)
        rng = np.random.default_rng(cached)
        q, k, v = _random_qkv(rng, spec, max(cached, 1))
        q, k, v = q[:, :1], k[:, :cached], v[:, :cached]
        q_pos = np.array([cached + 4])
        kv_pos = np.sort(rng.choice(cached + 4, cached, replace=False))
        if cached:
            kv_pos[-1] = q_pos[0]  # the newest key at the query's position, as on the owner
        fold = start_fold(q, q_pos)
        if cached:
            blockwise_attention_step(fold, [kv_block(k, v, kv_pos)])
        general = blockwise_attention_step(_general_fold(q, q_pos), [kv_block(k, v, kv_pos)])
        for a, b in zip(general.as_arrays(), fold.state.as_arrays()):
            assert a.tobytes() == b.tobytes()
        if cached:
            want = reference_attention(q, k, v, spec, q_positions=q_pos, kv_positions=kv_pos)
            assert np.max(np.abs(finalize_attention(fold.state) - want)) < 1e-10


class TestFirstFoldInPlace:
    """A fresh fold writes its first visible block's P.V straight into the
    zero accumulator when that is contiguous; a fold started from
    ``init_attention_state`` adds it to zeros.  The bits must agree."""

    @pytest.mark.parametrize("heads,kv_heads,q_pos,kv_pos", [
        (4, 2, [3, 4, 5, 6], [0, 1, 2, 3]),  # untrimmed: written in place
        (1, 1, [1, 2, 5, 6], [4, 5, 7]),  # one head, trimmed rows: still contiguous
        (4, 2, [1, 2, 5, 6], [4, 5, 7]),  # several heads, trimmed rows: added
        (2, 1, [5, 0, 6], [3, 4]),  # the row at 0 sees no key: its weights are all 0
    ])
    def test_equals_functional_form_bitwise(self, heads, kv_heads, q_pos, kv_pos):
        rng = np.random.default_rng(heads + len(kv_pos))
        q = rng.standard_normal((heads, len(q_pos), 4))
        k = rng.standard_normal((kv_heads, len(kv_pos), 4))
        v = -np.abs(rng.standard_normal((kv_heads, len(kv_pos), 4)))  # 0 * v is -0.0
        q_pos, kv_pos = np.array(q_pos), np.array(kv_pos)
        fold = start_fold(q, q_pos)
        blockwise_attention_step(fold, [kv_block(k, v, kv_pos)])
        general = blockwise_attention_step(_general_fold(q, q_pos), [kv_block(k, v, kv_pos)])
        for a, b in zip(general.as_arrays(), fold.state.as_arrays()):
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestFoldProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain=fold_chains())
    def test_in_place_fold_equals_functional_form_bitwise(self, chain):
        _spec, q, k, v, q_pos, blocks = _chain_inputs(chain)
        general = _general_fold(q, q_pos)
        fold = start_fold(q, q_pos)
        for block in blocks:
            blockwise_attention_step(general, [kv_block(k[:, block], v[:, block], block)])
            blockwise_attention_step(fold, [kv_block(k[:, block], v[:, block], block)])
        for a, b in zip(general.state.as_arrays(), fold.state.as_arrays()):
            assert a.tobytes() == b.tobytes()
        want = finalize_attention(general.state)
        got = finalize_attention(fold.state)
        assert got is fold.state.partial_output and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain=fold_chains(), split=st.integers(0, 4))
    def test_fold_from_a_state_copies_it_and_resumes_the_chain_bitwise(self, chain, split):
        # A chain cut after ``split`` blocks and resumed from the first
        # fold's state: the resumed fold works on a copy, so the state it
        # started from keeps its bytes, and the two halves together equal
        # the uncut chain bit for bit.
        _spec, q, k, v, q_pos, blocks = _chain_inputs(chain)
        uncut, first = start_fold(q, q_pos), start_fold(q, q_pos)
        for block in blocks:
            blockwise_attention_step(uncut, [kv_block(k[:, block], v[:, block], block)])
        for block in blocks[:split]:
            blockwise_attention_step(first, [kv_block(k[:, block], v[:, block], block)])
        before = [a.tobytes() for a in first.state.as_arrays()]
        resumed = start_fold(q, q_pos, first.state)
        for block in blocks[split:]:
            blockwise_attention_step(resumed, [kv_block(k[:, block], v[:, block], block)])
        assert [a.tobytes() for a in first.state.as_arrays()] == before
        for a, b in zip(uncut.state.as_arrays(), resumed.state.as_arrays()):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain=fold_chains())
    def test_finalized_fold_chain_matches_reference(self, chain):
        spec, q, k, v, q_pos, blocks = _chain_inputs(chain)
        fold = start_fold(q, q_pos)
        for block in blocks:
            blockwise_attention_step(fold, [kv_block(k[:, block], v[:, block], block)])
        want = reference_attention(q, k, v, spec, q_positions=q_pos)
        assert np.max(np.abs(finalize_attention(fold.state) - want)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain=fold_chains(), data=st.data())
    def test_n_ary_merge_equals_pairwise_left_fold_in_any_order(self, chain, data):
        _spec, q, k, v, q_pos, blocks = _chain_inputs(chain)
        states = _partials(q, k, v, q_pos, blocks)
        merged = merge_attention_partials(*states)
        pairwise = states[0]
        for state in states[1:]:
            pairwise = merge_attention_partials(pairwise, state)
        shuffled = merge_attention_partials(*data.draw(st.permutations(states)))
        for other in (pairwise, shuffled):
            for a, b in zip(merged.as_arrays(), other.as_arrays()):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(STRATEGY_KINDS), tensor=st.sampled_from(("q", "k")),
           head=st.integers(0, 1), position=st.integers(0, 15))
    def test_nan_in_one_rank_raises_through_execute_strategy(self, kind, tensor, head,
                                                            position):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        topology = Topology(num_nodes=1, gpus_per_node=4)
        config = resolve_strategy(spec, topology, kind, a2a=2 if kind == "two_d" else 0)
        mesh = build_mesh(topology, config.a2a_degree, config.p2p_degree)
        q, k, v = _random_qkv(np.random.default_rng(position), spec, 16)
        {"q": q, "k": k}[tensor][head, position, 0] = np.nan
        with pytest.raises(ValueError, match=f"{tensor}_block contains non-finite entries"):
            execute_strategy(mesh, config, spec, q, k, v)


class TestFoldList:
    """A list of blocks is folded in runs that share one visible window; it
    must equal the chain of its single-block folds bit for bit."""

    @pytest.mark.parametrize("length", [4, 2], ids=["lengths-differ", "lengths-agree"])
    def test_bare_block_is_refused(self, length):
        # Blocks come only as kv_block's checked blocks.  A bare (2, length,
        # 4) k block, a list of bare arrays and a (k, v, positions) tuple
        # are each refused before any arithmetic.
        rng = np.random.default_rng(17)
        q = rng.standard_normal((2, 4, 4))
        k = v = rng.standard_normal((2, length, 4))
        for blocks in (k, [k], [(k, v, np.arange(length))]):
            with pytest.raises(TypeError, match="blocks must be checked by kv_block"):
                blockwise_attention_step(start_fold(q, np.arange(4)), blocks)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(chain=fold_chains(), data=st.data())
    def test_list_fold_equals_chain_of_single_folds_bitwise(self, chain, data):
        spec, length, q_pos, blocks, seed = chain
        rng = np.random.default_rng(seed)
        # Three keys after every query: a fully-future block.
        q, k, v = _random_qkv(rng, spec, length + 3)
        if data.draw(st.booleans(), label="equal sizes"):
            # Blocks of one size, so that neighbours can share a window.
            size = data.draw(st.integers(1, 4))
            keys = rng.permutation(length)
            blocks = [np.sort(keys[i:i + size]) for i in range(0, length, size)]
        blocks = list(blocks)
        blocks.insert(data.draw(st.integers(0, len(blocks))), np.arange(length, length + 3))
        if data.draw(st.booleans(), label="unsorted"):
            q_pos = rng.permutation(q_pos)
            blocks = [rng.permutation(block) for block in blocks]
        q = q[:, q_pos]
        ks = [k[:, block] for block in blocks]
        vs = [v[:, block] for block in blocks]
        # A KV head repeated as a stride-0 view, as a held-once segment is.
        view = data.draw(st.integers(0, len(blocks) - 1))
        ks[view], vs[view] = (np.broadcast_to(x[:1], x.shape) for x in (ks[view], vs[view]))
        state = None
        if data.draw(st.booleans(), label="resumed"):
            split = data.draw(st.integers(0, len(blocks)))
            first = start_fold(q, q_pos)
            blockwise_attention_step(first, [kv_block(*block) for block in
                                             zip(ks[:split], vs[:split], blocks[:split])])
            state = first.state
            ks, vs, blocks = ks[split:], vs[split:], blocks[split:]
        listed, chained = start_fold(q, q_pos, state), start_fold(q, q_pos, state)
        assert blockwise_attention_step(
            listed, [kv_block(*block) for block in zip(ks, vs, blocks)]) is listed.state
        for k_block, v_block, kv_pos in zip(ks, vs, blocks):
            blockwise_attention_step(chained, [kv_block(k_block, v_block, kv_pos)])
        for a, b in zip(listed.state.as_arrays(), chained.state.as_arrays()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["contiguous", "zigzag"])
    def test_ring_pass_at_every_rank_folds_in_runs_bitwise(self, monkeypatch, kind):
        # A naive-ring rank r sees hops 0..r whole and hops after r not at
        # all: one run.  A zigzag rank folds its own block, then hops 1..r
        # with their later chunk cut, then the rest with its earlier query
        # chunk cut: runs of 1, r and W-1-r.
        world = 16
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        plan = ShardPlan(kind, world, 4 * world, 4 * world)
        q, k, v = (plan.shard(x, 1) for x in _random_qkv(np.random.default_rng(5), spec,
                                                           4 * world))
        runs = []
        original = numeric._fold_run

        def recorded(fold, first, ks, *rest):
            runs.append(len(ks))
            return original(fold, first, ks, *rest)

        monkeypatch.setattr(numeric, "_fold_run", recorded)
        for rank in range(world):
            sources = [(rank - hop) % world for hop in range(world)]
            blocks = ([k[s] for s in sources], [v[s] for s in sources],
                      [plan.rank_positions(s) for s in sources])
            runs.clear()
            listed = start_fold(q[rank], plan.rank_positions(rank))
            blockwise_attention_step(listed, [kv_block(*block) for block in zip(*blocks)])
            assert runs == ([rank + 1] if kind == "contiguous"
                            else [1] + [n for n in (rank, world - 1 - rank) if n])
            chained = start_fold(q[rank], plan.rank_positions(rank))
            for k_block, v_block, kv_pos in zip(*blocks):
                blockwise_attention_step(chained, [kv_block(k_block, v_block, kv_pos)])
            for a, b in zip(listed.state.as_arrays(), chained.state.as_arrays()):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind,a2a", [("contiguous", 1), ("zigzag", 1), ("zigzag", 2)])
    def test_plan_spans_fold_as_single_folds_bitwise(self, kind, a2a):
        # A ring pass's blocks as the strategies build them: its own block
        # from kv_block, each received one rebuilt around the arrays its
        # sender checked, with positions and span from the plan.  The list
        # folds bit for bit as the chain of its single-block folds.
        world = 8
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        plan = ShardPlan(kind, world, 4 * world, 4 * world)
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=world), a2a)
        q, k, v = _random_qkv(np.random.default_rng(23), spec, 4 * world)
        groups = sorted({mesh.a2a_group_of(rank) for rank in range(world)})
        checked = {g: kv_block(k[:, plan.group_positions(g)], v[:, plan.group_positions(g)],
                               plan.group_positions(g)) for g in groups}
        for me, group in enumerate(groups):
            sources = [groups[(me - hop) % len(groups)] for hop in range(len(groups))]
            own = plan.group_positions(group)
            blocks = [checked[group]] + [
                _KVBlock(checked[g].k, checked[g].v, plan.group_positions(g), plan.group_span(g))
                for g in sources[1:]]
            listed = start_fold(q[:, own], own)
            blockwise_attention_step(listed, blocks)
            chained = start_fold(q[:, own], own)
            for block in blocks:
                blockwise_attention_step(chained, [block])
            for a, b in zip(listed.state.as_arrays(), chained.state.as_arrays()):
                assert a.tobytes() == b.tobytes()
