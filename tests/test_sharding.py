"""Two-stage sharding workflow: distribution, padding, zigzag plans, balance."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsim.fabric import Topology, build_mesh
from spsim.sharding import (
    EncodedPiece,
    ImagePlaceholder,
    MultimodalSequence,
    SampleSpec,
    ShardPlan,
    TextToken,
    build_sequences,
    chunk_pair_counts,
    chunk_workload_units,
    distribute_images,
    encode_batch,
    encode_images_stub,
    globalize_and_pad,
    load_samples,
    padded_length,
    plan_granule,
    text_embedding_stub,
)

KIND_TEXT, KIND_VISION, KIND_DUMMY = 0, 1, 2


def make_batch(frame_counts, text_counts):
    samples = [
        SampleSpec(sample_id=i, num_frames=f, num_text_tokens=t)
        for i, (f, t) in enumerate(zip(frame_counts, text_counts))
    ]
    return build_sequences(samples)


def mesh_of(sp, a2a=1):
    p2p = sp // a2a
    return build_mesh(Topology(num_nodes=1, gpus_per_node=sp), a2a_degree=a2a, p2p_degree=p2p)


class TestDistributeImages:
    def test_batch4_sp3_balance_within_one(self):
        batch = make_batch([5, 2, 7, 1], [4, 4, 4, 4])
        per_rank = distribute_images(batch, 3)
        counts = [len(r) for r in per_rank]
        assert sum(counts) == 15
        assert max(counts) - min(counts) <= 1

    def test_sp1_takes_everything(self):
        batch = make_batch([3, 2], [1, 1])
        per_rank = distribute_images(batch, 1)
        assert len(per_rank) == 1 and len(per_rank[0]) == 5

    def test_ten_frames_over_four_ranks(self):
        batch = make_batch([10], [0])
        counts = [len(r) for r in distribute_images(batch, 4)]
        assert counts == [3, 3, 2, 2]

    def test_empty_batch(self):
        assert distribute_images([], 4) == [[], [], [], []]

    @pytest.mark.parametrize("total,sp", [(7, 3), (16, 5), (9, 8), (2, 4)])
    def test_balance_invariant(self, total, sp):
        batch = make_batch([total], [0])
        counts = [len(r) for r in distribute_images(batch, sp)]
        f = total // sp
        if f > 0:
            assert max(counts) / min(c for c in counts if c) <= (f + 1) / f
        assert max(counts) - min(counts) <= 1


class TestEncoderStub:
    def test_rank_independent_encoding(self):
        a = encode_images_stub([5], tokens_per_frame=16, hidden=8)[5]
        b = encode_images_stub([5, 9], tokens_per_frame=16, hidden=8)[5]
        np.testing.assert_array_equal(a, b)

    def test_256_tokens_per_frame_default_shape(self):
        rows = encode_images_stub([0], tokens_per_frame=256, hidden=4)[0]
        assert rows.shape == (256, 4)

    def test_token_arithmetic_32_frames(self):
        # 32 frames x 196 tokens + 143 text tokens -> 6415 total tokens.
        batch = make_batch([32], [143])
        pieces = encode_batch(batch, tokens_per_frame=196, hidden=4)
        total = sum(p.embeddings.shape[0] for p in pieces)
        assert total == 32 * 196 + 143 == 6415

    def test_text_stub_deterministic(self):
        np.testing.assert_array_equal(
            text_embedding_stub([3, 4], 8), text_embedding_stub([3, 4], 8)
        )


class TestGlobalizeAndPad:
    def test_already_divisible_adds_no_dummies(self):
        batch = make_batch([1], [12])  # 4 vision + 12 text = 16 with tpf=4
        pieces = encode_batch(batch, tokens_per_frame=4, hidden=8)
        encoded, plan = globalize_and_pad(pieces, mesh_of(2))
        assert plan.padded_length == plan.original_length == 16
        assert not np.any(encoded.kinds == KIND_DUMMY)

    def test_pads_to_next_multiple(self):
        # length 100, ring degree 4, a2a 1 -> padded to 104 (next multiple of 8)
        mesh = mesh_of(4)
        assert padded_length("zigzag", mesh.world_size, 100) == 104
        batch = make_batch([0], [100])
        pieces = encode_batch(batch, tokens_per_frame=1, hidden=4)
        encoded, plan = globalize_and_pad(pieces, mesh)
        assert plan.original_length == 100
        assert plan.padded_length == 104
        assert np.all(encoded.kinds[100:] == KIND_DUMMY)

    def test_dummy_positions_never_in_loss(self):
        batch = make_batch([1, 0], [5, 6])
        pieces = encode_batch(batch, tokens_per_frame=3, hidden=4)
        encoded, _ = globalize_and_pad(pieces, mesh_of(4))
        assert not np.any(encoded.loss_mask[encoded.kinds == KIND_DUMMY])
        assert np.all(encoded.loss_mask[encoded.kinds == KIND_TEXT])

    def test_interleaved_order_preserved(self):
        sample = MultimodalSequence(0, (
            TextToken(7), ImagePlaceholder(0), TextToken(9),
        ))
        pieces = encode_batch([sample], tokens_per_frame=2, hidden=4)
        encoded, _ = globalize_and_pad(pieces, mesh_of(1))
        assert list(encoded.kinds[:4]) == [KIND_TEXT, KIND_VISION, KIND_VISION, KIND_TEXT]
        np.testing.assert_array_equal(encoded.embeddings[0], text_embedding_stub([7], 4)[0])
        np.testing.assert_array_equal(encoded.embeddings[3], text_embedding_stub([9], 4)[0])

    def test_stage1_assignment_never_changes_global_sequence(self):
        batch = make_batch([4, 3], [6, 2])
        pieces_a = encode_batch(batch, tokens_per_frame=2, hidden=4,
                                assignments=distribute_images(batch, 2))
        pieces_b = encode_batch(batch, tokens_per_frame=2, hidden=4,
                                assignments=distribute_images(batch, 7))
        enc_a, _ = globalize_and_pad(pieces_a, mesh_of(2))
        enc_b, _ = globalize_and_pad(pieces_b, mesh_of(2))
        np.testing.assert_array_equal(enc_a.embeddings, enc_b.embeddings)


class TestZigzagPlan:
    def test_two_end_assignment_p4(self):
        plan = ShardPlan("zigzag", 4, 64, 64)
        assert plan.assignments == ((0, 7), (1, 6), (2, 5), (3, 4))

    def test_p1_owns_everything(self):
        plan = ShardPlan("zigzag", 1, 16, 16)
        np.testing.assert_array_equal(plan.rank_positions(0), np.arange(16))

    def test_rejects_indivisible_length(self):
        with pytest.raises(ValueError, match="divisible"):
            ShardPlan("zigzag", 4, 30, 30)

    @pytest.mark.parametrize("original", [-3, 0, 9, 100])
    def test_rejects_an_original_length_outside_1_to_padded(self, original):
        # A negative one sliced rows off the end of gather, a longer one kept
        # every dummy row as a real one and zero kept none.
        with pytest.raises(ValueError, match=re.escape(
                f"original length {original} not in 1..padded length 8")):
            ShardPlan("zigzag", 2, 8, original)

    def test_original_length_may_be_one_or_the_padded_length(self):
        shards = ShardPlan("zigzag", 2, 8, 8).shard(np.arange(8.0))
        assert ShardPlan("zigzag", 2, 8, 1).gather(shards).tolist() == [0.0]
        assert ShardPlan("zigzag", 2, 8, 8).gather(shards).tolist() == list(range(8))

    @pytest.mark.parametrize("plan", [ShardPlan("zigzag", 2, 16, 16),
                                      ShardPlan("contiguous", 3, 12, 12)],
                             ids=["zigzag", "contiguous"])
    def test_rank_positions_are_shared_and_read_only(self, plan):
        positions = plan.rank_positions(1)
        assert plan.rank_positions(1) is positions
        expected = np.concatenate([plan.chunk_positions(c) for c in plan.assignments[1]])
        np.testing.assert_array_equal(positions, expected)
        with pytest.raises(ValueError, match="read-only"):
            positions[0] = 99
        np.testing.assert_array_equal(plan.rank_positions(1), expected)

    def test_group_positions_are_sorted_shared_and_read_only(self):
        plan = ShardPlan("zigzag", 4, 32, 32)
        positions = plan.group_positions((1, 3))
        assert plan.group_positions((1, 3)) is positions
        expected = np.sort(np.concatenate([plan.rank_positions(1), plan.rank_positions(3)]))
        assert positions.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            positions[0] = 99

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(("contiguous", "zigzag")), sp=st.integers(1, 16),
           granules=st.integers(1, 3))
    def test_every_group_span_is_the_extent_of_its_ascending_positions(self, kind, sp,
                                                                       granules):
        # Folds take each KV block's span from the plan instead of reducing
        # its positions: the cached span must be their least and greatest,
        # for every a2a group of every degree, a group of one included.
        length = granules * plan_granule(kind, sp)
        plan = ShardPlan(kind, sp, length, length)
        for a2a in (d for d in range(1, sp + 1) if sp % d == 0):
            mesh = mesh_of(sp, a2a)
            for group in {mesh.a2a_group_of(rank) for rank in range(sp)}:
                positions = plan.group_positions(group)
                assert np.all(np.diff(positions) > 0)
                assert plan.group_span(group) == (positions.min(), positions.max())
                if a2a == 1:
                    assert positions is plan.rank_positions(group[0])

    @pytest.mark.parametrize("sp", [2, 4, 8])
    def test_causal_chunk_pairs_equal_2p_plus_1(self, sp):
        plan = ShardPlan("zigzag", sp, 8 * sp, 8 * sp)
        assert chunk_pair_counts(plan) == [2 * sp + 1] * sp

    @pytest.mark.parametrize("sp,chunk,expected,ratio", [
        *(pytest.param(sp, 8, [2 * r + 1 for r in range(sp)], 2 * sp - 1, id=str(sp))
          for sp in (2, 4, 8)),
        # single-position chunks: the diagonal pair is fully unmasked
        pytest.param(4, 1, [2, 4, 6, 8], 4, id="chunk1"),
    ])
    def test_contiguous_workload_ratio_2p_minus_1(self, sp, chunk, expected, ratio):
        plan = ShardPlan("contiguous", sp, chunk * sp, chunk * sp)
        units = chunk_workload_units(plan)
        assert units == expected
        assert max(units) == ratio * min(units)

    @pytest.mark.parametrize("sp", [2, 4, 8])
    def test_zigzag_workload_units_equal(self, sp):
        plan = ShardPlan("zigzag", sp, 8 * sp, 8 * sp)
        units = chunk_workload_units(plan)
        assert len(set(units)) == 1


class TestShardGather:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        plan = ShardPlan("zigzag", 3, 48, 41)
        x = rng.standard_normal((48, 5))
        shards = plan.shard(x)
        assert all(s.shape[0] == 16 for s in shards)
        back = plan.gather(shards, trim=True)
        np.testing.assert_array_equal(back, x[:41])

    def test_gather_drops_dummies(self):
        plan = ShardPlan("zigzag", 2, 16, 13)
        x = np.arange(16.0)[:, None]
        back = plan.gather(plan.shard(x), trim=True)
        assert back.shape[0] == 13

    def test_shard_along_other_axis(self):
        rng = np.random.default_rng(1)
        plan = ShardPlan("contiguous", 4, 12, 12)
        x = rng.standard_normal((2, 12, 3))
        shards = plan.shard(x, axis=1)
        back = plan.gather(shards, axis=1)
        np.testing.assert_array_equal(back, x)

    def test_missing_shard_rejected(self):
        plan = ShardPlan("contiguous", 2, 8, 8)
        with pytest.raises(ValueError, match="shards"):
            plan.gather([np.zeros((4, 1))])

    def test_every_shard_must_have_the_first_shards_shape(self):
        plan = ShardPlan("contiguous", 2, 4, 4)
        wide, narrow = np.arange(4.0).reshape(2, 2), np.array([[4.0, 5.0]])
        # A one-row shard would broadcast into both of its rows.
        with pytest.raises(ValueError, match=re.escape(
                "rank 1 shard has shape (1, 2), expected (2, 2)")):
            plan.gather([wide, narrow], axis=1)
        # The mirror case would fail inside numpy's broadcasting.
        with pytest.raises(ValueError, match=re.escape(
                "rank 1 shard has shape (2, 2), expected (1, 2)")):
            plan.gather([narrow, wide], axis=1)
        with pytest.raises(ValueError, match=re.escape(
                "rank 0 shard has shape (2, 3), expected (2, 2)")):
            plan.gather([np.zeros((2, 3)), wide], axis=1)


PLAN_KINDS = st.sampled_from(("contiguous", "zigzag"))
SP_DEGREES = st.integers(1, 64)


class TestGranuleRule:
    """One rule for every plan: its length is a positive multiple of the granule."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=PLAN_KINDS, sp=SP_DEGREES, length=st.integers(0, 10**6))
    def test_padded_length_is_the_least_granule_multiple(self, kind, sp, length):
        granule = plan_granule(kind, sp)
        assert granule == (sp if kind == "contiguous" else 2 * sp)
        padded = padded_length(kind, sp, length)
        assert padded % granule == 0
        assert padded >= length and padded >= granule
        assert padded - granule < max(length, granule)  # no smaller multiple fits

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=PLAN_KINDS, sp=SP_DEGREES, length=st.integers(-2, 10**6),
           snap=st.booleans())
    def test_plans_accept_exactly_the_positive_multiples(self, kind, sp, length, snap):
        granule = plan_granule(kind, sp)
        if snap:  # also draw multiples: zero, negative and positive ones
            length -= length % granule
        if length >= 1 and length % granule == 0:
            plan = ShardPlan(kind, sp, length, length)
            assert (plan.kind, plan.padded_length) == (kind, length)
            assert plan.num_chunks == granule
            return
        text = (f"length {length} not divisible by sp_degree {sp}" if kind == "contiguous"
                else f"length {length} not divisible by 2 * sp_degree = {2 * sp}")
        with pytest.raises(ValueError, match=re.escape(text)):
            ShardPlan(kind, sp, length, length)

    @pytest.mark.parametrize("kind", ["contiguous", "zigzag"])
    def test_chunk_owners_follow_from_kind_degree_and_length(self, kind):
        for sp in range(1, 17):
            granule = plan_granule(kind, sp)
            for multiple in (1, 2, 3, 8):
                plan = ShardPlan(kind, sp, multiple * granule, multiple * granule)
                owned = sorted(c for chunks in plan.assignments for c in chunks)
                assert owned == list(range(plan.num_chunks))
                for rank, chunks in enumerate(plan.assignments):
                    assert [plan.rank_of_chunk(c) for c in chunks] == [rank] * len(chunks)
                assert plan.chunk_size * plan.num_chunks == plan.padded_length
                for outside in (-1, plan.num_chunks):
                    with pytest.raises(ValueError, match=f"chunk {outside} not assigned"):
                        plan.rank_of_chunk(outside)

    @pytest.mark.parametrize("kind", ["contiguous", "zigzag"])
    def test_a_plan_built_directly_is_refused_a_non_multiple_length(self, kind):
        for sp in range(1, 17):
            granule = plan_granule(kind, sp)
            need = f"sp_degree {sp}" if kind == "contiguous" else f"2 * sp_degree = {granule}"
            for length in [0] + [n for n in (granule + 1, 3 * granule - 1) if n % granule]:
                with pytest.raises(ValueError, match=re.escape(
                        f"length {length} not divisible by {need}")):
                    ShardPlan(kind, sp, length, length)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda kind: ShardPlan(kind, 2, 8, 8), id="ShardPlan"),
        pytest.param(lambda kind: padded_length(kind, 2, 5), id="padded_length"),
    ])
    @pytest.mark.parametrize("kind", ["contigous", "Zigzag", "ring"])
    def test_an_unknown_plan_kind_is_refused(self, make, kind):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown plan kind {kind!r} (expected 'contiguous' or 'zigzag')")):
            make(kind)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sp=SP_DEGREES, length=st.integers(1, 10**6))
    def test_globalize_pads_to_the_zigzag_padded_length(self, sp, length):
        piece = EncodedPiece(0, 0, KIND_TEXT, np.zeros((length, 1)))
        encoded, plan = globalize_and_pad([piece], mesh_of(sp))
        assert plan.kind == "zigzag" and plan.original_length == length
        assert plan.padded_length == padded_length("zigzag", sp, length)
        assert encoded.embeddings.shape[0] == plan.padded_length


class TestWorkloadFiles:
    def test_load_samples(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("# id frames text\n0 32 143\n1 8 2000\n\n")
        samples = load_samples(path)
        assert samples == [SampleSpec(0, 32, 143), SampleSpec(1, 8, 2000)]

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("0 32\n")
        with pytest.raises(ValueError, match="samples.txt:1"):
            load_samples(path)

    def test_build_sequences_deterministic(self):
        a = build_sequences([SampleSpec(3, 2, 4)])
        b = build_sequences([SampleSpec(3, 2, 4)])
        assert a == b
        assert len(a[0].elements) == 6
