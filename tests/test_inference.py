"""SP inference: prefill/decode correctness and the schedule/memory models."""

import numpy as np
import pytest

from spsim.fabric import Topology, build_mesh
from spsim.numeric import AttentionSpec
from spsim.sharding import (
    SampleSpec,
    build_sequences,
    encode_batch,
    globalize_and_pad,
    text_embedding_stub,
)
from spsim.inference import (
    StubModel,
    decode_greedy,
    local_decode,
    local_forward,
    pipeline_baseline,
    pipeline_max_seq,
    sp_decode_step,
    sp_inference_report,
    sp_max_seq,
    sp_prefill,
)

SPEC = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8, num_layers=2)


def make_mesh(world, a2a=1):
    if world >= 2:
        topo = Topology(num_nodes=2, gpus_per_node=world // 2)
    else:
        topo = Topology()
    return build_mesh(topo, a2a_degree=a2a, p2p_degree=world // a2a)


def make_prompt(mesh, text_tokens=30, frames=1, tokens_per_frame=5):
    batch = build_sequences([SampleSpec(0, frames, text_tokens)])
    pieces = encode_batch(batch, tokens_per_frame=tokens_per_frame,
                          hidden=SPEC.hidden_size)
    return globalize_and_pad(pieces, mesh)


class TestStubModel:
    def test_embed_equals_text_embedding_stub(self):
        model = StubModel(SPEC, vocab_size=16)
        hidden = model.hidden_size
        for token_id in range(model.vocab_size):
            np.testing.assert_array_equal(model.embed([token_id]),
                                          text_embedding_stub([token_id], hidden))
        # Repeated ids, an id past the vocabulary, a numpy integer and no ids.
        for ids in ([3, 3, 7, 3, 0], [3, 16, 3], [np.int64(5), 1_000_000], []):
            for _ in range(2):
                np.testing.assert_array_equal(model.embed(ids), text_embedding_stub(ids, hidden))


class TestPrefill:
    def test_world1_equals_plain_forward(self):
        mesh = make_mesh(1)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC)
        state = sp_prefill(mesh, encoded, plan, model)
        want = local_forward(model, encoded.embeddings[: plan.original_length])
        np.testing.assert_allclose(state.last_hidden, want[-1], atol=1e-10)

    def test_last_position_matches_oracle_across_worlds(self):
        model = StubModel(SPEC)
        reference = None
        for world, a2a in ((1, 1), (2, 1), (4, 2)):
            mesh = make_mesh(world, a2a)
            encoded, plan = make_prompt(mesh)
            state = sp_prefill(mesh, encoded, plan, model)
            if reference is None:
                reference = local_forward(
                    model, encoded.embeddings[: plan.original_length])[-1]
            np.testing.assert_allclose(state.last_hidden, reference, atol=1e-9)

    def test_kv_extents_partition_the_prompt(self):
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh, text_tokens=29)
        state = sp_prefill(mesh, encoded, plan, StubModel(SPEC))
        union = np.sort(np.concatenate([rank[0].positions for rank in state.caches]))
        np.testing.assert_array_equal(union, np.arange(plan.original_length))

    def test_dummy_rows_never_cached(self):
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh, text_tokens=26)
        assert plan.padded_length > plan.original_length
        state = sp_prefill(mesh, encoded, plan, StubModel(SPEC))
        for rank in range(4):
            for cache in state.caches[rank]:
                assert np.all(cache.positions < plan.original_length)


class TestDecode:
    def test_world1_matches_local_incremental_decode(self):
        mesh = make_mesh(1)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        got = decode_greedy(mesh, state, 8)
        want = local_decode(model, encoded.embeddings[: plan.original_length], 8)
        assert got == want

    def test_greedy_decode_identical_across_world_sizes(self):
        model = StubModel(SPEC, eos_token_id=-1)
        sequences = {}
        for world, a2a in ((1, 1), (2, 1), (4, 1)):
            mesh = make_mesh(world, a2a)
            encoded, plan = make_prompt(mesh)
            state = sp_prefill(mesh, encoded, plan, model)
            sequences[world] = decode_greedy(mesh, state, 16)
        assert sequences[1] == sequences[2] == sequences[4]
        assert len(sequences[1]) == 16

    def test_decode_prefix_consistency(self):
        # prefill(prompt) + one decode step of t == prefill(prompt + t) last row
        mesh = make_mesh(2)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        token, state = sp_decode_step(mesh, state)
        extended_rows = np.concatenate(
            [encoded.embeddings[: plan.original_length], model.embed([token])], axis=0)
        want = local_forward(model, extended_rows)[-1]
        np.testing.assert_allclose(state.last_hidden, want, atol=1e-9)

    def test_eos_terminates_all_ranks_cleanly(self):
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)

        calls = []

        def eos_on_third(logits):
            calls.append(1)
            if len(calls) >= 3:
                return model.eos_token_id
            return int(np.argmax(logits))

        tokens = []
        before_last_step = 0
        for _ in range(10):
            before_last_step = len(state.comm_log)
            token, state = sp_decode_step(mesh, state, sampler=eos_on_third)
            tokens.append(token)
            if state.finished:
                break
        assert tokens[-1] == model.eos_token_id
        assert len(tokens) == 3
        # the terminating step is exactly one broadcast to the other ranks:
        # every rank leaves together, no dangling sends or half collectives
        final_step = state.comm_log.records[before_last_step:]
        assert len(final_step) == 3
        assert all(r.kind == "broadcast" for r in final_step)
        assert sorted(r.dst for r in final_step) == [1, 2, 3]
        with pytest.raises(RuntimeError, match="finished"):
            sp_decode_step(mesh, state)

    def test_short_prompt_leaves_some_ranks_with_empty_caches(self):
        # prompt of 3 tokens over 4 ranks pads to 8: rank 3's chunks {3,4}
        # are both dummy, so it holds no real KV, yet decode must still match.
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh, text_tokens=0, frames=1, tokens_per_frame=3)
        assert plan.original_length == 3 and plan.padded_length == 8
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        assert any(state.caches[r][0].positions.size == 0 for r in range(4))
        got = decode_greedy(mesh, state, 6)
        want = local_decode(model, encoded.embeddings[:3], 6)
        assert got == want

    def test_newest_slot_owned_by_final_chunk_rank(self):
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        assert state.owner == plan.rank_of_chunk(plan.num_chunks - 1)
        before = state.caches[state.owner][0].positions.size
        _, state = sp_decode_step(mesh, state)
        assert state.caches[state.owner][0].positions.size == before + 1
        union = np.sort(np.concatenate([rank[0].positions for rank in state.caches]))
        np.testing.assert_array_equal(
            union, np.arange(plan.original_length + 1))

    def test_one_merge_call_per_layer_on_the_owner(self, monkeypatch):
        # perfbench's numeric.merge metrics wrap this name: the owner alone
        # merges a layer's gathered partials, one per rank, in a single call.
        import spsim.inference as inference

        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh)
        state = sp_prefill(mesh, encoded, plan, StubModel(SPEC, eos_token_id=-1))
        calls = []
        original = inference.merge_attention_partials

        def counted(*states):
            calls.append(len(states))
            return original(*states)

        monkeypatch.setattr(inference, "merge_attention_partials", counted)
        sp_decode_step(mesh, state)
        assert calls == [4] * SPEC.num_layers

    def test_only_the_owner_projects_k_and_v(self, monkeypatch):
        mesh = make_mesh(4)
        encoded, plan = make_prompt(mesh)
        model = StubModel(SPEC, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        x = model.embed([3])
        q, k, v = model.qkv(0, x)
        q_only = model.qkv(0, x, kv=False)
        assert q_only[1:] == (None, None) and q_only[0].tobytes() == q.tobytes()
        calls = []
        original = StubModel.qkv

        def recorded(self, layer, rows, *, kv=True):
            calls.append(kv)
            return original(self, layer, rows, kv=kv)

        monkeypatch.setattr(StubModel, "qkv", recorded)
        sp_decode_step(mesh, state)
        assert sorted(calls) == [False] * (3 * SPEC.num_layers) + [True] * SPEC.num_layers


class TestPipelineBaseline:
    TOPO = Topology(num_nodes=1, gpus_per_node=8)
    SPEC8B = AttentionSpec(num_q_heads=32, num_kv_heads=8, head_dim=128, num_layers=32)

    def test_utilization_is_one_over_stages(self):
        report = pipeline_baseline(self.TOPO, self.SPEC8B, seq_len=65536, stages=8)
        for dev in range(8):
            assert report.utilization(dev) == pytest.approx(1 / 8, abs=0.02)

    def test_first_device_memory_dominates(self):
        report = pipeline_baseline(self.TOPO, self.SPEC8B, seq_len=96_000, stages=8)
        others = max(report.peak_memory_bytes[1:])
        assert report.peak_memory_bytes[0] > 3 * others

    def test_single_stage_equals_plain_forward(self):
        report = pipeline_baseline(self.TOPO, self.SPEC8B, seq_len=4096, stages=1)
        assert report.num_devices == 1
        assert report.idle_seconds[0] == 0.0
        assert report.utilization(0) == 1.0

    def test_rejects_too_many_stages(self):
        with pytest.raises(ValueError, match="stages"):
            pipeline_baseline(self.TOPO, self.SPEC8B, seq_len=1024, stages=9)


class TestSpInferenceReport:
    TOPO = Topology(num_nodes=1, gpus_per_node=8)
    SPEC8B = AttentionSpec(num_q_heads=32, num_kv_heads=8, head_dim=128, num_layers=32)

    def test_all_devices_busy_and_memory_even(self):
        mesh = build_mesh(self.TOPO, a2a_degree=8, p2p_degree=1)
        report = sp_inference_report(mesh, self.SPEC8B, seq_len=65536)
        assert all(i == 0.0 for i in report.idle_seconds)
        assert len(set(report.peak_memory_bytes)) == 1

    def test_speedup_vs_pipeline_in_band(self):
        mesh = build_mesh(self.TOPO, a2a_degree=8, p2p_degree=1)
        for seq in (49152, 98304):
            pipe = pipeline_baseline(self.TOPO, self.SPEC8B, seq, stages=8)
            sp = sp_inference_report(mesh, self.SPEC8B, seq)
            speedup = pipe.total_latency / sp.total_latency
            assert 4.0 <= speedup <= 8.2, (seq, speedup)

    def test_max_seq_ratio_at_least_2(self):
        mesh = build_mesh(self.TOPO, a2a_degree=8, p2p_degree=1)
        pipe_max = pipeline_max_seq(self.TOPO, self.SPEC8B, stages=8)
        sp_max = sp_max_seq(mesh, self.SPEC8B)
        assert sp_max / pipe_max >= 2.0
