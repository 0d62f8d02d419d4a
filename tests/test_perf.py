"""Analytic performance model: calibration, comm volumes, trends, planner."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spsim.fabric import Topology, build_mesh
from spsim.inference import StubModel, greedy_sampler, sp_decode_step, sp_prefill
from spsim.numeric import AttentionSpec
from spsim.sharding import (
    SampleSpec,
    ShardPlan,
    build_sequences,
    encode_batch,
    globalize_and_pad,
    padded_length,
)
from spsim.strategies import (
    RING_KINDS,
    STRATEGY_KINDS,
    StrategyConfig,
    StrategyConfigError,
    execute_strategy,
    plan_kind,
    resolve_strategy,
)
from spsim.perf import (
    _OVERLAP_TABLE,
    BACKWARD_MULTIPLIER,
    DEVICE_RATE,
    PROFILE_NAMES,
    _divisors,
    calibrate,
    comm_volume,
    decode_messages,
    flops_profile,
    iteration_time,
    max_context,
    megatron_baseline_time,
    model_profile,
    overlap_penalty,
    per_rank_comm_seconds,
    plan,
    reference_rows,
    strategy_messages,
    two_stage_gain,
    volume_total,
)


class TestCalibration:
    @pytest.mark.parametrize("name", ["1.5b", "7b"])
    def test_single_row_calibration_predicts_all_rows_within_2pct(self, name):
        profile = model_profile(name)
        for row in reference_rows(name):
            predicted = flops_profile(profile, row.frames, row.context)
            for component, published in row.tflops.items():
                rel_err = abs(predicted[component] / 1e12 - published) / published
                assert rel_err < 0.02, (name, row.frames, component, rel_err)

    def test_attention_scales_quadratically(self):
        rows = reference_rows("7b")
        published_ratio = rows[1].tflops["attention"] / rows[0].tflops["attention"]
        assert published_ratio == pytest.approx(3.93, abs=0.02)
        profile = model_profile("7b")
        model_ratio = (
            flops_profile(profile, 64, rows[1].context)["attention"]
            / flops_profile(profile, 32, rows[0].context)["attention"]
        )
        assert model_ratio == pytest.approx(3.93, abs=0.02)

    def test_linears_scale_linearly(self):
        rows = reference_rows("7b")
        published_ratio = rows[1].tflops["linears"] / rows[0].tflops["linears"]
        assert published_ratio == pytest.approx(1.983, abs=0.01)
        profile = model_profile("7b")
        model_ratio = (
            flops_profile(profile, 64, rows[1].context)["linears"]
            / flops_profile(profile, 32, rows[0].context)["linears"]
        )
        assert model_ratio == pytest.approx(1.983, abs=0.01)

    def test_predicts_256_frame_attention_within_2pct(self):
        profile = model_profile("7b")  # calibrated on the 64-frame row
        predicted = flops_profile(profile, 256, 50543)["attention"] / 1e12
        assert abs(predicted - 256.40) / 256.40 < 0.02

    def test_predicts_1p5b_512_frame_attention_within_2pct(self):
        profile = model_profile("1.5b")
        predicted = flops_profile(profile, 512, 100975)["attention"] / 1e12
        assert abs(predicted - 438.59) / 438.59 < 0.02

    def test_recalibration_is_idempotent(self):
        profile = model_profile("7b")
        row = reference_rows("7b")[3]
        predicted = flops_profile(profile, row.frames, row.context)
        fake_row = type(row)(
            frames=row.frames,
            context=row.context,
            tflops={c: predicted[c] / 1e12 for c in predicted},
        )
        again = calibrate(profile, fake_row)
        for key, value in profile.constants.items():
            assert abs(again.constants[key] - value) <= 1e-9 * abs(value)

    def test_context_one_unit_case(self):
        profile = model_profile("7b")
        spec = profile.spec
        flops = flops_profile(profile, 0, 1)
        expected = profile.constants["c_attention"] * spec.num_layers * spec.hidden_size
        assert flops["attention"] == pytest.approx(expected)
        assert flops["encoder"] == 0.0

    def test_uncalibrated_profile_rejected(self):
        from spsim.perf import ModelProfile
        bare = ModelProfile(
            name="x", spec=AttentionSpec(2, 2, 8), encoder_params=1e9,
            linear_params=1e9, other_params=1e9,
        )
        with pytest.raises(ValueError, match="not calibrated"):
            flops_profile(bare, 1, 100)

    def test_unknown_profile_name(self):
        with pytest.raises(KeyError, match="unknown model profile"):
            model_profile("13b")


class TestCommVolume:
    SPEC = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=16)

    def exec_mesh(self, sp, a2a, nodes=2):
        topo = Topology(num_nodes=nodes, gpus_per_node=sp // nodes)
        return build_mesh(topo, a2a_degree=a2a, p2p_degree=sp // a2a)

    def test_sp1_is_zero_bytes(self):
        cfg = StrategyConfig("zigzag_ring", p2p_degree=1)
        mesh = build_mesh(Topology(), 1, 1)
        assert volume_total(comm_volume(cfg, self.SPEC, 64, mesh)) == 0

    @pytest.mark.parametrize("cfg", [
        StrategyConfig("naive_ring", p2p_degree=4),
        StrategyConfig("zigzag_ring", p2p_degree=4),
        StrategyConfig("ulysses", a2a_degree=4),
        StrategyConfig("two_d", a2a_degree=2, p2p_degree=2),
        StrategyConfig("two_d", a2a_degree=4, p2p_degree=2),
        StrategyConfig("ulysses", a2a_degree=8, kv_replication=True),
    ])
    def test_analytic_bytes_equal_executed_bytes(self, cfg):
        rng = np.random.default_rng(42)
        spec = self.SPEC
        length = 64
        q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
        k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        mesh = self.exec_mesh(cfg.sp_degree, cfg.a2a_degree)
        run = execute_strategy(mesh, cfg, spec, q, k, v)
        predicted = comm_volume(cfg, spec, length, mesh)
        for kind in ("p2p", "a2a"):
            for link in ("intra", "inter"):
                assert volume_total(predicted, kind, link) == \
                    run.log.total_bytes(kind=kind, link=link), (cfg.kind, kind, link)
        executed = Counter((r.src, r.dst, r.nbytes, r.kind) for r in run.log.records)
        assert executed == Counter(strategy_messages(cfg, spec, length, mesh))

    def test_mesh_factorisation_mismatch_rejected(self):
        # same sp degree, other factorisation: must not enumerate the mesh's groups
        mesh = build_mesh(Topology(num_nodes=2, gpus_per_node=4), 2, 4)
        cfg = StrategyConfig("two_d", a2a_degree=4, p2p_degree=2)
        with pytest.raises(ValueError, match="does not match mesh"):
            list(strategy_messages(cfg, self.SPEC, 64, mesh))

    def test_kv_replication_bytes_match_execution(self):
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=16)
        cfg = StrategyConfig("ulysses", a2a_degree=8, kv_replication=True)
        rng = np.random.default_rng(7)
        q = rng.standard_normal((8, 64, 16))
        k = rng.standard_normal((2, 64, 16))
        v = rng.standard_normal((2, 64, 16))
        mesh = self.exec_mesh(8, 8)
        run = execute_strategy(mesh, cfg, spec, q, k, v)
        predicted = comm_volume(cfg, spec, 64, mesh)
        assert volume_total(predicted) == run.log.total_bytes()

    def test_2d_inter_bytes_below_ring_across_model_sweep(self):
        spec = model_profile("8b").spec
        topo = Topology(num_nodes=4, gpus_per_node=8)
        mesh_2d = build_mesh(topo, a2a_degree=8, p2p_degree=4)
        mesh_ring = build_mesh(topo, a2a_degree=1, p2p_degree=32)
        for seq in (8192, 32768, 131072, 262144):
            two_d = comm_volume(
                StrategyConfig("two_d", a2a_degree=8, p2p_degree=4), spec, seq, mesh_2d)
            ring = comm_volume(
                StrategyConfig("zigzag_ring", p2p_degree=32), spec, seq, mesh_ring)
            assert volume_total(two_d, link="inter") < volume_total(ring, link="inter")
            assert volume_total(two_d, kind="a2a", link="inter") == 0


def _prefill(config, spec, world):
    """An SP prefill of a 29-token prompt on the config's mesh and plan kind."""
    topology = Topology(num_nodes=2, gpus_per_node=world // 2) if world > 1 else Topology()
    mesh = build_mesh(topology, config.a2a_degree, config.p2p_degree)
    pieces = encode_batch(build_sequences([SampleSpec(0, 1, 21)]), tokens_per_frame=8,
                          hidden=spec.hidden_size)
    encoded, zigzag = globalize_and_pad(pieces, mesh)
    plan = ShardPlan(plan_kind(config.kind), world, zigzag.padded_length,
                     zigzag.original_length)
    model = StubModel(spec, eos_token_id=-1)
    return mesh, plan, sp_prefill(mesh, encoded, plan, model, config.kv_replication)


class TestInferenceMessages:
    SPEC = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=4, num_layers=2)

    @pytest.mark.parametrize("world, a2a", [(4, 1), (4, 2), (8, 2)])
    @pytest.mark.parametrize("kv_replication", [False, True])
    def test_prefill_log_equals_mirror(self, world, a2a, kv_replication):
        # One KV head makes an a2a group of 2 replicate it.
        spec = AttentionSpec(8, 1, 4, 2) if kv_replication else self.SPEC
        config = resolve_strategy(spec, Topology(num_nodes=1, gpus_per_node=world), a2a=a2a,
                                  kv_replication=kv_replication)
        mesh, plan, state = _prefill(config, spec, world)
        executed = Counter((r.src, r.dst, r.nbytes, r.kind) for r in state.comm_log.records)
        assert executed == Counter(
            spec.num_layers * list(strategy_messages(config, spec, plan.padded_length, mesh)))

    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_decode_log_equals_mirror_in_order(self, world, kind):
        spec = self.SPEC
        config = resolve_strategy(spec, Topology(num_nodes=1, gpus_per_node=world), kind=kind,
                                  a2a=min(2, world) if kind == "two_d" else 0)
        mesh, _plan, state = _prefill(config, spec, world)
        for sampler in (greedy_sampler, greedy_sampler, lambda logits: -1):  # -1 ends it
            before = len(state.comm_log)
            _, state = sp_decode_step(mesh, state, sampler=sampler)
            executed = [(r.src, r.dst, r.nbytes, r.kind)
                        for r in state.comm_log.records[before:]]
            assert executed == list(decode_messages(spec, mesh, state.owner,
                                                    final=state.finished))
            assert len(executed) == (world - 1) * (1 + (0 if state.finished
                                                         else 2 * spec.num_layers))
        assert state.finished

    def test_decode_mirror_at_the_decode_benchmark_shape(self):
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=16, num_layers=4)
        mesh = build_mesh(Topology(num_nodes=2, gpus_per_node=4), 1, 8)
        messages = list(decode_messages(spec, mesh, owner=3))
        assert len(messages) == 63
        assert sum(m[2] for m in messages) == 60_984
        assert len(list(decode_messages(spec, mesh, owner=3, final=True))) == 7
        with pytest.raises(ValueError, match="owner 8"):
            list(decode_messages(spec, mesh, owner=8))


class TestOverlapPenalty:
    def test_measured_anchor_at_4k(self):
        assert overlap_penalty(4096) == pytest.approx(0.186)

    def test_clamped_and_non_increasing(self):
        assert overlap_penalty(1024) == pytest.approx(0.186)
        assert overlap_penalty(10**6) == pytest.approx(0.042)
        xs = np.linspace(1000, 40000, 40)
        ys = [overlap_penalty(x) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_table_is_ordered(self):
        lengths, values = zip(*_OVERLAP_TABLE)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] >= 0


class TestIterationTime:
    TOPO = Topology(num_nodes=4, gpus_per_node=8)

    def test_ordering_2d_and_ulysses_beat_zigzag_ring(self):
        profile = model_profile("8b")
        for seq in (65536, 131072, 262144):
            t_2d = iteration_time(
                StrategyConfig("two_d", a2a_degree=8, p2p_degree=4),
                profile, self.TOPO, seq)
            t_uly = iteration_time(
                StrategyConfig("ulysses", a2a_degree=32, kv_replication=True),
                profile, self.TOPO, seq)
            t_ring = iteration_time(
                StrategyConfig("zigzag_ring", p2p_degree=32), profile, self.TOPO, seq)
            assert t_2d < t_ring
            assert t_uly < t_ring
            assert abs(t_2d - t_uly) / t_2d < 0.5  # "as efficient as" band

    def test_speedup_band_across_sweep(self):
        profile = model_profile("8b")
        for seq in (32768, 65536, 131072, 196608, 262144, 327680):
            ring = iteration_time(
                StrategyConfig("zigzag_ring", p2p_degree=32), profile, self.TOPO, seq)
            hybrid = iteration_time(
                StrategyConfig("two_d", a2a_degree=8, p2p_degree=4),
                profile, self.TOPO, seq)
            speedup = ring / hybrid
            assert 1.05 <= speedup <= 11.4, (seq, speedup)

    def test_monotone_in_seq_len(self):
        profile = model_profile("8b")
        cfg = StrategyConfig("two_d", a2a_degree=8, p2p_degree=4)
        times = [iteration_time(cfg, profile, self.TOPO, s)
                 for s in (16384, 32768, 65536, 131072, 262144)]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_config_not_factoring_the_world_is_refused(self):
        # A ring of 4 on 2 x 6 GPUs covers a third of the world; no rank goes unpriced.
        topo = Topology(num_nodes=2, gpus_per_node=6)
        cfg = StrategyConfig("zigzag_ring", p2p_degree=4)
        with pytest.raises(ValueError, match="does not match world size 12"):
            iteration_time(cfg, model_profile("8b"), topo, 65536)
        with pytest.raises(ValueError, match="does not match mesh"):
            list(strategy_messages(cfg, model_profile("8b").spec, 65536, build_mesh(topo)))

    @staticmethod
    def per_rank_iteration_time(config, profile, topology, seq_len, num_frames):
        """Every rank priced on its own, the slowest taken last."""
        flops = flops_profile(profile, num_frames, seq_len)
        sp = config.sp_degree
        mesh = build_mesh(topology, config.a2a_degree, config.p2p_degree)
        fwd_total = flops["linears"] + flops["attention"] + flops["others"]
        if num_frames > 0:
            fwd_total += flops["encoder"]
        compute = fwd_total / sp / DEVICE_RATE * BACKWARD_MULTIPLIER
        per_rank_tokens = padded_length(plan_kind(config.kind), sp, seq_len) / sp
        times = []
        for rank_comm in per_rank_comm_seconds(config, profile.spec, seq_len, mesh):
            comm = rank_comm * BACKWARD_MULTIPLIER
            if config.kind in RING_KINDS:
                times.append(max(compute * (1.0 + overlap_penalty(per_rank_tokens)), comm))
            else:
                times.append(compute + comm)
        return max(times)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), nodes=st.integers(1, 8), gpus=st.integers(1, 8),
           kind=st.sampled_from(STRATEGY_KINDS), name=st.sampled_from(PROFILE_NAMES),
           seq_len=st.integers(1, 1 << 19), num_frames=st.sampled_from([0, 16]),
           bandwidths=st.tuples(*[st.floats(1e6, 1e13)] * 2),
           latencies=st.tuples(*[st.floats(0.0, 1e-3)] * 2))
    def test_slowest_rank_priced_once_equals_every_rank_priced(
            self, data, nodes, gpus, kind, name, seq_len, num_frames, bandwidths,
            latencies):
        topology = Topology(nodes, gpus, *bandwidths, *latencies)
        profile = model_profile(name)
        a2a = (data.draw(st.sampled_from(_divisors(topology.world_size)))
               if kind == "two_d" else 0)
        try:
            config = resolve_strategy(profile.spec, topology, kind, a2a=a2a)
        except StrategyConfigError:
            assume(False)
        got = iteration_time(config, profile, topology, seq_len, num_frames)
        want = self.per_rank_iteration_time(config, profile, topology, seq_len, num_frames)
        assert got.hex() == want.hex()

    def test_megatron_baselines_slower_than_2d(self):
        profile = model_profile("8b")
        seq = 131072
        t_2d = iteration_time(
            StrategyConfig("two_d", a2a_degree=8, p2p_degree=4), profile, self.TOPO, seq)
        assert megatron_baseline_time(profile, self.TOPO, seq) > t_2d
        assert megatron_baseline_time(profile, self.TOPO, seq, hybrid=True) > t_2d


class TestMaxContext:
    def test_ulysses_plateaus_at_head_limit(self):
        profile = model_profile("8b")
        uly = StrategyConfig("ulysses", a2a_degree=32, kv_replication=True)
        at_32 = max_context(uly, profile, 32)
        at_256 = max_context(uly, profile, 256)
        assert at_256 < at_32 * 1.05  # plateau: only the weight share shrinks

    def test_ring_grows_linearly_and_exceeds_2m_at_256(self):
        profile = model_profile("8b")
        cfg = StrategyConfig("two_d", a2a_degree=8, p2p_degree=32)
        sizes = [max_context(cfg, profile, w) for w in (32, 64, 128, 256)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] >= 2_000_000
        ratio = sizes[-1] / sizes[0]
        assert 6 <= ratio <= 10  # ~linear in world size

    def test_world_1_same_for_all_strategies(self):
        profile = model_profile("8b")
        values = {
            max_context(StrategyConfig("zigzag_ring", p2p_degree=1), profile, 1),
            max_context(StrategyConfig("ulysses", a2a_degree=1), profile, 1),
            max_context("data_parallel", profile, 1),
        }
        assert len(values) == 1

    def test_data_parallel_capped_at_single_device(self):
        profile = model_profile("8b")
        small = max_context("data_parallel", profile, 8)
        big = max_context("data_parallel", profile, 256)
        assert big < small * 1.1


class TestTwoStageGain:
    def test_zero_text_means_identical_times(self):
        profile = model_profile("7b")
        samples = [SampleSpec(i, 8, 0) for i in range(8)]
        one, two = two_stage_gain(samples, 8, profile)
        assert one == two

    def test_caption_workload_gain_within_band(self):
        # 8 ranks, batch 8, 8 frames per sample, caption-sized text spread
        rng = np.random.default_rng(0)
        profile = model_profile("7b")
        samples = [
            SampleSpec(i, 8, int(rng.integers(250, 451))) for i in range(8)
        ]
        one, two = two_stage_gain(samples, 8, profile)
        gain = (one - two) / one
        assert two <= one
        assert 0.0 <= gain <= 0.10

    def test_adversarial_batch_gains_more(self):
        profile = model_profile("7b")
        balanced = [SampleSpec(i, 8, 300) for i in range(8)]
        skewed = [SampleSpec(0, 8, 2400)] + [SampleSpec(i, 8, 0) for i in range(1, 8)]
        one_b, two_b = two_stage_gain(balanced, 8, profile)
        one_s, two_s = two_stage_gain(skewed, 8, profile)
        gain_balanced = (one_b - two_b) / one_b
        gain_skewed = (one_s - two_s) / one_s
        assert gain_skewed > 0
        assert gain_skewed > gain_balanced


class TestPlanner:
    def test_two_node_default_picks_8x2(self):
        topo = Topology(num_nodes=2, gpus_per_node=8)
        cfg = plan(topo, model_profile("8b"), 131072)
        assert (cfg.a2a_degree, cfg.p2p_degree) == (8, 2)
        assert cfg.kind == "two_d"

    def test_single_node_picks_pure_a2a(self):
        topo = Topology(num_nodes=1, gpus_per_node=8)
        cfg = plan(topo, model_profile("8b"), 65536)
        assert cfg.kind == "ulysses"
        assert cfg.a2a_degree == 8

    def test_world_1_trivial(self):
        cfg = plan(Topology(), model_profile("8b"), 4096)
        assert cfg.sp_degree == 1

    def test_divisors_match_a_sieve(self):
        # The planner's candidate a2a degrees: every divisor, ascending.
        sieve = [[] for _ in range(5001)]
        for d in range(1, 5001):
            for multiple in range(d, 5001, d):
                sieve[multiple].append(d)
        for n in range(1, 5001):
            assert _divisors(n) == sieve[n]
