"""Sequence-parallel attention strategies, each checked against the oracle."""

import numpy as np
import pytest

from spsim.fabric import Topology, build_mesh
from spsim.numeric import AttentionSpec, reference_attention
from spsim.sharding import contiguous_shard, zigzag_shard
from spsim.strategies import (
    StrategyConfig,
    StrategyConfigError,
    attention_2d,
    execute_strategy,
    plan_for_strategy,
    ring_attention,
    ulysses_attention,
    zigzag_ring_attention,
)


def sp_mesh(sp, a2a=1, nodes=1):
    """Mesh whose world is exactly the SP group."""
    p2p = sp // a2a
    assert nodes in (1, 2)
    if nodes == 2 and sp >= 2:
        topo = Topology(num_nodes=2, gpus_per_node=sp // 2)
    else:
        topo = Topology(num_nodes=1, gpus_per_node=sp)
    return build_mesh(topo, a2a_degree=a2a, p2p_degree=p2p)


def random_qkv(rng, spec, length):
    q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
    k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    return q, k, v


SPEC = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)


class TestRingAttention:
    def test_p1_is_reference_with_no_communication(self):
        rng = np.random.default_rng(0)
        q, k, v = random_qkv(rng, SPEC, 24)
        run = execute_strategy(sp_mesh(1), StrategyConfig("naive_ring", p2p_degree=1),
                               SPEC, q, k, v)
        assert len(run.log) == 0
        want = reference_attention(q, k, v, SPEC)
        assert np.max(np.abs(run.gathered() - want)) < 1e-12

    def test_p4_matches_oracle(self):
        rng = np.random.default_rng(1)
        q, k, v = random_qkv(rng, SPEC, 64)
        run = execute_strategy(sp_mesh(4), StrategyConfig("naive_ring", p2p_degree=4),
                               SPEC, q, k, v)
        want = reference_attention(q, k, v, SPEC)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10

    def test_comm_log_has_p_times_p_minus_1_equal_kv_messages(self):
        rng = np.random.default_rng(2)
        q, k, v = random_qkv(rng, SPEC, 64)
        run = execute_strategy(sp_mesh(4), StrategyConfig("naive_ring", p2p_degree=4),
                               SPEC, q, k, v)
        assert run.log.kinds() == {"p2p"}
        assert run.log.count() == 4 * 3
        sizes = {r.nbytes for r in run.log.records}
        assert sizes == {2 * SPEC.num_kv_heads * 16 * SPEC.head_dim * 8}

    def test_rejects_zigzag_plan(self):
        plan = zigzag_shard(32, 2)
        rng = np.random.default_rng(3)
        q, k, v = random_qkv(rng, SPEC, 32)
        with pytest.raises(ValueError, match="contiguous"):
            ring_attention(sp_mesh(2, a2a=1), plan, plan.shard(q, 1),
                           plan.shard(k, 1), plan.shard(v, 1), SPEC)


class TestZigzagRingAttention:
    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        q, k, v = random_qkv(rng, SPEC, 80)
        run = execute_strategy(sp_mesh(4), StrategyConfig("zigzag_ring", p2p_degree=4),
                               SPEC, q, k, v)
        want = reference_attention(q, k, v, SPEC)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10

    def test_matches_naive_ring_outputs_globally(self):
        rng = np.random.default_rng(5)
        q, k, v = random_qkv(rng, SPEC, 64)
        zz = execute_strategy(sp_mesh(4), StrategyConfig("zigzag_ring", p2p_degree=4),
                              SPEC, q, k, v)
        nr = execute_strategy(sp_mesh(4), StrategyConfig("naive_ring", p2p_degree=4),
                              SPEC, q, k, v)
        assert np.max(np.abs(zz.gathered() - nr.gathered())) < 2e-10
        assert zz.log.count() == nr.log.count()

    def test_p1_degenerate(self):
        rng = np.random.default_rng(6)
        q, k, v = random_qkv(rng, SPEC, 16)
        run = execute_strategy(sp_mesh(1), StrategyConfig("zigzag_ring", p2p_degree=1),
                               SPEC, q, k, v)
        want = reference_attention(q, k, v, SPEC)
        assert np.max(np.abs(run.gathered() - want)) < 1e-12

    @pytest.mark.parametrize("sp", [2, 4])
    def test_per_rank_compute_from_ring_schedule(self, sp):
        # Walk the deterministic ring schedule hop by hop: at hop h, rank r
        # holds the KV chunks of rank (r - h) mod P.  Count the unmasked
        # (q-chunk, kv-chunk) pairs each rank computes; all must equal 2P+1.
        plan = zigzag_shard(8 * sp, sp)
        counts = [0] * sp
        for rank in range(sp):
            for hop in range(sp):
                source = (rank - hop) % sp
                for qc in plan.assignments[rank]:
                    for kc in plan.assignments[source]:
                        if kc <= qc:  # equal chunks: unmasked iff kc <= qc
                            counts[rank] += 1
        assert counts == [2 * sp + 1] * sp

    def test_rejects_contiguous_plan(self):
        plan = contiguous_shard(32, 2)
        rng = np.random.default_rng(7)
        q, k, v = random_qkv(rng, SPEC, 32)
        with pytest.raises(ValueError, match="zigzag"):
            zigzag_ring_attention(sp_mesh(2), plan, plan.shard(q, 1),
                                  plan.shard(k, 1), plan.shard(v, 1), SPEC)


class TestUlyssesAttention:
    def test_degree4_matches_oracle(self):
        rng = np.random.default_rng(8)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        q, k, v = random_qkv(rng, spec, 64)
        run = execute_strategy(sp_mesh(4, a2a=4), StrategyConfig("ulysses", a2a_degree=4),
                               spec, q, k, v)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10
        assert run.log.kinds() == {"a2a"}

    def test_kv_replication_matches_oracle_and_costs_more(self):
        rng = np.random.default_rng(9)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=8)
        q, k, v = random_qkv(rng, spec, 64)
        mesh = sp_mesh(8, a2a=8)
        run = execute_strategy(
            mesh, StrategyConfig("ulysses", a2a_degree=8, kv_replication=True),
            spec, q, k, v)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10

        smaller = execute_strategy(
            sp_mesh(2, a2a=2), StrategyConfig("ulysses", a2a_degree=2), spec, q, k, v)
        # replicated KV heads genuinely travel: more bytes per rank pair
        per_pair_repl = run.log.total_bytes() / run.log.count()
        per_pair_plain = smaller.log.total_bytes() / smaller.log.count()
        assert run.log.total_bytes() > 0 and per_pair_repl != per_pair_plain

    def test_degree_exceeding_kv_heads_without_replication_is_an_error(self):
        spec = AttentionSpec(num_q_heads=32, num_kv_heads=8, head_dim=4)
        with pytest.raises(StrategyConfigError,
                           match="degree 16 exceeds 8 KV heads; enable kv_replication"):
            StrategyConfig("ulysses", a2a_degree=16).validate_heads(spec)

    def test_degree_32_with_replication_accepted_33_rejected(self):
        spec = AttentionSpec(num_q_heads=32, num_kv_heads=8, head_dim=4)
        StrategyConfig("ulysses", a2a_degree=32, kv_replication=True).validate_heads(spec)
        with pytest.raises(StrategyConfigError, match="query heads"):
            StrategyConfig("ulysses", a2a_degree=33, kv_replication=True).validate_heads(spec)


class TestAttention2D:
    def test_4x2_mesh_keeps_a2a_intra_node(self):
        rng = np.random.default_rng(10)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        q, k, v = random_qkv(rng, spec, 96)
        mesh = sp_mesh(8, a2a=4, nodes=2)
        run = execute_strategy(
            mesh, StrategyConfig("two_d", a2a_degree=4, p2p_degree=2), spec, q, k, v)
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10
        assert run.log.total_bytes(kind="a2a", link="inter") == 0
        assert run.log.total_bytes(kind="p2p", link="inter") > 0
        assert run.log.total_bytes(kind="p2p", link="intra") == 0

    def test_a2a_1_reduces_to_zigzag_ring_bitwise(self):
        rng = np.random.default_rng(11)
        q, k, v = random_qkv(rng, SPEC, 64)
        two_d = execute_strategy(
            sp_mesh(4, a2a=1), StrategyConfig("two_d", a2a_degree=1, p2p_degree=4),
            SPEC, q, k, v)
        zz = execute_strategy(
            sp_mesh(4), StrategyConfig("zigzag_ring", p2p_degree=4), SPEC, q, k, v)
        np.testing.assert_array_equal(two_d.gathered(), zz.gathered())
        assert two_d.log.count(kind="p2p") == zz.log.count(kind="p2p")

    def test_p2p_1_reduces_to_ulysses(self):
        rng = np.random.default_rng(12)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        q, k, v = random_qkv(rng, spec, 64)
        two_d = execute_strategy(
            sp_mesh(4, a2a=4), StrategyConfig("two_d", a2a_degree=4, p2p_degree=1),
            spec, q, k, v)
        uly = execute_strategy(
            sp_mesh(4, a2a=4), StrategyConfig("ulysses", a2a_degree=4), spec, q, k, v)
        assert np.max(np.abs(two_d.gathered() - uly.gathered())) < 1e-12
        assert two_d.log.total_bytes(kind="p2p") == 0

    def test_invalid_factorization_rejected(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8)
        with pytest.raises(StrategyConfigError, match="KV heads"):
            StrategyConfig("two_d", a2a_degree=4, p2p_degree=2).validate_heads(spec)


class TestCrossStrategyEquivalence:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_all_strategies_agree(self, seed):
        rng = np.random.default_rng(300 + seed)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        sp = 4
        length = int(rng.integers(2, 9)) * 2 * sp
        q, k, v = random_qkv(rng, spec, length)
        configs = [
            StrategyConfig("naive_ring", p2p_degree=sp),
            StrategyConfig("zigzag_ring", p2p_degree=sp),
            StrategyConfig("ulysses", a2a_degree=sp),
            StrategyConfig("two_d", a2a_degree=2, p2p_degree=2),
        ]
        outputs = []
        for cfg in configs:
            mesh = sp_mesh(sp, a2a=cfg.a2a_degree, nodes=2)
            outputs.append(execute_strategy(mesh, cfg, spec, q, k, v).gathered())
        want = reference_attention(q, k, v, spec)
        for out in outputs:
            assert np.max(np.abs(out - want)) < 1e-10
        for out in outputs[1:]:
            assert np.max(np.abs(out - outputs[0])) < 2e-10

    def test_communication_structure_by_strategy(self):
        rng = np.random.default_rng(400)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        q, k, v = random_qkv(rng, spec, 64)
        sp = 4
        kinds = {}
        for cfg in (
            StrategyConfig("naive_ring", p2p_degree=sp),
            StrategyConfig("zigzag_ring", p2p_degree=sp),
            StrategyConfig("ulysses", a2a_degree=sp),
            StrategyConfig("two_d", a2a_degree=2, p2p_degree=2),
        ):
            mesh = sp_mesh(sp, a2a=cfg.a2a_degree)
            kinds[cfg.kind] = execute_strategy(mesh, cfg, spec, q, k, v).log.kinds()
        assert kinds["naive_ring"] == {"p2p"}
        assert kinds["zigzag_ring"] == {"p2p"}
        assert kinds["ulysses"] == {"a2a"}
        assert kinds["two_d"] == {"p2p", "a2a"}

    def test_inter_node_bytes_2d_below_pure_ring(self):
        rng = np.random.default_rng(401)
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8)
        for length in (32, 64, 128):
            q, k, v = random_qkv(rng, spec, length)
            ring = execute_strategy(
                sp_mesh(8, a2a=1, nodes=2),
                StrategyConfig("zigzag_ring", p2p_degree=8), spec, q, k, v)
            hybrid = execute_strategy(
                sp_mesh(8, a2a=4, nodes=2),
                StrategyConfig("two_d", a2a_degree=4, p2p_degree=2), spec, q, k, v)
            assert hybrid.log.total_bytes(link="inter") < ring.log.total_bytes(link="inter")


class TestPlanForStrategy:
    def test_plan_kinds(self):
        assert plan_for_strategy(StrategyConfig("naive_ring", p2p_degree=4), 32).kind == "contiguous"
        assert plan_for_strategy(StrategyConfig("ulysses", a2a_degree=4), 32).kind == "contiguous"
        assert plan_for_strategy(StrategyConfig("zigzag_ring", p2p_degree=4), 32).kind == "zigzag"
        assert plan_for_strategy(StrategyConfig("two_d", a2a_degree=2, p2p_degree=2), 32).kind == "zigzag"

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("mesh,config,spec", [
        pytest.param(sp_mesh(4), StrategyConfig("zigzag_ring", p2p_degree=2), SPEC,
                     id="sp2-on-sp4"),
        # same sp degree, other factorisation: must not silently run the mesh's
        pytest.param(build_mesh(Topology(num_nodes=2, gpus_per_node=4), 2, 4),
                     StrategyConfig("two_d", a2a_degree=4, p2p_degree=2),
                     AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8),
                     id="two_d-4x2-on-2x4"),
        pytest.param(build_mesh(Topology(num_nodes=2, gpus_per_node=4), 2, 4),
                     StrategyConfig("zigzag_ring", p2p_degree=8), SPEC,
                     id="zigzag-8-on-2x4"),
    ])
    def test_mesh_plan_mismatch_rejected(self, mesh, config, spec):
        rng = np.random.default_rng(13)
        q, k, v = random_qkv(rng, spec, 32)
        with pytest.raises(ValueError, match="does not match mesh"):
            execute_strategy(mesh, config, spec, q, k, v)
