"""Sequence-parallel attention strategies, each checked against the oracle."""

import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spsim import perf
from spsim.fabric import Topology, build_mesh, run_program
from spsim.numeric import (
    AttentionSpec,
    blockwise_attention_step,
    finalize_attention,
    reference_attention,
    start_fold,
)
from spsim.sharding import contiguous_shard, zigzag_shard
from spsim.strategies import (
    StrategyConfig,
    StrategyConfigError,
    _kv_shards,
    attention_2d,
    effective_kv_heads,
    execute_strategy,
    packed_a2a_degree,
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
        assert {r.kind for r in run.log.records} == {"p2p"}
        assert len(run.log.records) == 4 * 3
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
        assert len(zz.log.records) == len(nr.log.records)

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
        assert {r.kind for r in run.log.records} == {"a2a"}

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
        per_pair_repl = run.log.total_bytes() / len(run.log.records)
        per_pair_plain = smaller.log.total_bytes() / len(smaller.log.records)
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
        assert (sum(r.kind == "p2p" for r in two_d.log.records)
                == sum(r.kind == "p2p" for r in zz.log.records))

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
            log = execute_strategy(mesh, cfg, spec, q, k, v).log
            kinds[cfg.kind] = {r.kind for r in log.records}
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


class TestA2APackingRule:
    def test_largest_degree_within_a_node_dividing_world_and_kv_heads(self):
        for name in perf.PROFILE_NAMES:
            spec = perf.model_profile(name).spec
            for nodes in range(1, 5):
                for gpus in range(1, 17):
                    topology = Topology(num_nodes=nodes, gpus_per_node=gpus)
                    world = topology.world_size
                    want = max(d for d in range(1, gpus + 1)
                               if world % d == 0 and spec.num_kv_heads % d == 0)
                    assert packed_a2a_degree(spec, topology) == want, (name, nodes, gpus)


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


class TestTracedNames:
    """perfbench's per-layer metrics wrap ``strategies.blockwise_attention_step``
    by name: every ring hop must call it exactly once."""

    @pytest.mark.parametrize("kind,a2a,p2p,hops", [
        ("zigzag_ring", 1, 8, 64),
        ("two_d", 2, 4, 32),
    ])
    def test_one_step_call_per_ring_hop(self, monkeypatch, kind, a2a, p2p, hops):
        import spsim.strategies as strategies

        calls = []
        original = strategies.blockwise_attention_step

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(strategies, "blockwise_attention_step", counted)
        q, k, v = random_qkv(np.random.default_rng(9), SPEC, 32)
        config = StrategyConfig(kind, a2a_degree=a2a, p2p_degree=p2p)
        execute_strategy(sp_mesh(a2a * p2p, a2a), config, SPEC, q, k, v)
        assert len(calls) == hops


def fold_as_it_arrives(plan, q_shards, k_shards, v_shards):
    """A ring program that folds each KV block as its hop delivers it.

    The strategies exchange every block first and then fold them in hop
    order; both orders run the same folds on the same values, so the
    outputs and the CommLog must agree bit for bit.
    """
    def program(handle):
        rank = handle.rank
        ring = handle.mesh.p2p_group_of(rank)
        size, me = len(ring), ring.index(rank)
        fold = start_fold(q_shards[rank], plan.rank_positions(rank))
        kv = (k_shards[rank], v_shards[rank])
        for hop in range(size):
            source = ring[(me - hop) % size]
            blockwise_attention_step(fold.state, fold.q, kv[0], kv[1], fold.q_positions,
                                     plan.rank_positions(source), out=fold)
            if hop < size - 1:
                kv = handle.send_recv(ring, ring[(me + 1) % size], ring[(me - 1) % size], kv)
        return finalize_attention(fold.state)

    return program


class TestExchangeThenFold:
    @pytest.mark.parametrize("kind", ["naive_ring", "zigzag_ring"])
    def test_equals_folding_each_hop_as_it_arrives(self, kind):
        mesh = sp_mesh(8, nodes=2)
        q, k, v = random_qkv(np.random.default_rng(17), SPEC, 64)
        run = execute_strategy(mesh, StrategyConfig(kind, p2p_degree=8), SPEC, q, k, v)
        outputs, log = run_program(mesh, fold_as_it_arrives(
            run.plan, run.plan.shard(q, 1), run.plan.shard(k, 1), run.plan.shard(v, 1)))
        for rank in range(8):
            np.testing.assert_array_equal(outputs[rank], run.outputs[rank])
        assert log.to_rows() == run.log.to_rows()


class TestNonFiniteInputs:
    """A bad block fails the run with the check's own error and leaves no
    fabric thread behind."""

    @pytest.mark.parametrize("kind,a2a,p2p", [("zigzag_ring", 1, 8), ("two_d", 2, 4)])
    @pytest.mark.parametrize("tensor,message", [
        ("k", "k_block contains non-finite entries"),
        ("q", "q_block contains non-finite entries"),
    ])
    def test_nan_shard_raises(self, kind, a2a, p2p, tensor, message):
        q, k, v = random_qkv(np.random.default_rng(19), SPEC, 64)
        {"q": q, "k": k}[tensor][1, 37, 3] = np.nan  # in one rank's shard
        config = StrategyConfig(kind, a2a_degree=a2a, p2p_degree=p2p)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match=message):
            execute_strategy(sp_mesh(8, a2a), config, SPEC, q, k, v)
        assert threading.active_count() == threads_before


# How an a2a group's KV head shards lie over the KV heads.
KV_LAYOUTS = [
    # 8 q / 2 kv at degree 4: each shard is 2 replicas of one KV head.
    pytest.param(AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=8), 4,
                 id="inside-one-head"),
    # 8 q / 4 kv at degree 2: each shard is 2 whole KV heads, nothing replicated.
    pytest.param(AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=8), 2,
                 id="whole-heads"),
    # 12 q / 4 kv at degree 6: shards of 2 replicas, every second one spans 2 KV heads.
    pytest.param(AttentionSpec(num_q_heads=12, num_kv_heads=4, head_dim=8), 6,
                 id="straddling"),
]


class TestKVReplicationLayouts:
    @pytest.mark.parametrize("spec,degree", KV_LAYOUTS)
    def test_shards_are_the_repeated_heads_shared_where_they_can_be(self, spec, degree):
        kv = np.random.default_rng(23).standard_normal((spec.num_kv_heads, 6, spec.head_dim))
        effective = effective_kv_heads(spec, degree, kv_replication=True)
        repeats = effective // spec.num_kv_heads
        width = effective // degree
        for j, shard in enumerate(_kv_shards(kv, degree, effective)):
            heads = range(j * width, (j + 1) * width)
            want = np.repeat(kv, repeats, axis=0)[j * width:(j + 1) * width]
            np.testing.assert_array_equal(shard, want)
            assert shard.nbytes == width * kv[0].nbytes  # logged at full size
            one_head = len({h // repeats for h in heads}) == 1
            assert np.shares_memory(shard, kv) == (repeats == 1 or one_head)

    @pytest.mark.parametrize("kind", ["ulysses", "two_d"])
    @pytest.mark.parametrize("spec,degree", KV_LAYOUTS)
    def test_matches_oracle_and_analytic_messages(self, monkeypatch, spec, degree, kind):
        # A rank whose shard is replicas of one KV head holds that head once:
        # its ring pass gets read-only stride-0 views of it.
        import spsim.strategies as strategies

        held = {}
        original = strategies._ring_pass

        def capture(handle, ring_group, q, k, v, *rest):
            held[handle.rank] = (k, v)
            return original(handle, ring_group, q, k, v, *rest)

        monkeypatch.setattr(strategies, "_ring_pass", capture)
        p2p = 1 if kind == "ulysses" else 2
        mesh = sp_mesh(degree * p2p, a2a=degree, nodes=p2p)
        config = StrategyConfig(kind, a2a_degree=degree, p2p_degree=p2p, kv_replication=True)
        q, k, v = random_qkv(np.random.default_rng(29), spec, 48)
        run = execute_strategy(mesh, config, spec, q, k, v)
        effective = effective_kv_heads(spec, degree, kv_replication=True)
        repeats, width = effective // spec.num_kv_heads, effective // degree
        assert sorted(held) == list(range(degree * p2p))
        for rank, kv in held.items():
            j = mesh.a2a_group_of(rank).index(rank)
            one_head = width > 1 and len({h // repeats for h in range(j * width,
                                                                      (j + 1) * width)}) == 1
            for array in kv:
                assert array.shape[0] == width
                assert (array.strides[0] == 0) == one_head
                assert array.flags.writeable != one_head
        want = reference_attention(q, k, v, spec)
        assert np.max(np.abs(run.gathered() - want)) < 1e-10
        executed = Counter((r.src, r.dst, r.nbytes, r.kind) for r in run.log.records)
        assert executed == Counter(perf.strategy_messages(config, spec, 48, mesh))


class TestMemoryBudget:
    """An executed a2a run with replicated KV holds, per rank, no more than
    its input shards, one q/k/v segment, one accumulator and its outbound
    shards.  Ranks run one at a time, so one fold step's score block comes
    on top once."""

    @pytest.mark.parametrize("kind,a2a,p2p", [("ulysses", 8, 1), ("two_d", 4, 2)])
    def test_traced_peak_within_the_per_rank_budget(self, kind, a2a, p2p):
        spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=128)
        length, world, item = 128, a2a * p2p, 8  # float64 bytes
        config = StrategyConfig(kind, a2a_degree=a2a, p2p_degree=p2p, kv_replication=True)
        mesh = sp_mesh(world, a2a=a2a, nodes=p2p)
        q, k, v = random_qkv(np.random.default_rng(31), spec, length)

        rows = length // world  # a rank's sequence rows
        group_rows = rows * a2a  # rows of one a2a segment
        q_heads = spec.num_q_heads // a2a
        kv_heads = effective_kv_heads(spec, a2a, kv_replication=True) // a2a
        d = spec.head_dim
        inputs = (spec.num_q_heads + 2 * spec.num_kv_heads) * rows * d * item
        segment = (q_heads + 2 * kv_heads) * group_rows * d * item
        accumulator = q_heads * group_rows * (d + 2) * item  # output, max, denominator
        outbound = q_heads * group_rows * d * item
        scores = q_heads * group_rows * group_rows * item
        budget = world * (inputs + segment + accumulator + outbound) + scores

        execute_strategy(mesh, config, spec, q, k, v)  # first-call allocations
        tracemalloc.start()
        try:
            execute_strategy(mesh, config, spec, q, k, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, f"peak {peak} B over the {budget} B budget"
