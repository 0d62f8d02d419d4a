"""Fabric runtime: mesh construction, collectives, byte accounting, cost model."""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spsim.fabric import (
    CollectiveMismatchError,
    DeadlockError,
    DeviceMesh,
    FabricError,
    FaultInjection,
    Topology,
    build_mesh,
    comm_time,
    payload_nbytes,
    rank_program,
    run_program,
)
from spsim.inference import StubModel, sp_decode_step, sp_prefill
from spsim.numeric import AttentionSpec
from spsim.sharding import SampleSpec, build_sequences, encode_batch, globalize_and_pad
from spsim.strategies import StrategyConfig, execute_strategy


def two_node_topology(gpus_per_node=4):
    return Topology(num_nodes=2, gpus_per_node=gpus_per_node)


class TestTopology:
    def test_world_and_node_mapping(self):
        topo = two_node_topology()
        assert topo.world_size == 8
        assert topo.node_of(3) == 0
        assert topo.node_of(4) == 1
        assert topo.link_class(0, 3) == "intra"
        assert topo.link_class(3, 4) == "inter"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Topology(num_nodes=0)
        with pytest.raises(ValueError):
            Topology(intra_node_bandwidth=0.0)


class TestCommTime:
    def test_zero_bytes_is_latency_only(self):
        topo = two_node_topology()
        assert comm_time(0, "intra", topo) == topo.intra_node_latency

    def test_intra_node_transfer(self):
        topo = two_node_topology()
        t = comm_time(900e6, "intra", topo)
        assert t == pytest.approx(1e-3 + topo.intra_node_latency)

    def test_inter_node_is_18x_slower(self):
        # 900 GB/s vs 50 GB/s: the transfer term differs by exactly 18x.
        topo = two_node_topology()
        intra = comm_time(900e6, "intra", topo) - topo.intra_node_latency
        inter = comm_time(900e6, "inter", topo) - topo.inter_node_latency
        assert inter / intra == pytest.approx(18.0)


class TestBuildMesh:
    def test_two_node_4x2_mesh_packs_a2a_intra_node(self):
        # 2 nodes x 4 gpus, a2a=4, p2p=2: a2a groups packed intra-node.
        mesh = build_mesh(two_node_topology(), a2a_degree=4, p2p_degree=2)
        assert mesh.a2a_group_of(0) == (0, 1, 2, 3)
        assert mesh.a2a_group_of(5) == (4, 5, 6, 7)
        assert mesh.p2p_group_of(1) == (1, 5)
        topo = mesh.topology
        for rank in range(8):
            nodes = {topo.node_of(r) for r in mesh.a2a_group_of(rank)}
            assert len(nodes) == 1

    def test_singleton_world(self):
        mesh = build_mesh(Topology(), a2a_degree=1, p2p_degree=1)
        assert mesh.world_size == 1
        assert tuple(range(mesh.world_size)) == (0,)

    def test_rejects_non_dividing_degree(self):
        with pytest.raises(ValueError, match="divide"):
            build_mesh(two_node_topology(), a2a_degree=3, p2p_degree=1)

    def test_derives_p2p_degree_from_the_world(self):
        mesh = build_mesh(Topology(num_nodes=2, gpus_per_node=6), 4)
        assert (mesh.a2a_degree, mesh.p2p_degree) == (4, 3)
        assert mesh.p2p_group_of(5) == (1, 5, 9)
        assert build_mesh(two_node_topology()).p2p_degree == 8

    @pytest.mark.parametrize("a2a", [0, 5, 24])
    def test_mesh_type_refuses_a2a_not_dividing_the_world(self, a2a):
        with pytest.raises(ValueError, match="does not divide world size 12"):
            DeviceMesh(Topology(num_nodes=2, gpus_per_node=6), a2a)

    @pytest.mark.parametrize("a2a,p2p", [(1, 4), (2, 2), (4, 4), (2, 12)])
    def test_rejects_degrees_that_do_not_factor_the_world(self, a2a, p2p):
        # 2 x 6 GPUs: a product below the world of 12 and one above it.
        with pytest.raises(ValueError, match="does not match world size 12"):
            build_mesh(Topology(num_nodes=2, gpus_per_node=6), a2a, p2p)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), nodes=st.integers(1, 6), gpus=st.integers(1, 12))
    def test_groups_partition_the_world(self, data, nodes, gpus):
        world = nodes * gpus
        a2a = data.draw(st.sampled_from([d for d in range(1, world + 1) if world % d == 0]))
        p2p = world // a2a
        mesh = build_mesh(Topology(num_nodes=nodes, gpus_per_node=gpus), a2a, p2p)
        for rank in range(world):
            a2a_group = mesh.a2a_group_of(rank)
            p2p_group = mesh.p2p_group_of(rank)
            assert set(a2a_group) & set(p2p_group) == {rank}
            assert a2a_group == tuple(range(a2a_group[0], a2a_group[0] + a2a))
            assert p2p_group == tuple(range(p2p_group[0], p2p_group[0] + world, a2a))
            # Reference: the rank's a2a and p2p indices within the world.
            a2a_index, p2p_index = rank % a2a, rank // a2a
            base = p2p_index * a2a
            assert a2a_group == tuple(range(base, base + a2a))
            assert p2p_group == tuple(a2a_index + i * a2a for i in range(p2p))
            # Every member of a group shares its one tuple.
            assert all(mesh.a2a_group_of(m) is a2a_group for m in a2a_group)
            assert all(mesh.p2p_group_of(m) is p2p_group for m in p2p_group)


class TestRunProgram:
    def test_ring_rotation_delivers_left_neighbor_value(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=1, p2p_degree=8)
        world = list(range(8))

        def program(h):
            dst = (h.rank + 1) % 8
            src = (h.rank - 1) % 8
            return (yield h.send_recv(world, dst, src, h.rank))

        outputs, log = run_program(mesh, rank_program(program))
        assert outputs == [(r - 1) % 8 for r in range(8)]
        assert sum(r.kind == "p2p" for r in log.records) == 8

    def test_all_to_all_transpose(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)

        def program(h):
            return (yield h.all_to_all(group, [h.rank * 10 + j for j in range(4)]))

        outputs, _ = run_program(mesh, rank_program(program))
        for j in range(4):
            assert outputs[j] == [i * 10 + j for i in range(4)]

    def test_all_to_all_group_of_one_is_identity(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=1))

        def program(h):
            return (yield h.all_to_all((0,), [np.arange(3.0)]))

        outputs, log = run_program(mesh, rank_program(program))
        np.testing.assert_array_equal(outputs[0][0], np.arange(3.0))
        assert len(log) == 0

    def test_all_to_all_shard_count_mismatch(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            return (yield h.all_to_all((0, 1), [h.rank]))  # needs 2 shards

        with pytest.raises(FabricError, match="shard"):
            run_program(mesh, rank_program(program))

    def test_all_to_all_byte_accounting_self_shard_free(self):
        # 4 ranks x 1 KiB shards: 12 off-rank messages, 12 KiB total.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)
        shard = np.zeros(128)  # 1 KiB of float64

        def program(h):
            return (yield h.all_to_all(group, [shard] * 4))

        _, log = run_program(mesh, rank_program(program))
        assert sum(r.kind == "a2a" for r in log.records) == 12
        assert log.total_bytes(kind="a2a") == 12 * 1024
        assert log.total_bytes(link="inter") == 0

    def test_all_gather_and_broadcast(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=3))
        group = (0, 1, 2)

        def program(h):
            values = yield h.all_gather(group, h.rank * 10)
            token = yield h.broadcast(group, root=2, value=h.rank if h.rank == 2 else None)
            return values, token

        outputs, log = run_program(mesh, rank_program(program))
        assert all(out == ([0, 10, 20], 2) for out in outputs)
        assert sum(r.kind == "all_gather" for r in log.records) == 6
        assert sum(r.kind == "broadcast" for r in log.records) == 2

    def test_rooted_all_gather_reaches_only_the_root(self):
        mesh = build_mesh(two_node_topology(2), 1, 4)
        group = (3, 0, 2, 1)

        def program(h):
            return (yield h.all_gather(group, np.full(h.rank + 1, float(h.rank)), root=2))

        outputs, log = run_program(mesh, rank_program(program))
        assert [len(out) for out in outputs] == [0, 0, 4, 0]
        for member, value in zip(group, outputs[2]):
            np.testing.assert_array_equal(value, np.full(member + 1, float(member)))
        assert [(r.kind, r.src, r.dst, r.nbytes, r.link) for r in log.records] == [
            ("gather", 3, 2, 32, "intra"), ("gather", 0, 2, 8, "inter"),
            ("gather", 1, 2, 16, "inter")]

    @pytest.mark.parametrize("kind", ["broadcast", "gather"])
    def test_rooted_collective_roots_must_agree(self, kind):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=3))
        group = (0, 1, 2)

        def program(h):
            root = 0 if h.rank < 2 else 1
            if kind == "broadcast":
                return (yield h.broadcast(group, root, h.rank))
            return (yield h.all_gather(group, h.rank, root=root))

        with pytest.raises(CollectiveMismatchError, match=rf"{kind} roots disagree: \[0, 1\]"):
            run_program(mesh, rank_program(program))

    @pytest.mark.parametrize("kind", ["broadcast", "gather"])
    def test_rooted_collective_root_must_be_in_group(self, kind):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=3))

        def program(h):
            if kind == "broadcast":
                return (yield h.broadcast((0, 1), 2, h.rank))
            return (yield h.all_gather((0, 1), h.rank, root=2))

        with pytest.raises(FabricError, match=rf"{kind} root 2 not in group \(0, 1\)") as err:
            run_program(mesh, rank_program(program))
        assert not isinstance(err.value, CollectiveMismatchError)

    def test_collective_mismatch_names_rank_and_step(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)

        def program(h):
            for _ in range(3):
                yield h.all_gather(group, h.rank)  # steps 0..2
            if h.rank == 2:
                return (yield h.broadcast(group, root=0))  # mismatched kind at step 3
            return (yield h.all_gather(group, h.rank))

        with pytest.raises(CollectiveMismatchError, match="step 3") as err:
            run_program(mesh, rank_program(program))
        assert "rank 2" in str(err.value)

    def test_finished_rank_while_others_wait_is_deadlock(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 0:
                return None
            return (yield h.all_gather((0, 1), h.rank))

        with pytest.raises(DeadlockError):
            run_program(mesh, rank_program(program))

    def test_rank_finishing_after_peer_blocked_is_deadlock(self):
        # rank 0 blocks first, then rank 1 runs to completion: the miss is
        # only discoverable at the no-progress check.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 0:
                return (yield h.all_gather((0, 1), h.rank))
            return None

        with pytest.raises(DeadlockError, match="finished"):
            run_program(mesh, rank_program(program))

    def test_group_reused_after_a_partial_match(self):
        # A singleton collective delays a rank by one sweep.  Rank 0 is late
        # for the first collective over (1, 0), whose match so stops after
        # rank 1; rank 1 is late for the second, which must start over.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))
        group = (1, 0)

        def program(h):
            if h.rank == 0:
                yield h.all_gather((0,), None)
            first = yield h.all_gather(group, (h.rank, 0))
            if h.rank == 1:
                yield h.all_gather((1,), None)
            return first, (yield h.all_gather(group, (h.rank, 1)))

        outputs, log = run_program(mesh, rank_program(program))
        assert outputs == [([(1, 0), (0, 0)], [(1, 1), (0, 1)])] * 2
        assert len(log) == 4

    def test_member_waiting_on_another_group_has_not_arrived(self):
        # Rank 2 reaches (1, 2) while rank 1 still waits on (1, 3).  That
        # group resolves next and then (1, 2) does: the program is matched.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))

        def program(h):
            out = []
            if h.rank in (1, 3):
                out.append((yield h.all_gather((1, 3), h.rank)))
            if h.rank in (1, 2):
                out.append((yield h.all_gather((1, 2), h.rank)))
            return out

        outputs, log = run_program(mesh, rank_program(program))
        assert outputs == [[], [[1, 3], [1, 2]], [[1, 2]], [[1, 3]]]
        assert len(log) == 4

    def test_cyclic_group_wait_is_a_mismatch(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=3))
        groups = [(0, 1), (1, 2), (0, 2)]

        def program(h):
            return (yield h.all_gather(groups[h.rank], h.rank))

        with pytest.raises(CollectiveMismatchError,
                           match=r"group mismatch at step 0: rank 1 joined \(1, 2\) "
                                 r"while peers use \(0, 1\)"):
            run_program(mesh, rank_program(program))

    def test_p2p_requires_permutation(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            return (yield h.send_recv((0, 1), dst=0, src=1 - h.rank, payload=h.rank))

        with pytest.raises(CollectiveMismatchError, match="permutation"):
            run_program(mesh, rank_program(program))

    def test_rerun_produces_identical_comm_log(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=2, p2p_degree=4)

        def program(h):
            a2a = h.mesh.a2a_group_of(h.rank)
            payload = np.full(16, float(h.rank))
            shards = [payload] * len(a2a)
            received = yield h.all_to_all(a2a, shards)
            ring = h.mesh.p2p_group_of(h.rank)
            me = ring.index(h.rank)
            out = yield h.send_recv(ring, ring[(me + 1) % len(ring)],
                                    ring[(me - 1) % len(ring)], received[0])
            return float(np.sum(out))

        out1, log1 = run_program(mesh, rank_program(program))
        out2, log2 = run_program(mesh, rank_program(program))
        assert out1 == out2
        assert log1.to_rows() == log2.to_rows()

    def test_byte_conservation_per_link_class(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=4, p2p_degree=2)

        def program(h):
            group = h.mesh.a2a_group_of(h.rank)
            yield h.all_to_all(group, [np.ones(h.rank + 1) for _ in group])
            ring = h.mesh.p2p_group_of(h.rank)
            me = ring.index(h.rank)
            yield h.send_recv(ring, ring[(me + 1) % 2], ring[(me - 1) % 2], np.ones(4))
            return None

        _, log = run_program(mesh, rank_program(program))
        for link in ("intra", "inter"):
            sent = {}
            received = {}
            for r in log.records:
                if r.link != link:
                    continue
                sent[r.src] = sent.get(r.src, 0) + r.nbytes
                received[r.dst] = received.get(r.dst, 0) + r.nbytes
            assert sum(sent.values()) == sum(received.values())

    def test_one_rank_runs_at_a_time_under_frequent_thread_switches(self):
        # Each hop does an unlocked read-modify-write of a shared counter and
        # yields the interpreter in between: a second running rank would lose
        # an update.
        world, hops = 8, 40
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=world))
        group = tuple(range(world))
        counter = [0]

        def program(h):
            value = h.rank
            for _ in range(hops):
                seen = counter[0]
                time.sleep(0)
                counter[0] = seen + 1
                value = yield h.send_recv(group, (h.rank + 1) % world, (h.rank - 1) % world, value)
            return value

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outputs, log = _run_bounded(mesh, program)
        finally:
            sys.setswitchinterval(interval)
        assert counter[0] == world * hops
        assert outputs == [(r - hops) % world for r in range(world)]
        assert len(log) == world * hops

    def test_program_exception_propagates(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 1:
                raise RuntimeError("boom on rank 1")
            return h.rank
            yield  # unreachable: makes the program a generator

        with pytest.raises(RuntimeError, match="boom on rank 1"):
            run_program(mesh, rank_program(program))

    @pytest.mark.parametrize("failure,error,message", [
        ("exception", RuntimeError, "boom on rank 3"),
        ("mismatch", CollectiveMismatchError, "collective mismatch"),
        ("deadlock", DeadlockError, "finished while"),
    ])
    def test_failed_run_closes_every_started_generator(self, failure, error, message):
        # Ranks 0-2 wait on an all_gather that rank 3 raises out of, answers
        # with a broadcast, or leaves by returning.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)
        closed = []

        def program(h):
            try:
                if h.rank < 3:
                    return (yield h.all_gather(group, h.rank))
                if failure == "exception":
                    raise RuntimeError("boom on rank 3")
                if failure == "mismatch":
                    return (yield h.broadcast(group, root=0))
                return None
            finally:
                closed.append(h.rank)

        with pytest.raises(error, match=message):
            run_program(mesh, rank_program(program))
        assert sorted(closed) == [0, 1, 2, 3]

    def test_a_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"a fabric run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        mesh = build_mesh(two_node_topology(), 2, 4)
        caller = threading.get_ident()
        threads = []

        def program(h):
            threads.append(threading.get_ident())
            ring = h.mesh.p2p_group_of(h.rank)
            me = ring.index(h.rank)
            value = yield h.send_recv(ring, ring[(me + 1) % 4], ring[(me - 1) % 4], h.rank)
            threads.append(threading.get_ident())
            return value

        outputs, _ = run_program(mesh, rank_program(program))
        assert outputs == [(r - 2) % 8 for r in range(8)]
        assert threads == [caller] * 16

    def test_a_step_must_return_a_collective_or_the_result(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))
        with pytest.raises(FabricError, match="rank 0: a program step returned int"):
            run_program(mesh, lambda h: h.rank)  # not built with rank_program
        with pytest.raises(FabricError, match="rank 0: a program step returned str"):
            run_program(mesh, rank_program(lambda h: (yield "not a collective")))

    def test_fault_injection_corrupts_one_message(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))
        group = (0, 1)

        def program(h):
            return (yield h.send_recv(group, 1 - h.rank, 1 - h.rank, np.ones(4)))

        clean, _ = run_program(mesh, rank_program(program))
        dirty, log = run_program(mesh, rank_program(program), fault=FaultInjection(message_index=0))
        assert np.array_equal(clean[1], np.ones(4))
        assert np.array_equal(dirty[1], -np.ones(4))
        assert len(log.tampered) == 1
        src, dst, step, index = log.tampered[0]
        assert (src, dst, index) == (0, 1, 0)


# sha256 of the CommLog rows and tampered lists of _delivery_order_runs():
# it moves with any change to the order in which the fabric delivers.
DELIVERY_ORDER_SHA256 = "3771300247d0f6f924ae6954a1a639268cd691d8bcbb5c97a4fa7dd1a9cae961"


def _delivery_order_runs():
    """CommLogs of fixed runs: each kind at world 8 on 2x4, a zigzag ring at
    world 64, a two-node prefill plus 3 decode steps, a fault-injected run."""
    spec = AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=4, num_layers=2)
    rng = np.random.default_rng(7)

    def strategy_log(topology, config, length, fault=None):
        q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
        k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        mesh = build_mesh(topology, config.a2a_degree, config.p2p_degree)
        return execute_strategy(mesh, config, spec, q, k, v, fault=fault).log

    two_by_four = two_node_topology()
    logs = [strategy_log(two_by_four, config, 32) for config in (
        StrategyConfig("naive_ring", 1, 8),
        StrategyConfig("zigzag_ring", 1, 8),
        StrategyConfig("ulysses", 8, 1, kv_replication=True),
        StrategyConfig("two_d", 2, 4),
    )]
    logs.append(strategy_log(Topology(num_nodes=8, gpus_per_node=8),
                             StrategyConfig("zigzag_ring", 1, 64), 128))

    mesh = build_mesh(two_by_four, 1, 8)
    batch = build_sequences([SampleSpec(0, 1, 21), SampleSpec(1, 2, 9)])
    pieces = encode_batch(batch, tokens_per_frame=4, hidden=spec.hidden_size)
    encoded, plan = globalize_and_pad(pieces, mesh)
    state = sp_prefill(mesh, encoded, plan, StubModel(spec))
    for _ in range(3):
        if not state.finished:
            _, state = sp_decode_step(mesh, state)
    logs.append(state.comm_log)

    logs.append(strategy_log(two_by_four, StrategyConfig("two_d", 4, 2, kv_replication=True),
                             32, fault=FaultInjection(message_index=37)))
    return logs


class TestDeliveryOrder:
    def test_comm_logs_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for log in _delivery_order_runs():
            digest.update(repr((log.to_rows(), log.tampered)).encode())
        assert digest.hexdigest() == DELIVERY_ORDER_SHA256


KINDS = ("p2p", "a2a", "all_gather", "gather", "broadcast")


@st.composite
def lock_step_programs(draw):
    """(world, steps): at each step the world is split into groups, and every
    member of a group issues that group's (kind, group, arg) collective.
    ``arg`` is the p2p shift or the index of the gather or broadcast root."""
    world = draw(st.integers(1, 8))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(range(world)))
        cuts = sorted(draw(st.sets(st.integers(1, world - 1)))) if world > 1 else []
        groups = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [world])]
        steps.append([(draw(st.sampled_from(KINDS)), group,
                       draw(st.integers(0, len(group) - 1))) for group in groups])
    return world, steps


def _op_of(steps, step, rank):
    return next(op for op in steps[step] if rank in op[1])


def _issue(h, kind, group, arg, step, src=None):
    if kind == "p2p":
        i = group.index(h.rank)
        if src is None:
            src = group[(i - arg) % len(group)]
        return h.send_recv(group, group[(i + arg) % len(group)], src, (h.rank, step))
    if kind == "a2a":
        return h.all_to_all(group, [(h.rank, step, m) for m in group])
    if kind == "all_gather":
        return h.all_gather(group, (h.rank, step))
    root = group[arg]
    if kind == "gather":
        return h.all_gather(group, (h.rank, step), root=root)
    return h.broadcast(group, root, (root, step) if h.rank == root else None)


def _expected(kind, group, arg, step, rank):
    if kind == "p2p":
        return (group[(group.index(rank) - arg) % len(group)], step)
    if kind == "a2a":
        return [(m, step, rank) for m in group]
    if kind == "all_gather":
        return [(m, step) for m in group]
    if kind == "gather":
        return [(m, step) for m in group] if rank == group[arg] else []
    return (group[arg], step)


def _message_count(kind, group, arg):
    size = len(group)
    if kind == "p2p":
        return size if arg else 0
    return size - 1 if kind in ("gather", "broadcast") else size * (size - 1)


def _run_bounded(mesh, program, timeout=10.0):
    """run_program on a helper thread; a run still going after ``timeout``
    seconds fails the test instead of hanging it."""
    box = {}

    def target():
        try:
            box["result"] = run_program(mesh, rank_program(program))
        except BaseException as exc:
            box["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "run_program did not return"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestFabricProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(program=lock_step_programs())
    def test_matched_programs_complete(self, program):
        world, steps = program

        closed = []

        def body(h):
            try:
                received = []
                for s in range(len(steps)):
                    received.append((yield _issue(h, *_op_of(steps, s, h.rank), s)))
                return received
            finally:
                closed.append(h.rank)

        outputs, log = _run_bounded(build_mesh(Topology(num_nodes=1, gpus_per_node=world)),
                                    body)
        assert sorted(closed) == list(range(world))
        for rank in range(world):
            assert outputs[rank] == [_expected(*_op_of(steps, s, rank), s, rank)
                                     for s in range(len(steps))]
        assert len(log) == sum(_message_count(*op) for ops in steps for op in ops)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(program=lock_step_programs(), data=st.data())
    def test_injected_fault_raises(self, program, data):
        world, steps = program
        sites = [(s, group) for s, ops in enumerate(steps)
                 for _kind, group, _arg in ops if len(group) > 1]
        assume(sites)  # a fault needs a group with two members
        fault = data.draw(st.sampled_from(("kind", "group", "finish", "source")))
        step, group = data.draw(st.sampled_from(sites))
        victim = data.draw(st.sampled_from(group))
        if fault == "source":  # the victim's group rotates with shift 1
            steps = list(steps)
            steps[step] = [("p2p", group, 1) if op[1] == group else op for op in steps[step]]

        started, closed = [], []

        def body(h):
            started.append(h.rank)
            try:
                received = []
                for s in range(len(steps)):
                    kind, group, arg = _op_of(steps, s, h.rank)
                    src = None
                    if (s, h.rank) == (step, victim):
                        if fault == "finish":
                            return received
                        if fault == "kind":
                            kind = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
                        elif fault == "group":
                            group = group[::-1]
                        else:  # the rank two back (itself in a pair), not the sender
                            src = group[(group.index(h.rank) - 2) % len(group)]
                    received.append((yield _issue(h, kind, group, arg, s, src)))
                return received
            finally:
                closed.append(h.rank)

        with pytest.raises(FabricError):
            _run_bounded(build_mesh(Topology(num_nodes=1, gpus_per_node=world)), body)
        # The failed run closed every rank generator that had started.
        assert sorted(closed) == sorted(started)


class TestPayloadBytes:
    def test_sizes(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(7) == 8
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes((np.zeros(4), np.zeros(2), 1)) == 56

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            payload_nbytes({"a": 1})

    def test_every_edge_logs_the_size_of_its_own_payload(self):
        mesh = build_mesh(two_node_topology(2), 1, 4)

        def payload(rank):
            return (np.zeros((rank + 1, 3)), rank, [np.ones(2), None])

        _, log = run_program(mesh, rank_program(
            lambda h: (yield h.all_gather((0, 1, 2, 3), payload(h.rank)))))
        assert len(log) == 12
        for record in log.records:
            assert record.nbytes == payload_nbytes(payload(record.src))
        # An all_to_all sends a different payload on each edge.
        _, log = run_program(mesh, rank_program(lambda h: (yield h.all_to_all(
            (0, 1, 2, 3), [np.zeros(h.rank + dst) for dst in range(4)]))))
        assert [(r.src, r.dst, r.nbytes) for r in log.records] == [
            (src, dst, 8 * (src + dst)) for src in range(4) for dst in range(4) if src != dst]

    def test_unsizable_payload_raises_type_error_once_it_leaves_its_rank(self):
        mesh = build_mesh(two_node_topology(1), 1, 2)
        with pytest.raises(TypeError, match="cannot size payload of type <class 'object'>"):
            run_program(mesh, rank_program(lambda h: (yield h.all_gather((0, 1), object()))))
        # A value kept on its own rank is never sized.
        outputs, log = run_program(mesh, rank_program(
            lambda h: (yield h.all_gather((h.rank,), object()))))
        assert len(log) == 0 and all(len(o) == 1 for o in outputs)
