"""Fabric runtime: mesh construction, collectives, byte accounting, cost model."""

import numpy as np
import pytest

from spsim.fabric import (
    CollectiveMismatchError,
    DeadlockError,
    FabricError,
    FaultInjection,
    MeshPlacementWarning,
    Topology,
    build_mesh,
    comm_time,
    payload_nbytes,
    run_program,
)


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
        assert mesh.sp_group_of(0) == (0,)

    def test_rejects_non_dividing_degree(self):
        with pytest.raises(ValueError, match="divide"):
            build_mesh(two_node_topology(), a2a_degree=3, p2p_degree=1)

    def test_warns_when_a2a_crosses_nodes(self):
        with pytest.warns(MeshPlacementWarning):
            build_mesh(two_node_topology(), a2a_degree=8, p2p_degree=1)


class TestRunProgram:
    def test_ring_rotation_delivers_left_neighbor_value(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=1, p2p_degree=8)
        world = list(range(8))

        def program(h):
            dst = (h.rank + 1) % 8
            src = (h.rank - 1) % 8
            return h.send_recv(world, dst, src, h.rank)

        outputs, log = run_program(mesh, program)
        assert outputs == [(r - 1) % 8 for r in range(8)]
        assert log.count(kind="p2p") == 8

    def test_all_to_all_transpose(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)

        def program(h):
            return h.all_to_all(group, [h.rank * 10 + j for j in range(4)])

        outputs, _ = run_program(mesh, program)
        for j in range(4):
            assert outputs[j] == [i * 10 + j for i in range(4)]

    def test_all_to_all_group_of_one_is_identity(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=1))

        def program(h):
            return h.all_to_all((0,), [np.arange(3.0)])

        outputs, log = run_program(mesh, program)
        np.testing.assert_array_equal(outputs[0][0], np.arange(3.0))
        assert len(log) == 0

    def test_all_to_all_shard_count_mismatch(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            return h.all_to_all((0, 1), [h.rank])  # needs 2 shards

        with pytest.raises(FabricError, match="shard"):
            run_program(mesh, program)

    def test_all_to_all_byte_accounting_self_shard_free(self):
        # 4 ranks x 1 KiB shards: 12 off-rank messages, 12 KiB total.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)
        shard = np.zeros(128)  # 1 KiB of float64

        def program(h):
            return h.all_to_all(group, [shard] * 4)

        _, log = run_program(mesh, program)
        assert log.count(kind="a2a") == 12
        assert log.total_bytes(kind="a2a") == 12 * 1024
        assert log.total_bytes(link="inter") == 0

    def test_all_gather_and_broadcast(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=3))
        group = (0, 1, 2)

        def program(h):
            values = h.all_gather(group, h.rank * 10)
            token = h.broadcast(group, root=2, value=h.rank if h.rank == 2 else None)
            return values, token

        outputs, log = run_program(mesh, program)
        assert all(out == ([0, 10, 20], 2) for out in outputs)
        assert log.count(kind="all_gather") == 6
        assert log.count(kind="broadcast") == 2

    def test_collective_mismatch_names_rank_and_step(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4))
        group = (0, 1, 2, 3)

        def program(h):
            for _ in range(3):
                h.all_gather(group, h.rank)  # steps 0..2
            if h.rank == 2:
                return h.broadcast(group, root=0)  # mismatched kind at step 3
            return h.all_gather(group, h.rank)

        with pytest.raises(CollectiveMismatchError, match="step 3") as err:
            run_program(mesh, program)
        assert "rank 2" in str(err.value)

    def test_finished_rank_while_others_wait_is_deadlock(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 0:
                return None
            return h.all_gather((0, 1), h.rank)

        with pytest.raises(DeadlockError):
            run_program(mesh, program)

    def test_rank_finishing_after_peer_blocked_is_deadlock(self):
        # rank 0 blocks first, then rank 1 runs to completion: the miss is
        # only discoverable at the no-progress check.
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 0:
                return h.all_gather((0, 1), h.rank)
            return None

        with pytest.raises(DeadlockError, match="finished"):
            run_program(mesh, program)

    def test_p2p_requires_permutation(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            return h.send_recv((0, 1), dst=0, src=1 - h.rank, payload=h.rank)

        with pytest.raises(CollectiveMismatchError, match="permutation"):
            run_program(mesh, program)

    def test_rerun_produces_identical_comm_log(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=2, p2p_degree=4)

        def program(h):
            a2a = h.mesh.a2a_group_of(h.rank)
            payload = np.full(16, float(h.rank))
            shards = [payload] * len(a2a)
            received = h.all_to_all(a2a, shards)
            ring = h.mesh.p2p_group_of(h.rank)
            me = ring.index(h.rank)
            out = h.send_recv(ring, ring[(me + 1) % len(ring)],
                              ring[(me - 1) % len(ring)], received[0])
            return float(np.sum(out))

        out1, log1 = run_program(mesh, program)
        out2, log2 = run_program(mesh, program)
        assert out1 == out2
        assert log1.to_rows() == log2.to_rows()

    def test_byte_conservation_per_link_class(self):
        mesh = build_mesh(two_node_topology(), a2a_degree=4, p2p_degree=2)

        def program(h):
            group = h.mesh.a2a_group_of(h.rank)
            h.all_to_all(group, [np.ones(h.rank + 1) for _ in group])
            ring = h.mesh.p2p_group_of(h.rank)
            me = ring.index(h.rank)
            h.send_recv(ring, ring[(me + 1) % 2], ring[(me - 1) % 2], np.ones(4))
            return None

        _, log = run_program(mesh, program)
        for link in ("intra", "inter"):
            sent = {}
            received = {}
            for r in log.records:
                if r.link != link:
                    continue
                sent[r.src] = sent.get(r.src, 0) + r.nbytes
                received[r.dst] = received.get(r.dst, 0) + r.nbytes
            assert sum(sent.values()) == sum(received.values())

    def test_program_exception_propagates(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))

        def program(h):
            if h.rank == 1:
                raise RuntimeError("boom on rank 1")
            return h.rank

        with pytest.raises(RuntimeError, match="boom on rank 1"):
            run_program(mesh, program)

    def test_fault_injection_corrupts_one_message(self):
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=2))
        group = (0, 1)

        def program(h):
            return h.send_recv(group, 1 - h.rank, 1 - h.rank, np.ones(4))

        clean, _ = run_program(mesh, program)
        dirty, log = run_program(mesh, program, fault=FaultInjection(message_index=0))
        assert np.array_equal(clean[1], np.ones(4))
        assert np.array_equal(dirty[1], -np.ones(4))
        assert len(log.tampered) == 1
        src, dst, step, index = log.tampered[0]
        assert (src, dst, index) == (0, 1, 0)


class TestPayloadBytes:
    def test_sizes(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(7) == 8
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes((np.zeros(4), np.zeros(2), 1)) == 56

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            payload_nbytes({"a": 1})
