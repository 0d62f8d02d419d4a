"""Deterministic simulated multi-rank runtime.

Logical ranks run ordinary Python callables ("rank programs") on worker
threads, but exactly one rank executes at a time and control passes
round-robin at communication calls, so observable behavior is identical to
a single-threaded schedule.  Each rank thread parks on a lock of its own.
When a rank blocks or finishes, its own thread runs the scheduling step:
it tries to resolve the rank's group, picks the next ready rank in index
order (a new sweep from rank 0 at the end) and releases that rank's lock,
so control passes straight from rank to rank; the caller's thread only
starts the ranks and waits for the run to end.

Collectives resolve when every participant of the group has arrived with a
matching call.  A member seen waiting on a group stays so until the group
resolves, so each group keeps its verified prefix and an arrival resumes
the check there instead of rescanning the group.  A member waiting on
another group has not arrived yet: that group may resolve first.  A group
mismatch is therefore reported only when no collective can resolve; it,
and a rank finishing while peers wait, is a structured deadlock error
instead of a hang.  Every off-rank message is logged with its exact byte
count and link class, and the log is byte-identical across reruns of the
same program.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Topology",
    "DeviceMesh",
    "CommRecord",
    "CommLog",
    "RankHandle",
    "FaultInjection",
    "FabricError",
    "DeadlockError",
    "CollectiveMismatchError",
    "MeshPlacementWarning",
    "build_mesh",
    "run_program",
    "comm_time",
    "payload_nbytes",
]

LINK_INTRA = "intra"
LINK_INTER = "inter"

# Default link speeds: 900 GB/s over the fast intra-node fabric, 50 GB/s over
# the single-path inter-node fabric (an 18x gap).  Latencies are placeholders
# and config-exposed, not calibrated values.
DEFAULT_INTRA_BW = 900e9
DEFAULT_INTER_BW = 50e9
DEFAULT_INTRA_LATENCY = 2e-6
DEFAULT_INTER_LATENCY = 10e-6


class FabricError(RuntimeError):
    pass


class DeadlockError(FabricError):
    pass


class CollectiveMismatchError(DeadlockError):
    pass


class MeshPlacementWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Topology:
    """Two-tier cluster: nodes of GPUs with fast intra / slow inter links."""

    num_nodes: int = 1
    gpus_per_node: int = 1
    intra_node_bandwidth: float = DEFAULT_INTRA_BW  # bytes/s
    inter_node_bandwidth: float = DEFAULT_INTER_BW  # bytes/s
    intra_node_latency: float = DEFAULT_INTRA_LATENCY  # seconds/message
    inter_node_latency: float = DEFAULT_INTER_LATENCY  # seconds/message

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("node and GPU counts must be >= 1")
        if self.intra_node_bandwidth <= 0 or self.inter_node_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.intra_node_latency < 0 or self.inter_node_latency < 0:
            raise ValueError("latencies must be >= 0")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def link_class(self, src: int, dst: int) -> str:
        return LINK_INTRA if self.node_of(src) == self.node_of(dst) else LINK_INTER

    def bandwidth(self, link: str) -> float:
        return self.intra_node_bandwidth if link == LINK_INTRA else self.inter_node_bandwidth

    def latency(self, link: str) -> float:
        return self.intra_node_latency if link == LINK_INTRA else self.inter_node_latency


def comm_time(nbytes: float, link: str, topology: Topology) -> float:
    """Linear cost model: per-message latency plus bytes/bandwidth."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return topology.latency(link) + nbytes / topology.bandwidth(link)


class CommRecord(NamedTuple):
    """One off-rank message.  A named tuple: one is built per message."""

    step: int
    kind: str  # p2p | a2a | all_gather | gather | broadcast
    src: int
    dst: int
    nbytes: int
    link: str


class CommLog:
    """Ordered record of every off-rank message of a program run."""

    def __init__(self) -> None:
        self.records: list[CommRecord] = []
        self.tampered: list[tuple[int, int, int, int]] = []  # (src, dst, step, index)

    def append(self, record: CommRecord) -> None:
        self.records.append(record)

    def total_bytes(self, kind: str | None = None, link: str | None = None) -> int:
        return sum(
            r.nbytes
            for r in self.records
            if (kind is None or r.kind == kind) and (link is None or r.link == link)
        )

    def to_rows(self) -> list[tuple]:
        return [(r.step, r.kind, r.src, r.dst, r.nbytes, r.link) for r in self.records]

    def extend(self, other: "CommLog") -> None:
        self.records.extend(other.records)
        self.tampered.extend(other.tampered)

    def __len__(self) -> int:
        return len(self.records)


def payload_nbytes(payload) -> int:
    """Exact wire size of a message payload.

    Arrays count their buffer size, scalars count 8 bytes, containers sum
    their elements; anything else is a programming error.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bool, int, float, np.generic)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    raise TypeError(f"cannot size payload of type {type(payload)!r}")


@dataclass(frozen=True)
class DeviceMesh:
    """World of ranks arranged as (all-to-all groups x ring groups).

    Within each sequence-parallel block of ``a2a_degree * p2p_degree`` ranks,
    all-to-all groups are contiguous rank spans (packed intra-node first) and
    ring groups connect corresponding members across the spans.
    """

    topology: Topology
    a2a_degree: int = 1
    p2p_degree: int = 1

    @property
    def sp_degree(self) -> int:
        return self.a2a_degree * self.p2p_degree

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def _sp_base(self, rank: int) -> int:
        return rank - rank % self.sp_degree

    def a2a_index(self, rank: int) -> int:
        return (rank % self.sp_degree) % self.a2a_degree

    def p2p_index(self, rank: int) -> int:
        return (rank % self.sp_degree) // self.a2a_degree

    def a2a_group_of(self, rank: int) -> tuple[int, ...]:
        base = self._sp_base(rank) + self.p2p_index(rank) * self.a2a_degree
        return tuple(range(base, base + self.a2a_degree))

    def p2p_group_of(self, rank: int) -> tuple[int, ...]:
        base = self._sp_base(rank) + self.a2a_index(rank)
        return tuple(base + i * self.a2a_degree for i in range(self.p2p_degree))


def build_mesh(topology: Topology, a2a_degree: int = 1, p2p_degree: int = 1) -> DeviceMesh:
    """Build the communication mesh, packing all-to-all groups intra-node.

    Raises if the sequence-parallel degree does not divide the world size.
    Emits a MeshPlacementWarning when any all-to-all group spans nodes
    (legal, but its messages will cross slow links).
    """
    if a2a_degree < 1 or p2p_degree < 1:
        raise ValueError("mesh degrees must be >= 1")
    sp = a2a_degree * p2p_degree
    world = topology.world_size
    if sp > world or world % sp != 0:
        raise ValueError(
            f"sequence-parallel degree {sp} (= {a2a_degree} x {p2p_degree}) "
            f"does not divide world size {world}"
        )
    mesh = DeviceMesh(topology=topology, a2a_degree=a2a_degree, p2p_degree=p2p_degree)
    for first in range(0, world, a2a_degree):  # a group is a contiguous rank span
        if topology.node_of(first) != topology.node_of(first + a2a_degree - 1):
            warnings.warn(
                f"all-to-all group {mesh.a2a_group_of(first)} spans nodes "
                f"(a2a_degree={a2a_degree}, gpus_per_node={topology.gpus_per_node}); "
                "its traffic will use inter-node links",
                MeshPlacementWarning,
                stacklevel=2,
            )
            break
    return mesh


@dataclass(frozen=True)
class FaultInjection:
    """Test hook: corrupt the payload of the n-th logged message."""

    message_index: int


class _Cancelled(BaseException):
    pass


@dataclass
class _Pending:
    """One rank's side of a collective: its outgoing (dst, payload) edges.

    ``source`` is the one rank a p2p or broadcast receives from; an op
    without one receives a list of the values sent to it, in group order.
    ``root`` is the rank a broadcast sends from or a gather collects at.
    """

    kind: str
    group: tuple[int, ...]
    edges: list[tuple[int, object]]
    source: int | None = None
    root: int | None = None
    step: int = 0


class RankHandle:
    """Communication handle passed to a rank program."""

    __slots__ = ("_rt", "rank", "mesh")

    def __init__(self, runtime: "_Runtime", rank: int) -> None:
        self._rt = runtime
        self.rank = rank
        self.mesh = runtime.mesh

    def send_recv(self, group, dst: int, src: int, payload):
        """Rotate payloads within ``group``: send to dst, receive from src.

        The (rank -> dst) edges of the group must form a permutation.
        """
        return self._rt.block_on(
            self.rank, _Pending("p2p", tuple(group), [(dst, payload)], source=src)
        )

    def all_to_all(self, group, shards):
        """Exchange ``len(group)`` shards; receive shard i-from-rank-j as j-th."""
        group = tuple(group)
        if len(shards) != len(group):
            raise FabricError(
                f"rank {self.rank}: all_to_all expects {len(group)} shards, "
                f"got {len(shards)}"
            )
        return self._rt.block_on(self.rank, _Pending("a2a", group, list(zip(group, shards))))

    def all_gather(self, group, value, root: int | None = None):
        """Collect every member's value, returned in group order.

        With ``root`` set only the root receives the values (messages of
        kind ``gather``) and every other member gets ``[]``.
        """
        group = tuple(group)
        if root is None:
            return self._rt.block_on(
                self.rank, _Pending("all_gather", group, [(m, value) for m in group])
            )
        return self._rt.block_on(
            self.rank, _Pending("gather", group, [(root, value)], root=root)
        )

    def broadcast(self, group, root: int, value=None):
        """Distribute the root's value to every group member."""
        group = tuple(group)
        edges = [(m, value) for m in group] if self.rank == root else []
        return self._rt.block_on(
            self.rank, _Pending("broadcast", group, edges, source=root, root=root)
        )


def _tamper(payload):
    """Flip the first array (or bump the first scalar) in a payload."""
    if isinstance(payload, np.ndarray):
        return -payload
    if isinstance(payload, (bool, np.bool_)):
        return not payload
    if isinstance(payload, (int, float, np.generic)):
        return payload + 1
    if isinstance(payload, (tuple, list)):
        items = list(payload)
        for i, item in enumerate(items):
            flipped = _tamper(item)
            if flipped is not item:
                items[i] = flipped
                break
        return type(payload)(items) if isinstance(payload, tuple) else items
    return payload


_READY, _BLOCKED, _DONE, _FAILED = "ready", "blocked", "done", "failed"


class _Runtime:
    def __init__(self, mesh: DeviceMesh, fault: FaultInjection | None) -> None:
        self.mesh = mesh
        self.fault = fault
        self.log = CommLog()
        n = mesh.world_size
        self.n = n
        self.state = [_READY] * n
        self.pending: list[_Pending | None] = [None] * n
        self.steps = [0] * n
        self.outputs: list[object] = [None] * n
        self.results: dict[int, object] = {}
        self.verified: dict[tuple[int, ...], int] = {}  # group -> members seen blocked on it
        self.failure: BaseException | None = None
        # Each rank thread parks on its own lock, the caller on _caller; all
        # start held, and releasing one hands control to the thread it parks.
        self._thread = [threading.Lock() for _ in range(n)]
        self._caller = threading.Lock()
        for lock in (*self._thread, self._caller):
            lock.acquire()
        self.cancelled = False

    # -- rank-thread side -------------------------------------------------

    def entry(self, rank: int, program) -> None:
        self._thread[rank].acquire()
        try:
            if self.cancelled:
                raise _Cancelled()
            self.outputs[rank] = program(RankHandle(self, rank))
        except _Cancelled:
            self.state[rank] = _FAILED
        except BaseException as exc:  # re-raised by run()
            self.state[rank] = _FAILED
            self.failure = exc
            self._caller.release()
        else:
            self.state[rank] = _DONE
            self._switch(rank)

    def block_on(self, rank: int, op: _Pending):
        if self.cancelled:
            raise _Cancelled()
        op.step = self.steps[rank]
        self.steps[rank] += 1
        self.pending[rank] = op
        self.state[rank] = _BLOCKED
        self._switch(rank)
        if self.cancelled:
            raise _Cancelled()
        self.pending[rank] = None
        return self.results.pop(rank)

    def _switch(self, rank: int) -> None:
        """The scheduling step, run by the rank that just blocked or finished:
        resolve its group, hand control to the next READY rank after it (at
        the end of a sweep the first from rank 0, a deadlock if none, the
        caller once every rank is done) and park unless it finished."""
        state = self.state
        try:
            if state[rank] == _BLOCKED:
                self._try_resolve(self.pending[rank].group)
            nxt = next((r for r in range(rank + 1, self.n) if state[r] == _READY), None)
            if nxt is None and state.count(_DONE) < self.n:
                while _READY not in state:
                    self._raise_deadlock()  # returns only if a collective resolved
                nxt = state.index(_READY)
        except BaseException as exc:  # a mismatch or deadlock ends the run
            self.failure = exc
            nxt = None
        if nxt == rank:
            return
        (self._caller if nxt is None else self._thread[nxt]).release()
        if state[rank] != _DONE:
            self._thread[rank].acquire()

    # -- caller side ------------------------------------------------------

    def run(self, program):
        threads = [threading.Thread(target=self.entry, args=(r, program), daemon=True)
                   for r in range(self.n)]
        for t in threads:
            t.start()
        self._thread[0].release()
        try:
            self._caller.acquire()
        finally:  # cancel every parked rank
            self.cancelled = True
            for rank, lock in enumerate(self._thread):
                if self.state[rank] not in (_DONE, _FAILED):
                    lock.release()
            for t in threads:
                t.join(timeout=5.0)
        if self.failure is not None:
            raise self.failure
        return self.outputs, self.log

    def _raise_deadlock(self) -> None:
        # Re-check every blocked group: a peer that finished after this rank
        # blocked surfaces as a mismatch here.
        for rank in range(self.n):
            if self.state[rank] == _BLOCKED:
                self._try_resolve(self.pending[rank].group)
        if any(s == _READY for s in self.state):
            return  # a collective resolved after all; keep driving
        # Nothing can resolve: a member waiting on another group is a mismatch.
        for rank in range(self.n):
            if self.state[rank] == _BLOCKED:
                group = self.pending[rank].group
                for member in group:
                    op = self.pending[member]
                    if op is not None and op.group != group:
                        raise CollectiveMismatchError(
                            f"group mismatch at step {op.step}: rank {member} joined "
                            f"{op.group} while peers use {group}"
                        )
        waiting = "; ".join(
            f"rank {r} waiting on {self.pending[r].kind} over group "
            f"{self.pending[r].group} at step {self.pending[r].step}"
            for r in range(self.n)
            if self.state[r] == _BLOCKED
        )
        raise DeadlockError(f"no runnable rank and no resolvable collective: {waiting}")

    def _try_resolve(self, group: tuple[int, ...]) -> None:
        # A member seen blocked on the group stays so until it resolves:
        # resume the scan after that verified prefix.
        seen = self.verified.pop(group, 0)
        while seen < len(group):
            member = group[seen]
            st = self.state[member]
            if st == _DONE:
                raise CollectiveMismatchError(
                    f"rank {member} finished while ranks {sorted(set(group) - {member})} "
                    f"wait on a collective over group {group}"
                )
            if st != _BLOCKED or self.pending[member].group != group:
                # Not arrived yet; a member waiting on another group may
                # still get here once that group resolves.
                self.verified[group] = seen
                return
            seen += 1
        ops = [self.pending[member] for member in group]
        kinds = {op.kind for op in ops}
        if len(kinds) > 1:
            detail = ", ".join(
                f"rank {m} issued {op.kind} at step {op.step}" for m, op in zip(group, ops)
            )
            raise CollectiveMismatchError(f"collective mismatch: {detail}")
        kind = ops[0].kind
        if kind == "p2p":
            dst_of = {m: op.edges[0][0] for m, op in zip(group, ops)}
            src_of = {m: op.source for m, op in zip(group, ops)}
            if sorted(dst_of.values()) != sorted(group):
                raise CollectiveMismatchError(
                    f"p2p destinations {dst_of} are not a permutation of group {group}"
                )
            for sender, dst in dst_of.items():
                if src_of[dst] != sender:
                    raise CollectiveMismatchError(
                        f"rank {dst} expects to receive from {src_of[dst]} "
                        f"but rank {sender} is sending to it"
                    )
        elif kind in ("broadcast", "gather"):
            roots = {op.root for op in ops}
            if len(roots) != 1:
                raise CollectiveMismatchError(f"{kind} roots disagree: {sorted(roots)}")
            root = roots.pop()
            if root not in group:
                raise FabricError(f"{kind} root {root} not in group {group}")
        received = {m: [] for m in group}
        for sender, op in zip(group, ops):  # deterministic log order: sender-major
            sizes: dict[int, int] = {}  # id(payload) -> bytes, once per distinct payload
            for dst, payload in op.edges:
                received[dst].append(self._deliver(op.step, kind, sender, dst, payload, sizes))
        for m, op in zip(group, ops):
            self.results[m] = received[m] if op.source is None else received[m][0]
            self.state[m] = _READY

    def _deliver(self, step: int, kind: str, src: int, dst: int, payload,
                 sizes: dict[int, int]):
        """Log one directed message and return the (possibly tampered) payload.

        ``sizes`` holds the sizes of the sender's payloads already sent: an
        all_gather or broadcast sends one payload on every edge.
        """
        if src == dst:
            return payload
        nbytes = sizes.get(id(payload))
        if nbytes is None:
            nbytes = sizes[id(payload)] = payload_nbytes(payload)
        link = self.mesh.topology.link_class(src, dst)
        self.log.append(CommRecord(step, kind, src, dst, nbytes, link))
        index = len(self.log.records) - 1
        if self.fault is not None and index == self.fault.message_index:
            payload = _tamper(payload)
            self.log.tampered.append((src, dst, step, index))
        return payload


def run_program(mesh: DeviceMesh, program, fault: FaultInjection | None = None):
    """Run one SPMD program on every rank of the mesh.

    ``program(handle)`` is called once per rank; communication happens through
    the handle.  Returns (per-rank outputs in rank order, CommLog).
    """
    return _Runtime(mesh, fault).run(program)
