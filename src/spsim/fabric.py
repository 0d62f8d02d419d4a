"""Deterministic simulated multi-rank runtime.

Logical ranks run rank programs written as generators: a program yields
each collective it issues and receives what the collective delivers
(``kv = yield handle.send_recv(...)``).  One scheduler on the caller's
thread steps the ranks, so exactly one rank executes at a time and no OS
thread is started.  A step runs a rank until it yields a collective or
returns; the scheduler then tries to resolve the rank's group and steps
the next ready rank in index order (a new sweep from rank 0 at the end).

Collectives resolve when every participant of the group has arrived with a
matching call.  A member seen waiting on a group stays so until the group
resolves, so the group's first member keeps the verified prefix and an
arrival resumes the check there instead of rescanning the group.  A member
waiting on another group has not arrived yet: that group may resolve first.
A group mismatch is therefore reported only when no collective can resolve;
it, and a rank finishing while peers wait, is a structured deadlock error
instead of a hang.  A failed run closes every rank generator it started.
Every off-rank message is logged with its exact byte count and link class,
and the log is byte-identical across reruns of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "build_mesh",
    "run_program",
    "rank_program",
    "comm_time",
    "payload_nbytes",
]

LINK_INTRA = "intra"
LINK_INTER = "inter"

SCALAR_BYTES = 8  # wire size of a bool, int, float or numpy scalar, such as a token id

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

    Arrays count their buffer size, scalars count ``SCALAR_BYTES``,
    containers sum their elements; anything else is a programming error.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bool, int, float, np.generic)):
        return SCALAR_BYTES
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    raise TypeError(f"cannot size payload of type {type(payload)!r}")


@dataclass(frozen=True)
class DeviceMesh:
    """World of ranks arranged as (all-to-all groups x ring groups).

    The two degrees factor the world: all-to-all groups are contiguous rank
    spans of ``a2a_degree`` ranks (packed intra-node first) and ring groups
    connect corresponding members across the spans, so the ring degree is
    the world divided by ``a2a_degree``.
    """

    topology: Topology
    a2a_degree: int = 1

    def __post_init__(self) -> None:
        if self.a2a_degree < 1 or self.world_size % self.a2a_degree != 0:
            raise ValueError(
                f"a2a degree {self.a2a_degree} does not divide world size {self.world_size}"
            )

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    @property
    def p2p_degree(self) -> int:
        return self.world_size // self.a2a_degree

    def a2a_group_of(self, rank: int) -> tuple[int, ...]:
        return self._a2a_groups[rank // self.a2a_degree]

    def p2p_group_of(self, rank: int) -> tuple[int, ...]:
        return self._p2p_groups[rank % self.a2a_degree]

    # Each group is built once, so its members share one tuple: the fabric
    # matches a collective's group by identity before equality.
    @cached_property
    def _a2a_groups(self) -> list[tuple[int, ...]]:
        a2a = self.a2a_degree
        return [tuple(range(base, base + a2a)) for base in range(0, self.world_size, a2a)]

    @cached_property
    def _p2p_groups(self) -> list[tuple[int, ...]]:
        a2a = self.a2a_degree
        return [tuple(range(first, self.world_size, a2a)) for first in range(a2a)]


def build_mesh(topology: Topology, a2a_degree: int = 1, p2p_degree: int = 0) -> DeviceMesh:
    """Build the communication mesh, packing all-to-all groups intra-node.

    The degrees must factor the world size; ``p2p_degree`` left at 0 is the
    world divided by ``a2a_degree``.  An all-to-all group that spans nodes
    is legal and sends over the inter-node links.
    """
    mesh = DeviceMesh(topology=topology, a2a_degree=a2a_degree)
    if p2p_degree and p2p_degree != mesh.p2p_degree:
        raise ValueError(
            f"a2a {a2a_degree} x p2p {p2p_degree} = {a2a_degree * p2p_degree} "
            f"does not match world size {mesh.world_size}"
        )
    return mesh


@dataclass(frozen=True)
class FaultInjection:
    """Test hook: corrupt the payload of the n-th logged message."""

    message_index: int


@dataclass
class _Pending:
    """One rank's side of a collective: its outgoing (dst, payload) edges.

    ``source`` is the one rank a p2p or broadcast receives from; an op
    without one receives a list of the values sent to it, in group order.
    ``root`` is the rank a broadcast sends from or a gather collects at.
    ``seen`` counts the group's members verified waiting on it; only the
    op of the group's first member keeps it.
    """

    kind: str
    group: tuple[int, ...]
    edges: list[tuple[int, object]]
    source: int | None = None
    root: int | None = None
    step: int = 0
    seen: int = 0


class _Return(NamedTuple):
    """A rank's result, as the last step of its program returns it."""

    value: object


class RankHandle:
    """One rank's communication handle, passed to its rank program.

    The collective methods do not block: each returns the collective for
    the program to yield, and the ``yield`` evaluates to what the rank
    receives (``kv = yield handle.send_recv(...)``).
    """

    __slots__ = ("rank", "mesh", "_steps", "_received")

    def __init__(self, mesh: DeviceMesh, rank: int) -> None:
        self.rank = rank
        self.mesh = mesh
        self._steps = None  # the rank's generator, once its program started
        self._received = None  # what its last collective delivered, until resumed

    def send_recv(self, group, dst: int, src: int, payload):
        """Rotate payloads within ``group``: send to dst, receive from src.

        The (rank -> dst) edges of the group must form a permutation.
        """
        return _Pending("p2p", tuple(group), [(dst, payload)], source=src)

    def all_to_all(self, group, shards):
        """Exchange ``len(group)`` shards; receive shard i-from-rank-j as j-th."""
        group = tuple(group)
        if len(shards) != len(group):
            raise FabricError(
                f"rank {self.rank}: all_to_all expects {len(group)} shards, "
                f"got {len(shards)}"
            )
        return _Pending("a2a", group, list(zip(group, shards)))

    def all_gather(self, group, value, root: int | None = None):
        """Collect every member's value, received in group order.

        With ``root`` set only the root receives the values (messages of
        kind ``gather``) and every other member gets ``[]``.
        """
        group = tuple(group)
        if root is None:
            return _Pending("all_gather", group, [(m, value) for m in group])
        return _Pending("gather", group, [(root, value)], root=root)

    def broadcast(self, group, root: int, value=None):
        """Distribute the root's value to every group member."""
        group = tuple(group)
        edges = [(m, value) for m in group] if self.rank == root else []
        return _Pending("broadcast", group, edges, source=root, root=root)


def rank_program(body):
    """The program ``run_program`` steps, made from a generator function.

    ``body(handle)`` makes the rank's generator: it yields each collective
    it issues, receives what the collective delivers, and returns the
    rank's result.  Each call of the program runs that rank up to its next
    collective, which it returns, or to its return.
    """
    def program(handle):
        if handle._steps is None:
            handle._steps = body(handle)
        received, handle._received = handle._received, None
        try:
            return handle._steps.send(received)
        except StopIteration as stop:
            return _Return(stop.value)

    return program


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


_READY, _BLOCKED, _DONE = "ready", "blocked", "done"


class _Runtime:
    def __init__(self, mesh: DeviceMesh, fault: FaultInjection | None) -> None:
        self.mesh = mesh
        self.fault = fault
        self.log = CommLog()
        n = mesh.world_size
        self.n = n
        self.state = [_READY] * n
        self.pending: list[_Pending | None] = [None] * n  # set while BLOCKED
        self.steps = [0] * n
        self.outputs: list[object] = [None] * n
        self.handles = [RankHandle(mesh, rank) for rank in range(n)]

    def run(self, program):
        """Step the ranks from rank 0 until every one has returned.  However
        the run ends, every rank generator that started is closed."""
        state = self.state
        rank = 0
        try:
            while rank is not None:
                out = program(self.handles[rank])
                if type(out) is _Pending:
                    out.step = self.steps[rank]
                    self.steps[rank] += 1
                    self.pending[rank] = out
                    state[rank] = _BLOCKED
                    self._try_resolve(out.group)
                elif type(out) is _Return:
                    self.outputs[rank] = out.value
                    state[rank] = _DONE
                else:
                    raise FabricError(
                        f"rank {rank}: a program step returned {type(out).__name__}, not "
                        "a collective or the rank's result (build it with rank_program)"
                    )
                # The next READY rank after this one; at the end of a sweep the
                # first from rank 0, a deadlock if none, None once all are done.
                rank = next((r for r in range(rank + 1, self.n) if state[r] == _READY), None)
                if rank is None and state.count(_DONE) < self.n:
                    if _READY not in state:
                        self._raise_deadlock()
                    rank = state.index(_READY)
        finally:
            for handle in self.handles:
                if handle._steps is not None:
                    handle._steps.close()
        return self.outputs, self.log

    def _raise_deadlock(self) -> None:
        # A group resolves on its last member's arrival, so no blocked group
        # can resolve here.  Re-check every one: a peer that finished after
        # this rank blocked surfaces as a mismatch.
        for rank in range(self.n):
            if self.state[rank] == _BLOCKED:
                self._try_resolve(self.pending[rank].group)
        # A member waiting on another group is a mismatch.
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
        # the first member's op keeps that verified prefix and the scan
        # resumes after it.  A mesh's group is one tuple, matched by identity.
        pending = self.pending
        head = pending[group[0]]
        seen = head.seen if head is not None and (head.group is group or head.group == group) else 0
        while seen < len(group):
            member = group[seen]
            if self.state[member] == _DONE:
                raise CollectiveMismatchError(
                    f"rank {member} finished while ranks {sorted(set(group) - {member})} "
                    f"wait on a collective over group {group}"
                )
            op = pending[member]
            if op is None or (op.group is not group and op.group != group):
                # Not arrived yet; a member waiting on another group may
                # still get here once that group resolves.
                if seen:
                    head.seen = seen
                return
            seen += 1
        ops = [pending[member] for member in group]
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
            self.handles[m]._received = received[m] if op.source is None else received[m][0]
            self.state[m] = _READY
            pending[m] = None

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
    """Run one SPMD program on every rank of the mesh, on the caller's thread.

    ``program(handle)`` is called once per step of a rank: it runs the rank
    up to the collective it returns or to the rank's result.  Build it with
    ``rank_program`` from a generator function; communication happens
    through the handle.  Returns (per-rank outputs in rank order, CommLog).
    """
    return _Runtime(mesh, fault).run(program)
