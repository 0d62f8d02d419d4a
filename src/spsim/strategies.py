"""Sequence-parallel attention strategies executed over the simulated fabric.

Four schemes compute the same causal grouped-query attention:

* naive ring:  contiguous chunks, KV rotated P-1 hops (causally imbalanced)
* zigzag ring: two-end chunks, same rotation, balanced causal load
* ulysses:     all-to-all trades sequence sharding for head sharding
* 2D hybrid:   all-to-all head sharding inside each group, KV ring across
               groups; the effective degree is the product

All four run one engine, the 2D rank body: the rings are its a2a=1 factor
and ulysses its p2p=1 factor, so the degenerate 2D factors reproduce the
pure strategies bitwise.  Every off-rank byte lands in the CommLog, which
the analytic cost model must match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fabric import DeviceMesh, Topology, rank_program, run_program
from .numeric import (
    AttentionSpec,
    _KVBlock,
    blockwise_attention_step,
    finalize_attention,
    kv_block,
    start_fold,
)
from .sharding import ShardPlan

__all__ = [
    "STRATEGY_KINDS",
    "RING_KINDS",
    "StrategyConfig",
    "StrategyConfigError",
    "StrategyRun",
    "ring_attention",
    "zigzag_ring_attention",
    "ulysses_attention",
    "attention_2d",
    "execute_strategy",
    "plan_for_strategy",
    "plan_kind",
    "resolve_strategy",
    "packed_a2a_degree",
    "effective_kv_heads",
]

STRATEGY_KINDS = ("naive_ring", "zigzag_ring", "ulysses", "two_d")
RING_KINDS = ("naive_ring", "zigzag_ring")


class StrategyConfigError(ValueError):
    pass


@dataclass(frozen=True)
class StrategyConfig:
    """Which scheme to run and how the SP degree factors into (a2a, p2p)."""

    kind: str
    a2a_degree: int = 1
    p2p_degree: int = 1
    kv_replication: bool = False

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise StrategyConfigError(
                f"unknown strategy {self.kind!r} (expected one of {STRATEGY_KINDS})"
            )
        if self.a2a_degree < 1 or self.p2p_degree < 1:
            raise StrategyConfigError("strategy degrees must be >= 1")
        if self.kind in RING_KINDS and self.a2a_degree != 1:
            raise StrategyConfigError(f"{self.kind} requires a2a_degree == 1")
        if self.kind == "ulysses" and self.p2p_degree != 1:
            raise StrategyConfigError("ulysses requires p2p_degree == 1")

    @property
    def sp_degree(self) -> int:
        return self.a2a_degree * self.p2p_degree

    def validate_heads(self, spec: AttentionSpec) -> None:
        """Check the head-divisibility limits of the a2a factor."""
        effective_kv_heads(spec, self.a2a_degree, self.kv_replication)

    def check_mesh(self, mesh: DeviceMesh) -> None:
        """Check that the mesh factors its world as this config's (a2a, p2p)."""
        if (self.a2a_degree, self.p2p_degree) != (mesh.a2a_degree, mesh.p2p_degree):
            raise ValueError(
                f"strategy {self.kind} (a2a {self.a2a_degree}, p2p {self.p2p_degree}) "
                f"does not match mesh (world {mesh.world_size}, a2a {mesh.a2a_degree}, "
                f"p2p {mesh.p2p_degree})"
            )


def effective_kv_heads(spec: AttentionSpec, degree: int, kv_replication: bool) -> int:
    """KV head count actually sharded by an a2a group of ``degree``.

    Equals ``num_kv_heads`` when the degree divides it; with replication
    enabled, KV heads are duplicated up to the query head count.  Raises
    StrategyConfigError when the degree exceeds the head limits.
    """
    if degree == 1:
        return spec.num_kv_heads
    if degree > spec.num_q_heads:
        raise StrategyConfigError(
            f"degree {degree} exceeds {spec.num_q_heads} query heads"
        )
    if spec.num_q_heads % degree != 0:
        raise StrategyConfigError(
            f"degree {degree} does not divide {spec.num_q_heads} query heads"
        )
    if spec.num_kv_heads % degree == 0:
        return spec.num_kv_heads
    if not kv_replication:
        if degree > spec.num_kv_heads:
            raise StrategyConfigError(
                f"degree {degree} exceeds {spec.num_kv_heads} KV heads; "
                "enable kv_replication"
            )
        raise StrategyConfigError(
            f"degree {degree} does not divide {spec.num_kv_heads} KV heads; "
            "enable kv_replication"
        )
    return spec.num_q_heads  # replicated up to the query head count


def plan_kind(kind: str) -> str:
    """Shard plan a strategy kind runs on: contiguous or zigzag."""
    return "contiguous" if kind in ("naive_ring", "ulysses") else "zigzag"


def resolve_strategy(spec: AttentionSpec, topology: Topology, kind: str | None = None,
                     a2a: int = 0, p2p: int = 0,
                     kv_replication: bool | None = None) -> StrategyConfig:
    """The valid StrategyConfig that factors the topology's world as (a2a, p2p).

    Ring kinds fix a2a at 1 and ulysses fixes p2p at 1; ``two_d`` with
    neither degree set takes the packing rule's a2a (``packed_a2a_degree``);
    a degree left at 0 is the world divided by the other (a2a alone defaults
    to the world).  Without a kind the degrees name it: a group of one is
    the zigzag ring, a ring of one is ulysses, anything else is two_d.  With
    ``kv_replication`` None, replication is turned on only when the heads
    require it.  Raises StrategyConfigError when the degrees do not factor
    the world, or with the last attempt's error when the heads allow none.
    """
    world = topology.world_size
    if kind in RING_KINDS:
        a2a = 1
    elif kind == "ulysses":
        p2p = 1
    elif kind == "two_d" and not a2a and not p2p:
        a2a = packed_a2a_degree(spec, topology)
    a2a = a2a or max(1, world // (p2p or 1))
    p2p = p2p or max(1, world // a2a)
    if a2a * p2p != world:
        raise StrategyConfigError(
            f"a2a {a2a} x p2p {p2p} = {a2a * p2p} does not match world size {world}"
        )
    if kind is None:
        kind = "zigzag_ring" if a2a == 1 else "ulysses" if p2p == 1 else "two_d"
    error = None
    for replication in (False, True) if kv_replication is None else (kv_replication,):
        config = StrategyConfig(kind, a2a, p2p, replication)
        try:
            config.validate_heads(spec)
            return config
        except StrategyConfigError as exc:
            error = exc
    raise error


def packed_a2a_degree(spec: AttentionSpec, topology: Topology) -> int:
    """The a2a packing rule: the largest degree at most ``gpus_per_node`` that
    divides both the world and the KV heads (so no KV head is replicated)."""
    shared = math.gcd(topology.world_size, spec.num_kv_heads)
    return max(d for d in range(1, min(shared, topology.gpus_per_node) + 1)
               if shared % d == 0)


@dataclass
class StrategyRun:
    """Result of executing one strategy on global inputs."""

    config: StrategyConfig
    plan: ShardPlan
    outputs: list[np.ndarray]  # per-rank (heads, local_len, head_dim)
    log: object  # CommLog

    def gathered(self) -> np.ndarray:
        """Global (heads, padded_len, head_dim) output in position order."""
        return self.plan.gather(self.outputs, axis=1, trim=False)


# ---------------------------------------------------------------------------
# Shared blockwise engine
# ---------------------------------------------------------------------------

def _ring_pass(handle, plan, q, k, v):
    """Rotate KV around the rank's ring group and accumulate blockwise attention.

    A generator: it yields each hop's collective and returns the output.
    Every ring member holds the rows of its a2a group's positions
    (``plan.group_positions``; at a2a degree 1, its own rank's), in ``q``
    and in its KV block alike.  The pass checks ``q`` once and its own KV
    block once, where it was made (``start_fold``, ``kv_block``), and runs
    its R-1 point-to-point hops, sending plain (k, v) tuples of the checked
    float64 arrays.  The fabric hands over the sender's checked arrays and
    no fold writes into them, so each received block is kept as its sender
    checked it, with its positions and span from the plan, and never
    scanned again.  The R blocks are then folded in hop order into one
    accumulator in place, in one ``blockwise_attention_step`` call.  The fold
    owns the accumulator, so the pass finalizes into it and returns it.
    """
    mesh = handle.mesh
    ring = mesh.p2p_group_of(handle.rank)
    size = len(ring)
    me = ring.index(handle.rank)
    groups = [mesh.a2a_group_of(ring[(me - hop) % size]) for hop in range(size)]
    positions = plan.group_positions(groups[0])
    fold = start_fold(q, positions)
    own = kv_block(k, v, positions)
    dst = ring[(me + 1) % size]
    src = ring[(me - 1) % size]
    received = [(own.k, own.v)]
    for _ in range(size - 1):
        received.append((yield handle.send_recv(ring, dst, src, received[-1])))
    # Each received (k, v) is the pair its sender's kv_block checked, so the
    # block is rebuilt around it unchecked.  The blocks are built only now,
    # so a rank waiting on a hop holds no per-hop object that the cycle
    # collector would traverse at every pass.
    blockwise_attention_step(fold, [own] + [
        _KVBlock(k, v, plan.group_positions(group), plan.group_span(group))
        for (k, v), group in zip(received[1:], groups[1:])])
    return finalize_attention(fold.state)


def _head_slices(total: int, parts: int):
    width = total // parts
    return [slice(i * width, (i + 1) * width) for i in range(parts)]


def _kv_head_cuts(num_kv_heads: int, degree: int, effective_kv: int):
    """Per a2a member, the KV head that each head of its shard repeats: the
    ``effective_kv`` replicated heads cut evenly into ``degree`` shards."""
    repeats = effective_kv // num_kv_heads
    return [[h // repeats for h in range(cut.start, cut.stop)]
            for cut in _head_slices(effective_kv, degree)]


def _one_head_replicated(heads) -> bool:
    """Whether a shard is several replicas of one KV head."""
    return len(heads) > 1 and heads[0] == heads[-1]


def _kv_shards(kv: np.ndarray, degree: int, effective_kv: int):
    """One a2a group's KV head shards, with replicated heads never copied out.

    Replication repeats each KV head up to ``effective_kv`` heads.  A shard
    inside one KV head is a view of it: a slice for one replica, a read-only
    broadcast for more (``np.broadcast_to`` costs several microseconds a
    call, which a world-64 pass pays a thousand times).  A shard straddling
    KV heads copies only its own heads.  ``nbytes`` counts a view's logical
    bytes, so the logged traffic is that of the replicated heads.
    """
    if effective_kv == kv.shape[0]:
        return [kv[cut] for cut in _head_slices(effective_kv, degree)]
    shards = []
    for heads in _kv_head_cuts(kv.shape[0], degree, effective_kv):
        if _one_head_replicated(heads):
            shards.append(np.broadcast_to(kv[heads[0]], (len(heads),) + kv.shape[1:]))
        elif heads[0] != heads[-1]:
            shards.append(kv[heads])
        else:
            shards.append(kv[heads[0]:heads[0] + 1])
    return shards


def attention_rank_body(handle, mesh, plan, spec, q, k, v, kv_replication):
    """One rank of every strategy: head-shard, ring the KV, un-shard.

    A generator for ``rank_program``: it yields the rank's collectives and
    returns its output.  The a2a group trades sequence sharding for head
    sharding, the ring group rotates KV across groups.  At a2a degree 1
    this is the plain KV ring over the rank's own plan positions.  Each
    member's rows in the group's sorted positions are found once: the
    received shards are written there, one copy each, and the output is
    routed back from there.  Every rank of the group waits in each exchange
    with its arrays alive, so the segments are dropped before the return
    exchange.
    """
    a2a_group = mesh.a2a_group_of(handle.rank)
    degree = len(a2a_group)
    if degree == 1:
        return (yield from _ring_pass(handle, plan, q, k, v))
    effective_kv = effective_kv_heads(spec, degree, kv_replication)
    received = yield handle.all_to_all(a2a_group, list(zip(
        [q[cut] for cut in _head_slices(spec.num_q_heads, degree)],
        _kv_shards(k, degree, effective_kv), _kv_shards(v, degree, effective_kv))))
    positions = plan.group_positions(a2a_group)
    rows = [np.searchsorted(positions, plan.rank_positions(member)) for member in a2a_group]
    # Replicas of one KV head are held once and folded as a broadcast view,
    # the way _kv_shards sends them.
    held_once = _one_head_replicated(_kv_head_cuts(
        spec.num_kv_heads, degree, effective_kv)[a2a_group.index(handle.rank)])
    segments = []
    for index in range(3):  # q, k, v
        first = received[0][index]
        heads = 1 if index and held_once else first.shape[0]
        segment = np.empty((heads, positions.size, first.shape[2]), first.dtype)
        for part, member_rows in zip(received, rows):
            segment[:, member_rows] = part[index][:heads]
        segments.append(np.broadcast_to(segment, (first.shape[0],) + segment.shape[1:])
                        if heads < first.shape[0] else segment)
    del received
    out_seg = yield from _ring_pass(handle, plan, *segments)
    del segments
    # Route each member's rows back (in its own plan-local order) and restack heads.
    out_shards = [out_seg.take(member_rows, axis=1) for member_rows in rows]
    del out_seg
    return np.concatenate((yield handle.all_to_all(a2a_group, out_shards)), axis=0)


def _check_shards(plan: ShardPlan, shards, name: str, heads: int, head_dim: int) -> None:
    if len(shards) != plan.sp_degree:
        raise ValueError(f"{name}: expected {plan.sp_degree} shards, got {len(shards)}")
    for rank, shard in enumerate(shards):
        expected = (heads, plan.local_length, head_dim)
        if shard.shape != expected:
            raise ValueError(
                f"{name}[{rank}] has shape {shard.shape}, expected {expected}"
            )


def _run_attention(kind, mesh, plan, q_shards, k_shards, v_shards, spec,
                   kv_replication=False, fault=None):
    """Check the mesh, plan, heads and shards once, then run every rank."""
    config = StrategyConfig(kind, mesh.a2a_degree, mesh.p2p_degree, kv_replication)
    if plan.kind != plan_kind(kind):
        raise ValueError(f"{kind} runs on a {plan_kind(kind)} plan, got {plan.kind!r}")
    if mesh.world_size != plan.sp_degree:
        raise ValueError(
            f"mesh (world {mesh.world_size}) does not match plan sp_degree {plan.sp_degree}"
        )
    config.validate_heads(spec)
    _check_shards(plan, q_shards, "q", spec.num_q_heads, spec.head_dim)
    _check_shards(plan, k_shards, "k", spec.num_kv_heads, spec.head_dim)
    _check_shards(plan, v_shards, "v", spec.num_kv_heads, spec.head_dim)

    def body(handle):
        rank = handle.rank
        return attention_rank_body(handle, mesh, plan, spec, q_shards[rank],
                                   k_shards[rank], v_shards[rank], kv_replication)

    return run_program(mesh, rank_program(body), fault=fault)


# ---------------------------------------------------------------------------
# The four strategies: degenerate factors of the 2D hybrid
# ---------------------------------------------------------------------------

def ring_attention(mesh, plan, q_shards, k_shards, v_shards, spec, fault=None):
    """Naive ring: contiguous chunks, P-1 KV hops, causally imbalanced."""
    return _run_attention("naive_ring", mesh, plan, q_shards, k_shards, v_shards, spec,
                          fault=fault)


def zigzag_ring_attention(mesh, plan, q_shards, k_shards, v_shards, spec, fault=None):
    """Balanced ring: each rank holds one chunk from each end of the sequence."""
    return _run_attention("zigzag_ring", mesh, plan, q_shards, k_shards, v_shards, spec,
                          fault=fault)


def ulysses_attention(mesh, plan, q_shards, k_shards, v_shards, spec,
                      kv_replication: bool = False, fault=None):
    """All-to-all head sharding over contiguous sequence shards.

    The first exchange turns (seq/P, all heads) into (full seq, heads/P);
    each rank attends its head slice over the whole sequence; the second
    exchange restores sequence sharding.  The degree is capped by the head
    counts: KV heads without replication, query heads with it.
    """
    return _run_attention("ulysses", mesh, plan, q_shards, k_shards, v_shards, spec,
                          kv_replication, fault)


def attention_2d(mesh, plan, q_shards, k_shards, v_shards, spec,
                 kv_replication: bool = False, fault=None):
    """Hybrid strategy: intra-group A2A head sharding, inter-group KV ring.

    The zigzag plan is laid out so every a2a group's combined tokens form a
    two-end chunk pair at ring granularity, keeping the ring causally
    balanced.  With a2a_degree == 1 this is exactly the zigzag ring; with
    p2p_degree == 1 it is exactly ulysses.
    """
    return _run_attention("two_d", mesh, plan, q_shards, k_shards, v_shards, spec,
                          kv_replication, fault)


# ---------------------------------------------------------------------------
# Uniform front door used by verification and the CLI
# ---------------------------------------------------------------------------

def plan_for_strategy(config: StrategyConfig, length: int) -> ShardPlan:
    """The shard plan a strategy runs on, for an already-divisible length."""
    return ShardPlan(plan_kind(config.kind), config.sp_degree, length, length)


def execute_strategy(mesh: DeviceMesh, config: StrategyConfig, spec: AttentionSpec,
                     q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     fault=None) -> StrategyRun:
    """Shard global q/k/v per the strategy's plan, run it, return the result.

    Inputs are global (heads, length, head_dim) arrays whose length already
    divides the plan granule.  The mesh must have the config's (a2a, p2p)
    factorisation of the world.
    """
    config.check_mesh(mesh)
    plan = plan_for_strategy(config, q.shape[1])
    # Built per call, so a wrapper later set on these names (perfbench's tracer) runs.
    run = {"naive_ring": ring_attention, "zigzag_ring": zigzag_ring_attention,
           "ulysses": ulysses_attention, "two_d": attention_2d}[config.kind]
    extra = () if config.kind in RING_KINDS else (config.kv_replication,)
    q_shards = plan.shard(q, axis=1)
    k_shards = plan.shard(k, axis=1)
    v_shards = plan.shard(v, axis=1)
    outputs, log = run(mesh, plan, q_shards, k_shards, v_shards, spec, *extra, fault=fault)
    return StrategyRun(config=config, plan=plan, outputs=outputs, log=log)
