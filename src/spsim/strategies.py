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

from .fabric import DeviceMesh, Topology, run_program
from .numeric import (
    AttentionSpec,
    blockwise_attention_step,
    finalize_attention,
    start_fold,
)
from .sharding import ShardPlan, contiguous_shard, shard_plan

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


def resolve_strategy(spec: AttentionSpec, world: int, kind: str | None = None,
                     a2a: int = 0, p2p: int = 0,
                     kv_replication: bool | None = None) -> StrategyConfig:
    """The valid StrategyConfig that factors ``world`` ranks as (a2a, p2p).

    Ring kinds fix a2a at 1 and ulysses fixes p2p at 1; a degree left at 0
    is the world divided by the other (a2a alone defaults to the world).
    Without a kind the degrees name it: a group of one is the zigzag ring,
    a ring of one is ulysses, anything else is two_d.  With
    ``kv_replication`` None, replication is turned on only when the heads
    require it.  Raises StrategyConfigError when the degrees do not factor
    the world, or with the last attempt's error when the heads allow none.
    """
    if kind in RING_KINDS:
        a2a = 1
    elif kind == "ulysses":
        p2p = 1
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

def _ring_pass(handle, ring_group, q, k, v, q_pos, kv_positions_of):
    """Rotate KV around ``ring_group`` and accumulate blockwise attention.

    ``kv_positions_of(member)`` returns the global positions of the KV rows
    originally held by that ring member.  The pass checks ``q`` and its
    positions once, runs its R-1 point-to-point hops, keeping each (k, v)
    tuple the fabric hands over, and then folds the R blocks in hop order
    into one accumulator in place; each received block is still checked.
    Exchanging first keeps the folds back to back on one thread: a fold run
    between two thread handoffs starts on a cold working set and costs
    about 50 % more.  The pass owns the accumulator, so it finalizes into
    it and returns it.
    """
    ring = tuple(ring_group)
    size = len(ring)
    me = ring.index(handle.rank)
    fold = start_fold(q, q_pos)
    dst = ring[(me + 1) % size]
    src = ring[(me - 1) % size]
    blocks = [(k, v)]
    for _ in range(size - 1):
        blocks.append(handle.send_recv(ring, dst, src, blocks[-1]))
    for hop, (k_block, v_block) in enumerate(blocks):
        blockwise_attention_step(fold.state, fold.q, k_block, v_block, fold.q_positions,
                                 kv_positions_of(ring[(me - hop) % size]), out=fold)
    return finalize_attention(fold.state, out=fold)


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

    The a2a group trades sequence sharding for head sharding, the ring
    group rotates KV across groups.  At a2a degree 1 this is the plain KV
    ring over the rank's own plan positions.  Each member's rows in the
    group's sorted positions are found once: the received shards are
    written there, one copy each, and the output is routed back from there.
    Every rank of the group waits in each exchange with its arrays alive,
    so the segments are dropped before the return exchange.
    """
    a2a_group = mesh.a2a_group_of(handle.rank)
    ring_group = mesh.p2p_group_of(handle.rank)
    degree = len(a2a_group)
    if degree == 1:
        return _ring_pass(handle, ring_group, q, k, v, plan.rank_positions(handle.rank),
                          plan.rank_positions)
    effective_kv = effective_kv_heads(spec, degree, kv_replication)
    received = handle.all_to_all(a2a_group, list(zip(
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

    def segment_positions(ring_member):
        return plan.group_positions(mesh.a2a_group_of(ring_member))

    out_seg = _ring_pass(handle, ring_group, *segments, positions, segment_positions)
    del segments
    # Route each member's rows back (in its own plan-local order) and restack heads.
    out_shards = [out_seg.take(member_rows, axis=1) for member_rows in rows]
    del out_seg
    return np.concatenate(handle.all_to_all(a2a_group, out_shards), axis=0)


def _check_shards(plan: ShardPlan, shards, name: str, heads: int, head_dim: int) -> None:
    if len(shards) != plan.sp_degree:
        raise ValueError(f"{name}: expected {plan.sp_degree} shards, got {len(shards)}")
    for rank, shard in enumerate(shards):
        expected = (heads, plan.local_length, head_dim)
        if shard.shape != expected:
            raise ValueError(
                f"{name}[{rank}] has shape {shard.shape}, expected {expected}"
            )


_PLAN_KIND_ERRORS = {
    "naive_ring": "expected a contiguous plan, got {!r}",
    "zigzag_ring": "expected a zigzag plan, got {!r}",
    "ulysses": "ulysses operates on contiguous sequence shards",
    "two_d": "attention_2d requires a zigzag plan",
}


def _run_attention(kind, mesh, plan, q_shards, k_shards, v_shards, spec,
                   kv_replication=False, fault=None):
    """Check the mesh, plan, heads and shards once, then run every rank."""
    if kind in RING_KINDS and mesh.a2a_degree != 1:
        raise ValueError(f"{kind} requires a mesh with a2a_degree == 1")
    if kind == "ulysses" and (mesh.p2p_degree != 1 or mesh.a2a_degree != mesh.world_size):
        raise ValueError("ulysses requires a mesh with p2p_degree == 1 spanning the world")
    if plan.kind != plan_kind(kind):
        raise ValueError(_PLAN_KIND_ERRORS[kind].format(plan.kind))
    if mesh.world_size != plan.sp_degree or mesh.sp_degree != plan.sp_degree:
        raise ValueError(
            f"mesh (world {mesh.world_size}, sp {mesh.sp_degree}) does not match "
            f"plan sp_degree {plan.sp_degree}"
        )
    effective_kv_heads(spec, mesh.a2a_degree, kv_replication)
    _check_shards(plan, q_shards, "q", spec.num_q_heads, spec.head_dim)
    _check_shards(plan, k_shards, "k", spec.num_kv_heads, spec.head_dim)
    _check_shards(plan, v_shards, "v", spec.num_kv_heads, spec.head_dim)

    def program(handle):
        rank = handle.rank
        return attention_rank_body(handle, mesh, plan, spec, q_shards[rank],
                                   k_shards[rank], v_shards[rank], kv_replication)

    return run_program(mesh, program, fault=fault)


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


def ulysses_attention(mesh, q_shards, k_shards, v_shards, spec,
                      kv_replication: bool = False, plan: ShardPlan | None = None,
                      fault=None):
    """All-to-all head sharding over contiguous sequence shards.

    The first exchange turns (seq/P, all heads) into (full seq, heads/P);
    each rank attends its head slice over the whole sequence; the second
    exchange restores sequence sharding.  The degree is capped by the head
    counts: KV heads without replication, query heads with it.
    """
    plan = plan or contiguous_shard(q_shards[0].shape[1] * mesh.a2a_degree, mesh.a2a_degree)
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
    return shard_plan(plan_kind(config.kind), length, config.sp_degree)


def execute_strategy(mesh: DeviceMesh, config: StrategyConfig, spec: AttentionSpec,
                     q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     fault=None) -> StrategyRun:
    """Shard global q/k/v per the strategy's plan, run it, return the result.

    Inputs are global (heads, length, head_dim) arrays whose length already
    divides the plan granule.  The mesh must have the config's (a2a, p2p)
    factorisation and span the world.
    """
    if ((config.a2a_degree, config.p2p_degree) != (mesh.a2a_degree, mesh.p2p_degree)
            or mesh.world_size != mesh.sp_degree):
        raise ValueError(
            f"strategy {config.kind} (a2a {config.a2a_degree}, p2p {config.p2p_degree}) "
            f"does not match mesh (world {mesh.world_size}, a2a {mesh.a2a_degree}, "
            f"p2p {mesh.p2p_degree})"
        )
    config.validate_heads(spec)
    plan = plan_for_strategy(config, q.shape[1])
    q_shards = plan.shard(q, axis=1)
    k_shards = plan.shard(k, axis=1)
    v_shards = plan.shard(v, axis=1)
    if config.kind == "naive_ring":
        outputs, log = ring_attention(mesh, plan, q_shards, k_shards, v_shards, spec,
                                      fault=fault)
    elif config.kind == "zigzag_ring":
        outputs, log = zigzag_ring_attention(mesh, plan, q_shards, k_shards, v_shards,
                                             spec, fault=fault)
    elif config.kind == "ulysses":
        outputs, log = ulysses_attention(
            mesh, q_shards, k_shards, v_shards, spec,
            kv_replication=config.kv_replication, plan=plan, fault=fault,
        )
    else:
        outputs, log = attention_2d(
            mesh, plan, q_shards, k_shards, v_shards, spec,
            kv_replication=config.kv_replication, fault=fault,
        )
    return StrategyRun(config=config, plan=plan, outputs=outputs, log=log)
