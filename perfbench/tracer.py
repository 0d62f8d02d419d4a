"""Outside-in tracing of spsim's layers for the traced benchmark run.

The tracer replaces public functions of the package with timing wrappers
where their callers look them up (``spsim.strategies.run_program``,
``spsim.cli.reference_attention``, the ``RankHandle`` collective methods,
...), records one span per call while a request is in flight, and puts
every original object back on ``uninstall``.  Nothing inside ``src/`` is
changed.

A span is ``(id, name, start, end, parent, request)``.  Spans nest per
thread; a rank program running on a fabric worker thread is parented to
the ``run_program`` call that started it.  ``layer_metrics`` reduces the
spans to self time per layer:

* a span's self time is its duration minus the durations of its children;
* a ``RankHandle`` call only blocks (other ranks run meanwhile), so it has
  no self time of its own and is counted as one rank-op;
* a rank program's self time is its duration minus its children, which
  removes the time it spent blocked in ``RankHandle`` calls; only one rank
  runs at a time, so summing it over ranks gives serial rank compute;
* ``run_program``'s self time is its wall time minus that rank compute:
  the fabric's handoff cost (thread start, event handoffs, scheduling,
  message delivery and logging).

``strategy_messages`` is a generator; its span runs from the first item
the caller asks for to exhaustion, so it covers the consumer's loop body
(pricing each message) as well as the enumeration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

STRATEGY_KIND_FUNCTIONS = {
    "ring_attention": "strategies.naive_ring",
    "zigzag_ring_attention": "strategies.zigzag_ring",
    "ulysses_attention": "strategies.ulysses",
    "attention_2d": "strategies.two_d",
}

HANDLE_METHODS = ("send_recv", "all_to_all", "all_gather", "broadcast")
MODEL_METHODS = ("qkv", "project_out", "logits", "embed")


def wrap_targets(mods):
    """Every (owner, attribute, span name, kind) the tracer wraps.

    ``kind`` is ``call`` for an ordinary function, ``run`` for
    ``run_program``, ``iter`` for a generator and ``step`` for
    ``sp_decode_step``.
    """
    n, f, sh, st, inf, perf, cli = (mods.numeric, mods.fabric, mods.sharding,
                                    mods.strategies, mods.inference, mods.perf, mods.cli)
    targets = []
    for owner in (n, st, inf):
        targets.append((owner, "blockwise_attention_step", "numeric.step", "call"))
    for owner in (n, inf, cli):
        targets.append((owner, "reference_attention", "numeric.oracle", "call"))
    for owner in (n, inf):
        targets.append((owner, "merge_attention_partials", "numeric.merge", "call"))
    for owner in (st, inf):
        targets.append((owner, "run_program", "fabric.run", "run"))
    for method in HANDLE_METHODS:
        targets.append((f.RankHandle, method, "fabric.handle", "call"))
    targets += [
        (sh.ShardPlan, "shard", "sharding.shard", "call"),
        (sh.ShardPlan, "gather", "sharding.gather", "call"),
        (sh, "distribute_images", "sharding.stage1", "call"),
        (sh, "encode_batch", "sharding.stage1", "call"),
        (sh, "globalize_and_pad", "sharding.stage2", "call"),
        (st, "execute_strategy", "strategies.run", "call"),
        (cli, "execute_strategy", "strategies.run", "call"),
    ]
    for attr, name in STRATEGY_KIND_FUNCTIONS.items():
        targets.append((st, attr, name, "call"))
    targets += [
        (inf, "sp_prefill", "inference.prefill", "call"),
        (inf, "sp_decode_step", "inference.decode_step", "step"),
    ]
    for method in MODEL_METHODS:
        targets.append((inf.StubModel, method, "inference.model", "call"))
    targets += [
        (perf, "plan", "perf.plan", "call"),
        (perf, "iteration_time", "perf.iteration_time", "call"),
        (perf, "strategy_messages", "perf.strategy_messages", "iter"),
        (perf, "comm_volume", "perf.comm_volume", "call"),
        (inf, "sp_inference_report", "perf.sp_inference_report", "call"),
        (cli, "sp_inference_report", "perf.sp_inference_report", "call"),
        (cli, "load_scenario", "cli.load_scenario", "call"),
        (cli, "emit_csv", "cli.emit", "call"),
        (cli, "emit_text", "cli.emit", "call"),
    ]
    return targets


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.messages: Counter = Counter()  # (kind, link) -> count
        self.message_bytes: Counter = Counter()  # (kind, link) -> bytes
        self.request: int | None = None  # spans are recorded only while set
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in wrap_targets(self.mods):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, owner))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        request = self.request
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, request))

    def _iter(self, name, iterator):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        request = self.request
        items = 0
        start = time.perf_counter()
        try:
            for item in iterator:
                items += 1
                yield item
        finally:
            self.spans.append((sid, name, start, time.perf_counter(), parent, request))
            self.counts["perf.messages_enumerated"] += items

    def _wrap(self, fn, name, kind, owner):
        tracer = self

        if kind == "iter":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.request is None:
                    return fn(*args, **kwargs)
                return tracer._iter(name, fn(*args, **kwargs))
            return wrapper

        if kind == "run":
            # "strategies.rank" or "inference.rank": who launched the program.
            rank_name = owner.__name__.rsplit(".", 1)[-1] + ".rank"

            @functools.wraps(fn)
            def wrapper(mesh, program, *args, **kwargs):
                if tracer.request is None:
                    return fn(mesh, program, *args, **kwargs)
                sid_box = []

                def traced_program(handle):
                    return tracer._call(rank_name, program, (handle,), {}, parent=sid_box[0])

                def run(*a, **k):
                    sid_box.append(tracer._stack()[-1])
                    return fn(*a, **k)

                outputs, log = tracer._call(name, run, (mesh, traced_program) + args, kwargs)
                for record in log.records:
                    key = (record.kind, record.link)
                    tracer.messages[key] += 1
                    tracer.message_bytes[key] += record.nbytes
                return outputs, log
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            result = tracer._call(name, fn, args, kwargs)
            if kind == "step" and result[1].finished:
                tracer.counts["inference.stops"] += 1
            return result
        return wrapper

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer counts and self seconds, averaged over ``requests``."""
        by_id = {span[0]: span for span in self.spans}
        child_time = defaultdict(float)
        handle_time = defaultdict(float)
        for sid, name, start, end, parent, _req in self.spans:
            if parent is None:
                continue
            if name == "fabric.handle":
                handle_time[parent] += end - start
            child_time[parent] += end - start

        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        rank_compute = defaultdict(float)  # run_program span id -> serial rank compute
        for sid, name, start, end, parent, _req in self.spans:
            duration = end - start
            calls[name] += 1
            inclusive[name] += duration
            if name == "fabric.handle":
                continue
            if name.endswith(".rank"):
                rank_compute[parent] += duration - handle_time[sid]
                # Rank-program glue belongs to the layer that launched it.
                caller = by_id.get(by_id[parent][4]) if parent in by_id else None
                bucket = caller[1] if caller else name
                self_time[bucket] += duration - child_time[sid]
                continue
            if name == "fabric.run":
                self_time[name] += duration - rank_compute[sid]
                continue
            self_time[name] += duration - child_time[sid]

        per = 1.0 / max(requests, 1)
        strategy_self = sum(v for k, v in self_time.items() if k.startswith("strategies."))
        handoff = self_time["fabric.run"]
        rank_ops = calls["fabric.handle"]
        step_calls = calls["numeric.step"]
        metrics = {
            "numeric.step.calls": step_calls * per,
            "numeric.step.s": self_time["numeric.step"] * per,
            "numeric.step.us_per_call":
                self_time["numeric.step"] / step_calls * 1e6 if step_calls else 0.0,
            "numeric.oracle.calls": calls["numeric.oracle"] * per,
            "numeric.oracle.s": self_time["numeric.oracle"] * per,
            "numeric.merge.calls": calls["numeric.merge"] * per,
            "numeric.merge.s": self_time["numeric.merge"] * per,
            "fabric.programs": calls["fabric.run"] * per,
            "fabric.run.s": inclusive["fabric.run"] * per,
            "fabric.rank_ops": rank_ops * per,
            "fabric.handoff.s": handoff * per,
            "fabric.handoff.us_per_op": handoff / rank_ops * 1e6 if rank_ops else 0.0,
            "fabric.errors": self.counts["fabric.run.errors"] * per,
            "fabric.messages": sum(self.messages.values()) * per,
            "fabric.bytes.intra":
                sum(b for (_k, link), b in self.message_bytes.items() if link == "intra") * per,
            "fabric.bytes.inter":
                sum(b for (_k, link), b in self.message_bytes.items() if link == "inter") * per,
            "sharding.shard.calls": calls["sharding.shard"] * per,
            "sharding.shard.s": self_time["sharding.shard"] * per,
            "sharding.gather.s": self_time["sharding.gather"] * per,
            "sharding.stage1.s": self_time["sharding.stage1"] * per,
            "sharding.stage2.s": self_time["sharding.stage2"] * per,
            "strategies.runs": calls["strategies.run"] * per,
            "strategies.run.s": strategy_self * per,
            "inference.prefill.s": self_time["inference.prefill"] * per,
            "inference.decode_steps": calls["inference.decode_step"] * per,
            "inference.decode_step.s": self_time["inference.decode_step"] * per,
            "inference.model.s": self_time["inference.model"] * per,
            "inference.stops": self.counts["inference.stops"] * per,
            "perf.plan.calls": calls["perf.plan"] * per,
            "perf.plan.s": self_time["perf.plan"] * per,
            "perf.iteration_time.calls": calls["perf.iteration_time"] * per,
            "perf.iteration_time.s": self_time["perf.iteration_time"] * per,
            "perf.strategy_messages.calls": calls["perf.strategy_messages"] * per,
            "perf.messages_enumerated": self.counts["perf.messages_enumerated"] * per,
            "perf.strategy_messages.s": self_time["perf.strategy_messages"] * per,
            "perf.comm_volume.s": self_time["perf.comm_volume"] * per,
            "perf.sp_inference_report.s": self_time["perf.sp_inference_report"] * per,
            "cli.load_scenario.s": self_time["cli.load_scenario"] * per,
            "cli.emit.s": self_time["cli.emit"] * per,
        }
        for span_name in STRATEGY_KIND_FUNCTIONS.values():
            # Inclusive: the whole run of that strategy, fabric and kernels included.
            metrics[span_name + ".s"] = inclusive[span_name] * per
        return metrics

    def message_record(self, requests: int) -> dict[str, dict[str, float]]:
        """Simulated messages and bytes per (kind, link), per request."""
        per = 1.0 / max(requests, 1)
        return {
            f"{kind}/{link}": {"messages": self.messages[(kind, link)] * per,
                               "bytes": self.message_bytes[(kind, link)] * per}
            for kind, link in sorted(self.messages)
        }
