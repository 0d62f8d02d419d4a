"""spsim benchmark: one workload per invocation, closed loop, one caller.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

Workloads: ``verify``, ``wide-ring``, ``decode``, ``plan`` (see
``workloads.py`` for what one request is and why each workload exists).
``BENCHMARK.json`` lists the first three; ``plan`` runs the same way by
hand, and ``workloads.py`` says why it is left out of the gated set.

``--trace 0`` measures the end-to-end metrics with no instrumentation:

* ``op_s``: median host seconds of the workload's main call (one
  ``spsim verify``; one wide-ring pass; one decode token step; one
  ``spsim plan``);
* ``setup_s``: median over several set-ups of importing spsim afresh,
  building the inputs and warming up on a tiny input;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` spends half of ``--seconds`` untraced and half traced (whole
cycles of the workload's inputs), and reports the per-layer metrics of
``tracer.py`` per request plus the tracing overhead: the traced median of
the main call against the untraced one.

The process pins itself to one CPU before it imports numpy, so every
thread it starts (the fabric's rank threads, OpenBLAS's) shares that CPU.
The fabric runs one rank at a time however many rank threads it starts.
On a shared 2-vCPU host, letting those threads spread over both CPUs made
the threaded workloads 5-25 % slower.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is a record with the environment, every
named timing of the workload (``verify_s``, ``prefill_s``,
``decode_tok_p90_ms``, ``infer_s``, ...), ``error_rate`` and the
deterministic simulated statistics (messages and bytes per kind and link,
chosen plans).  The record, and the spans of a traced run, are also
written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SPSIM_MODULES = ("numeric", "fabric", "sharding", "strategies", "inference", "perf", "cli")
SETUP_REPEATS = 5

E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Named timings of each workload: record key -> (timing key, reduction, unit).
NAMED = {
    "verify": {"verify_s": ("verify_s", "median", "s")},
    "wide-ring": {"wide_run_s": ("wide_run_s", "median", "s")},
    "decode": {
        "prefill_s": ("prefill_s", "median", "s"),
        "decode_tok_per_s": ("token_s", "rate", "1/s"),
        "decode_tok_p90_ms": ("token_s", "tail_ms", "ms"),
    },
    "plan": {"plan_s": ("plan_s", "median", "s"), "infer_s": ("infer_s", "median", "s")},
}

LAYER_UNITS = {
    "numeric.step.calls": "count/req", "numeric.step.s": "s/req",
    "numeric.step.us_per_call": "us",
    "numeric.oracle.calls": "count/req", "numeric.oracle.s": "s/req",
    "numeric.merge.calls": "count/req", "numeric.merge.s": "s/req",
    "numeric.max_abs_err": "abs",
    "fabric.programs": "count/req", "fabric.run.s": "s/req",
    "fabric.rank_ops": "count/req", "fabric.handoff.s": "s/req",
    "fabric.handoff.us_per_op": "us", "fabric.errors": "count/req",
    "fabric.messages": "count/req", "fabric.bytes.intra": "B/req",
    "fabric.bytes.inter": "B/req",
    "sharding.shard.calls": "count/req", "sharding.shard.s": "s/req",
    "sharding.gather.s": "s/req", "sharding.stage1.s": "s/req",
    "sharding.stage2.s": "s/req",
    "strategies.runs": "count/req", "strategies.run.s": "s/req",
    "strategies.naive_ring.s": "s/req", "strategies.zigzag_ring.s": "s/req",
    "strategies.ulysses.s": "s/req", "strategies.two_d.s": "s/req",
    "inference.prefill.s": "s/req", "inference.decode_steps": "count/req",
    "inference.decode_step.s": "s/req", "inference.model.s": "s/req",
    "inference.stops": "count/req",
    "perf.plan.calls": "count/req", "perf.plan.s": "s/req",
    "perf.iteration_time.calls": "count/req", "perf.iteration_time.s": "s/req",
    "perf.strategy_messages.calls": "count/req", "perf.messages_enumerated": "count/req",
    "perf.strategy_messages.s": "s/req", "perf.comm_volume.s": "s/req",
    "perf.sp_inference_report.s": "s/req",
    "perf.predicted_iter_s": "s", "perf.profile_max_rel_err": "ratio",
    "cli.load_scenario.s": "s/req", "cli.emit.s": "s/req",
    "trace.overhead_pct": "%", "trace.requests": "count",
}


def load_spsim() -> SimpleNamespace:
    """Import every spsim module afresh (module code re-executes)."""
    for name in [n for n in sys.modules if n == "spsim" or n.startswith("spsim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"spsim.{name}")
                              for name in SPSIM_MODULES})


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over the workload's inputs for ``seconds`` of wall time.

    Gates run after each request, outside its timings.  With a tracer the
    loop stops only at the end of a whole cycle of inputs, so per-request
    averages cover every input equally.
    """
    timings: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    failures: list[str] = []
    cycle = workload.cycle or len(workload.items)
    start = perf_counter()
    while True:
        item = workload.items[attempted % len(workload.items)]
        attempted += 1
        try:
            if tracer is not None:
                tracer.request = attempted
            try:
                output = workload.run(item, timings)
            finally:
                if tracer is not None:
                    tracer.request = None
            workload.check(item, output)
        except Exception as exc:  # a failed request is counted, not fatal
            failed += 1
            failures.append(f"{type(exc).__name__}: {exc}")
        if perf_counter() - start >= seconds and (tracer is None or attempted % cycle == 0):
            break
    return {"timings": timings, "attempted": attempted, "failed": failed,
            "failures": failures[:10]}


def tail_index(n: int) -> int:
    """Index of the p90 sample, or of the highest one with ten samples beyond it."""
    return max(0, min(math.ceil(0.9 * n) - 1, n - 11))


def reduce_named(workload_name: str, timings) -> dict:
    named = {}
    for key, (source, how, unit) in NAMED[workload_name].items():
        values = timings.get(source, [])
        if not values:
            continue
        if how == "median":
            value = statistics.median(values)
        elif how == "rate":
            value = len(values) / sum(values)
        else:
            ordered = sorted(values)
            index = tail_index(len(ordered))
            value = ordered[index] * 1e3
            named[key + ".percentile"] = {"value": 100.0 * (index + 1) / len(ordered),
                                          "unit": "%"}
        named[key] = {"value": value, "unit": unit, "samples": len(values)}
    return named


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> None:
    """Pin this process, and every thread it starts later, to its highest allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(workload, numpy_module, numpy_import_s: float) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "numpy_import_s": numpy_import_s,
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caller_threads": 1,
        # The fabric starts one OS thread per rank for every run_program call,
        # and only one of them runs at a time.
        "fabric_threads_per_program": workload.world,
    }


def layer_metrics(workload, tracer, base: dict, traced: dict) -> dict:
    requests = traced["attempted"]
    metrics = tracer.layer_metrics(requests)
    metrics["numeric.max_abs_err"] = workload.max_abs_err
    metrics["perf.predicted_iter_s"] = workload.predicted_iter_s
    metrics["perf.profile_max_rel_err"] = workload.profile_max_rel_err
    untraced = statistics.median(base["timings"][workload.primary])
    with_trace = statistics.median(traced["timings"][workload.primary])
    metrics["trace.overhead_pct"] = (with_trace / untraced - 1.0) * 100.0
    metrics["trace.requests"] = requests
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def write_outputs(out_dir: Path, stem: str, record: dict, tracer) -> None:
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt", compresslevel=1,
                       encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spsim" / "__init__.py").is_file():
        print(f"perfbench: no spsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    start = perf_counter()
    import numpy
    numpy_import_s = perf_counter() - start
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    tracer = None
    phases: list[dict] = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            mods = load_spsim()
            workload = WORKLOADS[args.workload](mods, args.seed, tmpdir)
            workload.warm_up()
            setups.append(perf_counter() - start)

        if args.trace:
            from tracer import Tracer
            phases = [measure(workload, args.seconds / 2)]
            tracer = Tracer(mods)
            tracer.install()
            try:
                phases.append(measure(workload, args.seconds / 2, tracer))
            finally:
                tracer.uninstall()
            base, traced = phases
            metrics = layer_metrics(workload, tracer, base, traced)
            messages = tracer.message_record(traced["attempted"])
        else:
            phases.append(measure(workload, args.seconds))
            timings = phases[0]["timings"][workload.primary]
            metrics = {
                "op_s": statistics.median(timings),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
            messages = None
    except statistics.StatisticsError:
        failures = [f for p in phases for f in p["failures"]]
        print(f"perfbench: no {args.workload} request completed: {failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    named = reduce_named(args.workload, phases[0]["timings"])
    named["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                        "samples": len(setups)}
    named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(workload, numpy, numpy_import_s),
        "named": named, "samples": {**phases[0]["timings"], "setup_s": setups},
        "failures": [f for p in phases for f in p["failures"]],
        "simulated": {"workload": workload.stats, "messages_per_request": messages},
        "result": result,
    }
    write_outputs(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}", record,
                  tracer)
    for key, entry in named.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
