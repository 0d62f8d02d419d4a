"""Command-line entry point: verification suites, simulations, profiles, plans.

One scenario per invocation, described by a JSON config with strict
unknown-key rejection (silent config typos are the dominant failure mode in
simulators).  Every command re-run with the same scenario and seed produces
byte-identical output; every CSV carries a header row and a trailing
metadata comment with the tool version and seed.

Exit codes: 0 ok, 1 verification failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import __version__, perf
from .fabric import (
    DEFAULT_INTER_BW,
    DEFAULT_INTER_LATENCY,
    DEFAULT_INTRA_BW,
    DEFAULT_INTRA_LATENCY,
    FaultInjection,
    Topology,
    build_mesh,
)
from .inference import pipeline_baseline, sp_inference_report
from .numeric import reference_attention
from .sharding import load_samples, plan_granule
from .strategies import (
    STRATEGY_KINDS,
    StrategyConfig,
    StrategyConfigError,
    execute_strategy,
    packed_a2a_degree,
    resolve_strategy,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2

ORACLE_TOLERANCE = 1e-10
VERIFY_SEEDS = 3
# Bound on the oracle's scores at verify's and simulate's executed length L,
# counted over all heads (num_q_heads x L x L float64), although the oracle
# holds only one KV head's group of them at a time.
MAX_ORACLE_SCORE_BYTES = 1 << 30


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

# Every scenario key: path -> (type, limit, default).  The limit is a bound
# (">= n" or "> n") or the tuple of allowed values; an integer must be a JSON
# integer and a number (float) must be finite.  Null is accepted only for the
# keys in _NULLABLE, whose default is null.  Without a seq_len each command
# uses its own default length.
SCENARIO_KEYS = {
    "topology.nodes": (int, ">= 1", 2),
    "topology.gpus_per_node": (int, ">= 1", 8),
    "topology.intra_bw_gbps": (float, "> 0", DEFAULT_INTRA_BW / 1e9),
    "topology.inter_bw_gbps": (float, "> 0", DEFAULT_INTER_BW / 1e9),
    "topology.latency_us_intra": (float, ">= 0", DEFAULT_INTRA_LATENCY * 1e6),
    "topology.latency_us_inter": (float, ">= 0", DEFAULT_INTER_LATENCY * 1e6),
    "model": (str, perf.PROFILE_NAMES, "8b"),
    "strategy.kind": (str, STRATEGY_KINDS, "two_d"),
    "strategy.a2a": (int, ">= 0", 0),
    "strategy.p2p": (int, ">= 0", 0),
    "strategy.kv_replication": (bool, None, False),
    "workload.seq_len": (int, ">= 1", None),
    "workload.frames": (int, ">= 0", 0),
    "workload.tokens_per_frame": (int, ">= 1", 256),
    "workload.samples_file": (str, None, None),
    "seed": (int, ">= 0", 0),
    "out": (str, None, None),
    "inject_fault_message": (int, ">= 0", None),
}
_NULLABLE = {"workload.samples_file", "out", "inject_fault_message"}
_SECTIONS = ("topology", "strategy", "workload")
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a path"}
# Command-line flag (argparse dest) -> the scenario key it overrides.
_FLAG_KEYS = {"seed": "seed", "out": "out", "strategy": "strategy.kind",
              "a2a": "strategy.a2a", "p2p": "strategy.p2p", "seq_len": "workload.seq_len",
              "model": "model"}


@dataclass
class Scenario:
    topology: Topology
    model: str
    strategy: StrategyConfig
    seq_len: int | None  # None: the command's default length
    frames: int
    tokens_per_frame: int
    samples_file: str | None
    seed: int
    out: str | None
    inject_fault_message: int | None


def _has_type(kind: type, value) -> bool:
    # bool is a subclass of int: true/false fit only a bool key.
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check(path: str, value):
    """Return ``value`` if it is valid for the scenario key ``path``."""
    kind, limit, _default = SCENARIO_KEYS[path]
    if value is None and path in _NULLABLE:
        return value
    if isinstance(limit, tuple):
        if value not in limit:
            raise ConfigError(f"{path}: must be one of {', '.join(limit)}, got {value!r}")
        return value
    if not _has_type(kind, value):
        raise ConfigError(f"{path}: must be {_TYPE_NAMES[kind]}, got {value!r}")
    if limit is not None:
        op, bound = limit.split()
        if not (value > float(bound) if op == ">" else value >= float(bound)):
            raise ConfigError(f"{path}: must be {limit}, got {value}")
    return value


def load_scenario(path: str | None, overrides: argparse.Namespace) -> Scenario:
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    given = {}
    for section in ("scenario",) + _SECTIONS:
        mapping = raw if section == "scenario" else raw.get(section, {})
        if not isinstance(mapping, dict):
            raise ConfigError(f"{section}: must be an object")
        prefix = "" if section == "scenario" else section + "."
        for key, value in mapping.items():
            if section == "scenario" and key in _SECTIONS:
                continue
            if "." in key or prefix + key not in SCENARIO_KEYS:
                raise ConfigError(f"unknown key '{section}.{key}'")
            given[prefix + key] = value
    for flag, key in _FLAG_KEYS.items():
        if getattr(overrides, flag, None) is not None:
            given[key] = getattr(overrides, flag)
    cfg = {
        key: _check(key, given[key]) if key in given else default
        for key, (_kind, _limit, default) in SCENARIO_KEYS.items()
    }

    topology = Topology(
        num_nodes=cfg["topology.nodes"],
        gpus_per_node=cfg["topology.gpus_per_node"],
        intra_node_bandwidth=float(cfg["topology.intra_bw_gbps"]) * 1e9,
        inter_node_bandwidth=float(cfg["topology.inter_bw_gbps"]) * 1e9,
        intra_node_latency=float(cfg["topology.latency_us_intra"]) * 1e-6,
        inter_node_latency=float(cfg["topology.latency_us_inter"]) * 1e-6,
    )
    model = cfg["model"]
    spec = perf.model_profile(model).spec
    kind, a2a, p2p = cfg["strategy.kind"], cfg["strategy.a2a"], cfg["strategy.p2p"]
    if kind == "two_d" and not a2a and not p2p:
        a2a = packed_a2a_degree(spec, topology)
    try:
        strategy = resolve_strategy(spec, topology.world_size, kind, a2a, p2p,
                                    cfg["strategy.kv_replication"])
    except StrategyConfigError as exc:
        raise ConfigError(f"strategy: {exc}") from exc

    return Scenario(
        topology=topology,
        model=model,
        strategy=strategy,
        seq_len=cfg["workload.seq_len"],
        frames=cfg["workload.frames"],
        tokens_per_frame=cfg["workload.tokens_per_frame"],
        samples_file=cfg["workload.samples_file"],
        seed=cfg["seed"],
        out=cfg["out"],
        inject_fault_message=cfg["inject_fault_message"],
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(out_path: str | None, header, rows, seed: int) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return emit_text(out_path, lines, seed)


def emit_text(out_path: str | None, lines, seed: int) -> str:
    body = list(lines)
    body.append(f"# spsim {__version__} seed={seed}")
    text = "\n".join(body) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _sidecar(out_path: str | None, suffix: str) -> str | None:
    if out_path is None:
        return None
    return f"{out_path}.{suffix}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verification_strategies(scenario: Scenario) -> list[StrategyConfig]:
    """The scenario's strategy, then every other kind valid at this world size."""
    spec = perf.model_profile(scenario.model).spec
    world = scenario.topology.world_size
    configs = [scenario.strategy]
    for kind, a2a in (("naive_ring", 1), ("zigzag_ring", 1), ("ulysses", world),
                      ("two_d", packed_a2a_degree(spec, scenario.topology))):
        try:
            cfg = resolve_strategy(spec, world, kind, a2a)
        except StrategyConfigError:
            continue
        if cfg not in configs:
            configs.append(cfg)
    return configs


def _verify_length(scenario: Scenario) -> int:
    """The executed length of verify and simulate, refused if it cannot fit."""
    granule = plan_granule("zigzag", scenario.topology.world_size)  # suits every kind
    seq_len = scenario.seq_len or 192
    length = max(granule, seq_len - seq_len % granule)
    heads = perf.model_profile(scenario.model).spec.num_q_heads
    score_bytes = heads * length * length * 8
    if score_bytes > MAX_ORACLE_SCORE_BYTES:
        raise ConfigError(
            f"workload.seq_len: executed length {length} needs a "
            f"{score_bytes / 2**30:.3g} GiB oracle score array ({heads} heads x "
            f"{length} x {length} x 8 bytes); the limit is "
            f"{MAX_ORACLE_SCORE_BYTES / 2**30:g} GiB"
        )
    return length


def comm_model_ok(volume: dict, messages: Counter, log) -> bool:
    """Whether a CommLog matches the analytic model exactly: its byte totals
    per (kind, link), then its multiset of (src, dst, nbytes, kind) messages."""
    totals_ok = all(
        perf.volume_total(volume, kind, link) == log.total_bytes(kind=kind, link=link)
        for kind in ("p2p", "a2a")
        for link in ("intra", "inter")
    )
    return totals_ok and Counter((r.src, r.dst, r.nbytes, r.kind) for r in log.records) \
        == messages


def cmd_verify(scenario: Scenario) -> int:
    spec = perf.model_profile(scenario.model).spec
    world = scenario.topology.world_size
    length = _verify_length(scenario)
    configs = verification_strategies(scenario)
    rows_of = [[] for _ in configs]  # per strategy, so the CSV stays config-major
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        meshes = [build_mesh(scenario.topology, cfg.a2a_degree, cfg.p2p_degree)
                  for cfg in configs]
        predicted = [perf.comm_volume(cfg, spec, length, mesh)
                     for cfg, mesh in zip(configs, meshes)]
        messages = [Counter(perf.strategy_messages(cfg, spec, length, mesh))
                    for cfg, mesh in zip(configs, meshes)]
        fault_index = scenario.inject_fault_message
        if fault_index is not None and fault_index >= messages[0].total():
            raise ConfigError(
                f"inject_fault_message: index {fault_index} is out of range: strategy "
                f"{configs[0].kind} (a2a {configs[0].a2a_degree}, p2p "
                f"{configs[0].p2p_degree}) sends {messages[0].total()} messages per run"
            )
        for seed_index in range(VERIFY_SEEDS):
            rng = np.random.default_rng([scenario.seed, seed_index])
            q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
            k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
            v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
            oracle = reference_attention(q, k, v, spec)
            for index, (cfg, mesh) in enumerate(zip(configs, meshes)):
                fault = None
                if fault_index is not None and index == 0:
                    fault = FaultInjection(fault_index)
                run = execute_strategy(mesh, cfg, spec, q, k, v, fault=fault)
                log = run.log
                diff = run.gathered()
                del run  # its per-rank outputs die before the next run executes
                diff -= oracle
                diff = float(np.max(np.abs(diff, out=diff)))
                ok = diff < ORACLE_TOLERANCE
                detail = ""
                if log.tampered:
                    src, _dst, step, _idx = log.tampered[0]
                    detail = f"tampered message from rank {src} at step {step}"
                rows_of[index].append((
                    "oracle", cfg.kind, cfg.a2a_degree, cfg.p2p_degree,
                    seed_index, "pass" if ok else "FAIL", diff, detail))
                failures += 0 if ok else 1

                bytes_ok = comm_model_ok(predicted[index], messages[index], log)
                rows_of[index].append((
                    "comm_model", cfg.kind, cfg.a2a_degree, cfg.p2p_degree,
                    seed_index, "pass" if bytes_ok else "FAIL", 0.0, ""))
                failures += 0 if bytes_ok else 1
    rows = [row for config_rows in rows_of for row in config_rows]
    header = ("check", "strategy", "a2a", "p2p", "seed", "status", "max_abs_diff",
              "detail")
    emit_csv(scenario.out, header, rows, scenario.seed)
    summary = (
        f"verify: {len(configs)} strategies x {VERIFY_SEEDS} seeds at "
        f"seq={length}, world={world}: "
        f"{'all passing' if failures == 0 else f'{failures} FAILURES'}"
    )
    print(summary, file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(scenario: Scenario) -> int:
    profile = perf.model_profile(scenario.model)
    topology = scenario.topology
    length = _verify_length(scenario)
    samples = None
    if scenario.samples_file:  # read before any output, so a bad file writes nothing
        try:
            samples = load_samples(scenario.samples_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"workload.samples_file: {exc}") from exc
    world = topology.world_size
    sweep = [per_device * world for per_device in
             (1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216, 10240)]
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cfg in verification_strategies(scenario):
            mesh = build_mesh(topology, cfg.a2a_degree, cfg.p2p_degree)
            for seq in sweep:
                volume = perf.comm_volume(cfg, profile.spec, seq, mesh)
                rows.append((
                    cfg.kind,
                    seq,
                    perf.iteration_time(cfg, profile, topology, seq,
                                        num_frames=scenario.frames),
                    perf.volume_total(volume, link="inter"),
                    perf.volume_total(volume, link="intra"),
                    perf.peak_memory_per_rank(profile, world, cfg.sp_degree, seq),
                ))
    header = ("strategy", "seq_len", "est_iter_s", "inter_node_bytes",
              "intra_node_bytes", "peak_mem")
    emit_csv(scenario.out, header, rows, scenario.seed)

    # desk-scale execution of the scenario strategy: exact CommLog dump
    spec = profile.spec
    rng = np.random.default_rng([scenario.seed])
    q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
    k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = build_mesh(topology, scenario.strategy.a2a_degree,
                          scenario.strategy.p2p_degree)
        run = execute_strategy(mesh, scenario.strategy, spec, q, k, v)
    log_rows = run.log.to_rows()
    emit_csv(_sidecar(scenario.out, "commlog.csv"),
             ("step", "kind", "src", "dst", "bytes", "link"), log_rows, scenario.seed)

    if samples is not None:
        gain_rows = []
        sp = 2
        while sp <= world:
            one, two = perf.two_stage_gain(
                samples, sp, profile, tokens_per_frame=scenario.tokens_per_frame)
            gain_rows.append((sp, one, two, (one - two) / one))
            sp *= 2
        emit_csv(_sidecar(scenario.out, "twostage.csv"),
                 ("sp_degree", "one_stage_s", "two_stage_s", "gain"),
                 gain_rows, scenario.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile / plan / infer
# ---------------------------------------------------------------------------

def cmd_profile(scenario: Scenario) -> int:
    name = scenario.model
    rows_published = perf.reference_rows(name)
    if not rows_published:
        raise ConfigError(
            f"model: no measured complexity rows for {name!r}; "
            f"available: {', '.join(n for n in perf.PROFILE_NAMES if perf.reference_rows(n))}"
        )
    profile = perf.model_profile(name)
    out_rows = []
    for row in rows_published:
        predicted = perf.flops_profile(profile, row.frames, row.context)
        for component in perf.COMPONENTS:
            pred_tf = predicted[component] / 1e12
            published = row.tflops[component]
            rel_err = abs(pred_tf - published) / published
            out_rows.append((row.frames, row.context, component, pred_tf,
                             published, rel_err))
    header = ("frames", "context", "component", "predicted_tflops",
              "published_tflops", "rel_err")
    emit_csv(scenario.out, header, out_rows, scenario.seed)
    return EXIT_OK


def cmd_plan(scenario: Scenario) -> int:
    profile = perf.model_profile(scenario.model)
    seq = scenario.seq_len or 131072
    chosen = perf.plan(scenario.topology, profile, seq)
    predicted = perf.iteration_time(chosen, profile, scenario.topology, seq)
    lines = [
        f"model = {scenario.model}",
        f"seq_len = {seq}",
        f"kind = {chosen.kind}",
        f"a2a = {chosen.a2a_degree}",
        f"p2p = {chosen.p2p_degree}",
        f"kv_replication = {'true' if chosen.kv_replication else 'false'}",
        f"predicted_iteration_s = {predicted:.12g}",
    ]
    emit_text(scenario.out, lines, scenario.seed)
    return EXIT_OK


def cmd_infer(scenario: Scenario) -> int:
    profile = perf.model_profile(scenario.model)
    spec = profile.spec
    topology = scenario.topology
    seq = scenario.seq_len or 98304
    stages = topology.world_size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = build_mesh(topology, scenario.strategy.a2a_degree,
                          scenario.strategy.p2p_degree)
        pipe = pipeline_baseline(topology, spec, seq, stages)
        sp = sp_inference_report(mesh, spec, seq)
    rows = list(pipe.rows()) + list(sp.rows())
    header = ("mode", "device", "busy_s", "idle_s", "peak_mem_bytes")
    emit_csv(scenario.out, header, rows, scenario.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Sub-command -> (handler, help text).
COMMANDS = {
    "verify": (cmd_verify, "run oracle-equivalence and invariant suites"),
    "simulate": (cmd_simulate, "emit iteration-time/communication sweep and a CommLog dump"),
    "profile": (cmd_profile, "reproduce the measured complexity table"),
    "plan": (cmd_plan, "pick the fastest strategy for the topology"),
    "infer": (cmd_infer, "emit pipeline vs sequence-parallel inference schedules"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsim",
        description="Deterministic desk-scale simulator for sequence-parallel attention",
    )
    parser.add_argument("--version", action="version", version=f"spsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, helptext) in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", metavar="PATH", default=None)
        cmd.add_argument("--seed", type=int, default=None, metavar="N")
        cmd.add_argument("--out", metavar="PATH", default=None)
        cmd.add_argument("--strategy", choices=STRATEGY_KINDS, default=None,
                         metavar="KIND")
        cmd.add_argument("--a2a", type=int, default=None, metavar="N")
        cmd.add_argument("--p2p", type=int, default=None, metavar="N")
        cmd.add_argument("--seq-len", dest="seq_len", type=int, default=None,
                         metavar="N")
        if name == "profile":
            cmd.add_argument("--model", default=None, metavar="NAME")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][0](load_scenario(args.config, args))
    except (ConfigError, StrategyConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
