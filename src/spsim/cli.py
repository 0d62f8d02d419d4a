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
from dataclasses import dataclass

import numpy as np

from . import __version__, perf
from .fabric import FaultInjection, Topology, build_mesh, topology_from_dict
from .inference import pipeline_baseline, sp_inference_report
from .numeric import reference_attention
from .sharding import load_samples
from .strategies import (
    STRATEGY_KINDS,
    StrategyConfig,
    StrategyConfigError,
    execute_strategy,
    plan_granule,
    resolve_strategy,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2

ORACLE_TOLERANCE = 1e-10
VERIFY_SEEDS = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {"topology", "model", "strategy", "workload", "seed", "out",
             "inject_fault_message"}
_STRATEGY_KEYS = {"kind", "a2a", "p2p", "kv_replication"}
_WORKLOAD_KEYS = {"seq_len", "frames", "tokens_per_frame", "samples_file"}


@dataclass
class Scenario:
    topology: Topology
    model: str
    strategy: StrategyConfig
    seq_len: int
    seq_len_explicit: bool
    frames: int
    tokens_per_frame: int
    samples_file: str | None
    seed: int
    out: str | None
    inject_fault_message: int | None


def _reject_unknown(mapping: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'")


def _auto_a2a(topology: Topology, model: str) -> int:
    spec = perf.model_profile(model).spec
    best = 1
    for degree in range(1, min(topology.gpus_per_node, topology.world_size) + 1):
        if topology.world_size % degree != 0:
            continue
        if spec.num_kv_heads % degree != 0:
            continue
        best = degree
    return best


def _int(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _strategy_from_config(cfg: dict, topology: Topology, model: str) -> StrategyConfig:
    _reject_unknown(cfg, _STRATEGY_KEYS, "strategy")
    kind = cfg.get("kind", "two_d")
    if kind not in STRATEGY_KINDS:
        raise ConfigError(
            f"strategy.kind: unknown strategy {kind!r} "
            f"(expected one of {', '.join(STRATEGY_KINDS)})"
        )
    a2a = _int(cfg.get("a2a", 0), "strategy.a2a", 0)
    p2p = _int(cfg.get("p2p", 0), "strategy.p2p", 0)
    kv_replication = cfg.get("kv_replication", False)
    if not isinstance(kv_replication, bool):
        raise ConfigError(
            f"strategy.kv_replication: must be true or false, got {kv_replication!r}"
        )
    if kind == "two_d" and not a2a and not p2p:
        a2a = _auto_a2a(topology, model)
    try:
        return resolve_strategy(perf.model_profile(model).spec, topology.world_size,
                                kind, a2a, p2p, kv_replication)
    except StrategyConfigError as exc:
        raise ConfigError(f"strategy: {exc}") from exc


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
    _reject_unknown(raw, _TOP_KEYS, "scenario")

    topo_cfg = raw.get("topology", {})
    if not isinstance(topo_cfg, dict):
        raise ConfigError("topology: must be an object")
    try:
        topology = topology_from_dict({
            "nodes": 2, "gpus_per_node": 8, **topo_cfg,
        })
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from exc

    model = raw.get("model", "8b")
    if model not in perf.PROFILE_NAMES:
        raise ConfigError(
            f"model: unknown model profile {model!r}; "
            f"available: {', '.join(perf.PROFILE_NAMES)}"
        )

    workload = raw.get("workload", {})
    if not isinstance(workload, dict):
        raise ConfigError("workload: must be an object")
    _reject_unknown(workload, _WORKLOAD_KEYS, "workload")

    strategy_cfg = raw.get("strategy", {})
    if not isinstance(strategy_cfg, dict):
        raise ConfigError("strategy: must be an object")

    seed = overrides.seed if overrides.seed is not None else raw.get("seed", 0)
    seed = _int(seed, "seed", 0)
    seq_len_explicit = (
        getattr(overrides, "seq_len", None) is not None or "seq_len" in workload
    )
    seq_len = (
        overrides.seq_len
        if getattr(overrides, "seq_len", None) is not None
        else workload.get("seq_len", 192)
    )
    seq_len = _int(seq_len, "workload.seq_len", 1)
    samples_file = workload.get("samples_file")
    if samples_file is not None and not isinstance(samples_file, str):
        raise ConfigError(f"workload.samples_file: must be a path, got {samples_file!r}")
    out = overrides.out if overrides.out is not None else raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: must be a path, got {out!r}")
    fault = raw.get("inject_fault_message")
    if fault is not None:
        fault = _int(fault, "inject_fault_message", 0)

    for key, value in (("kind", overrides.strategy), ("a2a", overrides.a2a),
                       ("p2p", overrides.p2p)):
        if value is not None:
            strategy_cfg = {**strategy_cfg, key: value}
    strategy = _strategy_from_config(strategy_cfg, topology, model)

    return Scenario(
        topology=topology,
        model=model,
        strategy=strategy,
        seq_len=seq_len,
        seq_len_explicit=seq_len_explicit,
        frames=_int(workload.get("frames", 0), "workload.frames", 0),
        tokens_per_frame=_int(workload.get("tokens_per_frame", 256),
                              "workload.tokens_per_frame", 1),
        samples_file=samples_file,
        seed=seed,
        out=out,
        inject_fault_message=fault,
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
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.append(f"# spsim {__version__} seed={seed}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


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
                      ("two_d", _auto_a2a(scenario.topology, scenario.model))):
        try:
            cfg = resolve_strategy(spec, world, kind, a2a)
        except StrategyConfigError:
            continue
        if cfg not in configs:
            configs.append(cfg)
    return configs


def _verify_length(scenario: Scenario) -> int:
    granule = plan_granule("zigzag", scenario.topology.world_size)  # suits every kind
    return max(granule, scenario.seq_len - scenario.seq_len % granule)


def cmd_verify(scenario: Scenario) -> int:
    spec = perf.model_profile(scenario.model).spec
    world = scenario.topology.world_size
    length = _verify_length(scenario)
    configs = verification_strategies(scenario)
    rows = []
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cfg in configs:
            mesh = build_mesh(scenario.topology, cfg.a2a_degree, cfg.p2p_degree)
            for seed_index in range(VERIFY_SEEDS):
                rng = np.random.default_rng([scenario.seed, seed_index])
                q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
                k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
                v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
                fault = None
                if scenario.inject_fault_message is not None and cfg == configs[0]:
                    fault = FaultInjection(scenario.inject_fault_message)
                run = execute_strategy(mesh, cfg, spec, q, k, v, fault=fault)
                oracle = reference_attention(q, k, v, spec)
                diff = float(np.max(np.abs(run.gathered() - oracle)))
                ok = diff < ORACLE_TOLERANCE
                detail = ""
                if run.log.tampered:
                    src, _dst, step, _idx = run.log.tampered[0]
                    detail = f"tampered message from rank {src} at step {step}"
                rows.append(("oracle", cfg.kind, cfg.a2a_degree, cfg.p2p_degree,
                             seed_index, "pass" if ok else "FAIL", diff, detail))
                failures += 0 if ok else 1

                predicted = perf.comm_volume(cfg, spec, length, mesh)
                bytes_ok = all(
                    perf.volume_total(predicted, kind, link)
                    == run.log.total_bytes(kind=kind, link=link)
                    for kind in ("p2p", "a2a")
                    for link in ("intra", "inter")
                )
                rows.append(("comm_model", cfg.kind, cfg.a2a_degree, cfg.p2p_degree,
                             seed_index, "pass" if bytes_ok else "FAIL", 0.0, ""))
                failures += 0 if bytes_ok else 1
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
    length = _verify_length(scenario)
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

    if scenario.samples_file:
        try:
            samples = load_samples(scenario.samples_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"workload.samples_file: {exc}") from exc
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

def cmd_profile(scenario: Scenario, model_name: str | None) -> int:
    name = model_name or scenario.model
    if name not in perf.PROFILE_NAMES:
        raise ConfigError(
            f"unknown model profile {name!r}; available: {', '.join(perf.PROFILE_NAMES)}"
        )
    rows_published = perf.reference_rows(name)
    if not rows_published:
        raise ConfigError(
            f"no measured complexity rows for {name!r}; "
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
    seq = scenario.seq_len if scenario.seq_len_explicit else 131072
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
    seq = scenario.seq_len if scenario.seq_len_explicit else 98304
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsim",
        description="Deterministic desk-scale simulator for sequence-parallel attention",
    )
    parser.add_argument("--version", action="version", version=f"spsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "run oracle-equivalence and invariant suites"),
        ("simulate", "emit iteration-time/communication sweep and a CommLog dump"),
        ("profile", "reproduce the measured complexity table"),
        ("plan", "pick the fastest strategy for the topology"),
        ("infer", "emit pipeline vs sequence-parallel inference schedules"),
    ):
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
        scenario = load_scenario(args.config, args)
        if args.command == "verify":
            return cmd_verify(scenario)
        if args.command == "simulate":
            return cmd_simulate(scenario)
        if args.command == "profile":
            return cmd_profile(scenario, args.model)
        if args.command == "plan":
            return cmd_plan(scenario)
        if args.command == "infer":
            return cmd_infer(scenario)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except StrategyConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
