"""CLI: subcommands, config validation, determinism, fault injection."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spsim
from spsim import cli, perf
from spsim.cli import (SCENARIO_KEYS, ConfigError, _verify_length, comm_model_ok,
                       load_scenario, main, verification_strategies)
from spsim.fabric import CommLog, Topology, build_mesh
from spsim.numeric import AttentionSpec
from spsim.strategies import (STRATEGY_KINDS, StrategyConfig, execute_strategy,
                              packed_a2a_degree)

SMALL_SCENARIO = {
    "topology": {"nodes": 2, "gpus_per_node": 2},
    "model": "7b",
    "workload": {"seq_len": 64},
    "seed": 3,
}


def write_config(tmp_path, payload, name="scenario.json"):
    """Write ``payload`` as JSON; a str payload is written as raw JSON text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def _linked_messages(cfg, spec, length, mesh):
    """The analytic messages of one pass as verify counts them, with links."""
    link = mesh.topology.link_class
    return Counter((src, dst, nbytes, kind, link(src, dst))
                   for src, dst, nbytes, kind in perf.strategy_messages(cfg, spec, length, mesh))


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"modle": "7b"})
        assert run_cli("plan", "--config", cfg) == 2
        assert "unknown key 'scenario.modle'" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,needles", [
        pytest.param({"strategy": {"kind": "ringg"}}, ("strategy.kind", "ringg"),
                     id="strategy-kind"),
        pytest.param({"strategy": {"kind": "two_d", "a2a": 3}},
                     ("strategy:", "a2a 3 x p2p 5", "world size 16"), id="a2a-not-factor"),
        pytest.param({"strategy": {"kind": "ulysses", "a2a": 16}},
                     ("strategy:", "degree 16 exceeds 8 KV heads"), id="a2a-over-kv-heads"),
        pytest.param({"seed": "x"}, ("seed:", "'x'"), id="seed-string"),
        pytest.param({"workload": {"frames": "2.5"}}, ("workload.frames:", "'2.5'"),
                     id="frames-string"),
        pytest.param({"workload": {"frames": -3}}, ("workload.frames:", ">= 0"),
                     id="frames-negative"),
        pytest.param({"strategy": {"kv_replication": "false"}},
                     ("strategy.kv_replication:", "'false'"), id="kv-replication-string"),
        pytest.param({"topology": {"nodes": 2.5}}, ("topology.nodes:", "2.5"),
                     id="nodes-float"),
        pytest.param({"topology": {"nodes": True}}, ("topology.nodes:", "True"),
                     id="nodes-bool"),
        pytest.param({"topology": {"nodes": "2"}}, ("topology.nodes:", "'2'"),
                     id="nodes-string"),
        pytest.param({"topology": {"intra_bw_gbps": None}},
                     ("topology.intra_bw_gbps:", "None"), id="intra-bw-null"),
        pytest.param('{"topology": {"gpus_per_node": 1e400}}',
                     ("topology.gpus_per_node:", "inf"), id="gpus-per-node-overflow"),
        pytest.param({"topology": {"intra_bw_gbps": "fast"}},
                     ("topology.intra_bw_gbps:", "'fast'"), id="intra-bw-string"),
        pytest.param({"topology": {"inter_bw_gbps": 0}},
                     ("topology.inter_bw_gbps:", "> 0"), id="inter-bw-zero"),
        pytest.param('{"topology": {"latency_us_inter": NaN}}',
                     ("topology.latency_us_inter:", "nan"), id="latency-nan"),
        pytest.param({"topology": {"nodes": 2, "gpu_per_node": 8}},
                     ("unknown key 'topology.gpu_per_node'",), id="topology-unknown-key"),
    ])
    def test_invalid_value_names_the_key(self, tmp_path, capsys, payload, needles):
        cfg = write_config(tmp_path, payload)
        for command in ("verify", "simulate", "plan", "infer"):
            assert run_cli(command, "--config", cfg) == 2, command
            err = capsys.readouterr().err
            assert all(needle in err for needle in needles), (command, err)

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_oversized_executed_length_is_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"topology": {"nodes": 1, "gpus_per_node": 2},
                                      "workload": {"seq_len": 1000000000000}})
        out = tmp_path / "out.csv"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert "workload.seq_len:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "simulate", "plan"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_refused(self, tmp_path, capsys, monkeypatch, command, target):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the out refusal")

        monkeypatch.setattr(cli, "execute_strategy", no_work)
        monkeypatch.setattr(perf, "comm_volume", no_work)
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        cfg = write_config(tmp_path, {**SMALL_SCENARIO, "out": str(out)})
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
        assert err == f"config error: out: cannot write {out}: {reason}\n"

    def test_executed_length_limit_boundary(self, tmp_path):
        # 8b: 32 heads x 2048 x 2048 x 8 bytes is exactly the 1 GiB limit.
        cfg = write_config(tmp_path, {"topology": {"nodes": 1, "gpus_per_node": 2},
                                      "model": "8b"})
        assert _verify_length(load_scenario(cfg, argparse.Namespace(seq_len=2051))) == 2048
        with pytest.raises(ConfigError, match="workload.seq_len: executed length 2052"):
            _verify_length(load_scenario(cfg, argparse.Namespace(seq_len=2052)))

    def test_topology_keys_convert_units(self, tmp_path):
        cfg = write_config(tmp_path, {"topology": {
            "nodes": 2, "gpus_per_node": 8,
            "intra_bw_gbps": 900, "inter_bw_gbps": 50,
            "latency_us_intra": 2, "latency_us_inter": 10,
        }})
        topo = load_scenario(cfg, argparse.Namespace()).topology
        assert topo.world_size == 16
        assert topo.intra_node_bandwidth == pytest.approx(900e9)
        assert topo.inter_node_bandwidth == pytest.approx(50e9)
        assert topo.intra_node_latency == pytest.approx(2e-6)
        assert topo.inter_node_latency == pytest.approx(10e-6)

    def test_topology_unknown_key_is_named(self, tmp_path):
        cfg = write_config(tmp_path, {"topology": {"nodes": 2, "gpu_per_node": 8}})
        with pytest.raises(ConfigError, match="gpu_per_node"):
            load_scenario(cfg, argparse.Namespace())

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": }')
        assert run_cli("plan", "--config", str(path)) == 2
        assert ":1:" in capsys.readouterr().err

    def test_unknown_model_lists_available(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "70b"})
        assert run_cli("plan", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "1.5b" in err and "7b" in err and "8b" in err

    def test_unknown_workload_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"workload": {"seqlen": 10}})
        assert run_cli("plan", "--config", cfg) == 2
        assert "workload.seqlen" in capsys.readouterr().err


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.sampled_from([2**64, 10**400]),
    st.floats(), st.text(max_size=3), st.sampled_from(["7b", "8b", "two_d", "ulysses"]),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2),
                                                           st.integers(0, 3), max_size=2),
)


def _section_keys(section):
    names = [path.split(".", 1)[1] for path in SCENARIO_KEYS if path.startswith(section + ".")]
    return st.dictionaries(st.sampled_from(names + ["nodez", "typo"]), JSON_VALUES,
                           max_size=4)


SCENARIO_DICTS = st.fixed_dictionaries({}, optional={
    "topology": st.one_of(_section_keys("topology"), JSON_VALUES),
    "strategy": st.one_of(_section_keys("strategy"), JSON_VALUES),
    "workload": st.one_of(_section_keys("workload"), JSON_VALUES),
    "model": JSON_VALUES,
    "seed": JSON_VALUES,
    "out": JSON_VALUES,
    "inject_fault_message": JSON_VALUES,
    "modle": JSON_VALUES,
})


class TestScenarioProperty:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=SCENARIO_DICTS)
    def test_random_scenario_loads_or_names_the_key(self, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        try:
            load_scenario(cfg, argparse.Namespace())
        except ConfigError as exc:
            message = str(exc)
            head = message.split(":", 1)[0]
            assert (message.startswith("unknown key '") or head in SCENARIO_KEYS
                    or head in ("topology", "strategy", "workload")), message


class TestVerify:
    def test_default_small_scenario_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--config", cfg, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("check,strategy")
        assert lines[-1].startswith("# spsim")
        body = [l for l in lines[1:-1]]
        strategies = {l.split(",")[1] for l in body}
        assert len(strategies) >= 4
        assert all(",pass," in l for l in body)

    def test_injected_fault_fails_and_names_rank_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL_SCENARIO, "inject_fault_message": 0})
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--config", cfg, "--out", str(out)) == 1
        text = out.read_text()
        assert ",FAIL," in text
        assert "tampered message from rank" in text
        assert "at step" in text

    @pytest.mark.parametrize("topology,index", [
        pytest.param(SMALL_SCENARIO["topology"], 1_000_000, id="large-index"),
        pytest.param({"nodes": 1, "gpus_per_node": 1}, 0, id="world-1"),
    ])
    def test_fault_index_beyond_the_run_is_refused(self, tmp_path, capsys, topology,
                                                   index):
        scenario = {**SMALL_SCENARIO, "topology": topology, "inject_fault_message": index}
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--config", write_config(tmp_path, scenario),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"inject_fault_message: index {index} is out of range" in err
        assert "strategy two_d" in err and "messages per run" in err
        assert not out.exists()

    def test_fault_index_range_ends_at_the_message_count(self, tmp_path, capsys):
        scenario = load_scenario(write_config(tmp_path, SMALL_SCENARIO),
                                 argparse.Namespace())
        spec = perf.model_profile(scenario.model).spec
        mesh = build_mesh(scenario.topology, scenario.strategy.a2a_degree,
                          scenario.strategy.p2p_degree)
        count = len(list(perf.strategy_messages(scenario.strategy, spec,
                                                _verify_length(scenario), mesh)))
        last = write_config(tmp_path, {**SMALL_SCENARIO, "inject_fault_message": count - 1})
        assert run_cli("verify", "--config", last, "--out", str(tmp_path / "v.csv")) == 1
        beyond = write_config(tmp_path, {**SMALL_SCENARIO, "inject_fault_message": count})
        assert run_cli("verify", "--config", beyond) == 2
        assert f"sends {count} messages per run" in capsys.readouterr().err

    def test_comm_model_row_checks_every_message_not_only_byte_totals(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        cfg = StrategyConfig("zigzag_ring", p2p_degree=4)
        mesh = build_mesh(Topology(num_nodes=1, gpus_per_node=4), 1, 4)
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((h, 16, 4)) for h in (4, 2, 2))
        run = execute_strategy(mesh, cfg, spec, q, k, v)
        volume = perf.comm_volume(cfg, spec, 16, mesh)
        messages = _linked_messages(cfg, spec, 16, mesh)
        assert comm_model_ok(messages, run.log)

        moved = CommLog()
        first = run.log.records[0]
        other = next(r for r in range(4) if r not in (first.src, first.dst))
        moved.records = [first._replace(dst=other), *run.log.records[1:]]
        for kind in ("p2p", "a2a"):
            for link in ("intra", "inter"):
                assert perf.volume_total(volume, kind, link) == moved.total_bytes(kind, link)
        assert not comm_model_ok(messages, moved)

    def test_comm_model_row_checks_each_message_link(self):
        # On 2 x 2 a zigzag ring hops 0 -> 1 and 2 -> 3 inside a node and
        # 1 -> 2 and 3 -> 0 across nodes, all of one size.  Swapping the link
        # labels of an intra and an inter hop keeps every (kind, link) byte
        # total and every (src, dst, nbytes, kind) message.
        spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=4)
        cfg = StrategyConfig("zigzag_ring", p2p_degree=4)
        mesh = build_mesh(Topology(num_nodes=2, gpus_per_node=2), 1, 4)
        rng = np.random.default_rng(8)
        q, k, v = (rng.standard_normal((h, 16, 4)) for h in (4, 2, 2))
        run = execute_strategy(mesh, cfg, spec, q, k, v)
        messages = _linked_messages(cfg, spec, 16, mesh)
        assert comm_model_ok(messages, run.log)

        intra = next(i for i, r in enumerate(run.log.records) if r.link == "intra")
        inter = next(i for i, r in enumerate(run.log.records) if r.link == "inter")
        records = list(run.log.records)
        assert records[intra].nbytes == records[inter].nbytes
        records[intra] = records[intra]._replace(link="inter")
        records[inter] = records[inter]._replace(link="intra")
        swapped = CommLog()
        swapped.records = records
        for kind in ("p2p", "a2a"):
            for link in ("intra", "inter"):
                assert swapped.total_bytes(kind, link) == run.log.total_bytes(kind, link)
        assert Counter((r.src, r.dst, r.nbytes, r.kind) for r in swapped.records) == \
            Counter(perf.strategy_messages(cfg, spec, 16, mesh))
        assert not comm_model_ok(messages, swapped)


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("verify", ()),
        ("simulate", ()),
        ("profile", ("--model", "1.5b")),
        ("plan", ()),
        ("infer", ()),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert run_cli(command, "--config", cfg, "--out", str(out_a), *extra) == 0
        assert run_cli(command, "--config", cfg, "--out", str(out_b), *extra) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        if command == "simulate":
            assert (tmp_path / "a.out.commlog.csv").read_bytes() == \
                (tmp_path / "b.out.commlog.csv").read_bytes()

    def test_different_seed_changes_verify_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("verify", "--config", cfg, "--out", str(out_a)) == 0
        assert run_cli("verify", "--config", cfg, "--out", str(out_b), "--seed", "9") == 0
        assert out_a.read_bytes() != out_b.read_bytes()


# sha256 of the analytic commands' stdout and stderr, then of every file a
# run with --out writes (the main file and its sidecars), per scenario.  These
# outputs are pure Python floats and integer byte counts, so they move only
# with the cost model.  verify is pinned apart, with its max_abs_diff column
# masked: the last bits of that column depend on the BLAS build.
PINNED_SCENARIOS = {
    "default": {},
    "1x4-frames-samples": {"topology": {"nodes": 1, "gpus_per_node": 4},
                           "workload": {"frames": 8}},
    "2x6": {"topology": {"nodes": 2, "gpus_per_node": 6}},
}
PINNED_OUTPUT_SHA256 = {
    ("1x4-frames-samples", "plan"):
        "11b388e860009307ad434de932b946e3e7fb60169cf8cd6782583e1fb520c747",
    ("1x4-frames-samples", "infer"):
        "0dbc7c14a52a45d456afc0bdb91a177583429766b08c74e2f2c96504f67ec4fb",
    ("1x4-frames-samples", "simulate"):
        "f44275ec5bffc80316e77c4e6afbe7e3a4b73312ba18c3d2fdd9bd5a3ad8f945",
    ("1x4-frames-samples", "profile"):
        "d720bc373ba9b8261e270db3e820ef55a5b816390dd60e3762feed2bf504cf1f",
    ("2x6", "plan"):
        "0e3fa384acae770bee68135b2368a64b24299510fbd0d9fd413b93d183806664",
    ("2x6", "infer"):
        "a47db51aa06b2b895e0cfb31e834c286f4151d8db5d13ddcf06bfaf818ad5e4d",
    ("2x6", "simulate"):
        "617d854ad51dd582baead9abbf12b112e39c0961aca46967667c0189d8a2721e",
    ("2x6", "profile"):
        "d720bc373ba9b8261e270db3e820ef55a5b816390dd60e3762feed2bf504cf1f",
    ("default", "plan"):
        "87562a1f006ee446732a62acb29c6abff39f02ce35f662e30597ff4575da684d",
    ("default", "infer"):
        "e1f9c468d5f27c6361a9cb4e42069dd527031571c518b4b83c21a6d620ccecfc",
    ("default", "simulate"):
        "3bb55be3ce6efe2a55b8ec741c1461f9c4557b5c9919a0c429c42e760af9c5e4",
    ("default", "profile"):
        "d720bc373ba9b8261e270db3e820ef55a5b816390dd60e3762feed2bf504cf1f",
}
# sha256 of verify's stdout (max_abs_diff masked) and stderr, per scenario.
PINNED_VERIFY_SHA256 = {
    "1x4-frames-samples":
        "f967945e79de22ac9ee71afd780b605cdb39c6675f3d6f318334e3780780aeed",
    "2x6":
        "360543ae87a93c3bc036887458907ccd8cba3c59b2c5a2c37d77c339d6653e0e",
    "default":
        "e8b7bceedfe8bfd98ba09b81e10f26745cc9fc869b9a347607d388419060015e",
}


def _pinned_config(tmp_path, scenario):
    """Write a pinned scenario's config; a frames scenario gets a samples file."""
    payload = PINNED_SCENARIOS[scenario]
    if "frames" in payload.get("workload", {}):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{i} 8 {260 + 20 * i}\n" for i in range(8)))
        payload = {**payload,
                   "workload": {**payload["workload"], "samples_file": str(samples)}}
    return write_config(tmp_path, payload)


def _mask_max_abs_diff(text):
    """verify's CSV text with each oracle row's max_abs_diff replaced by '*'."""
    lines = []
    for line in text.splitlines(keepends=True):
        fields = line.split(",")
        if fields[0] == "oracle":
            fields[6] = "*"
        lines.append(",".join(fields))
    return "".join(lines)


class TestPinnedOutputs:
    @pytest.mark.parametrize("command,extra", [
        ("plan", ()),
        ("infer", ()),
        ("simulate", ()),
        ("profile", ("--model", "7b")),
    ])
    @pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
    def test_outputs_match_the_pinned_digest(self, tmp_path, capsys, scenario, command,
                                             extra):
        cfg = _pinned_config(tmp_path, scenario)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        digest = hashlib.sha256()
        for out in ((), ("--out", str(out_dir / "run"))):
            assert run_cli(command, "--config", cfg, *out, *extra) == 0
            captured = capsys.readouterr()
            digest.update(f"\0stdout\0{captured.out}\0stderr\0{captured.err}".encode())
        for path in sorted(out_dir.iterdir()):
            digest.update(f"\0{path.name}\0".encode() + path.read_bytes())
        assert digest.hexdigest() == PINNED_OUTPUT_SHA256[(scenario, command)]

    @pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
    def test_verify_matches_the_pinned_digest(self, tmp_path, capsys, scenario):
        assert run_cli("verify", "--config", _pinned_config(tmp_path, scenario)) == 0
        captured = capsys.readouterr()
        text = f"stdout\0{_mask_max_abs_diff(captured.out)}\0stderr\0{captured.err}"
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_VERIFY_SHA256[scenario]


class TestSimulate:
    def test_timeline_monotone_per_strategy(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:-1]]
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row[0], []).append((int(row[1]), float(row[2])))
        for strategy, pts in by_strategy.items():
            pts.sort()
            times = [t for _, t in pts]
            assert all(b >= a for a, b in zip(times, times[1:])), strategy

    def test_commlog_dump_matches_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
        lines = (tmp_path / "sim.csv.commlog.csv").read_text().splitlines()
        assert lines[0] == "step,kind,src,dst,bytes,link"
        assert len(lines) > 2
        for line in lines[1:-1]:
            fields = line.split(",")
            assert fields[1] in ("p2p", "a2a")
            assert fields[5] in ("intra", "inter")

    def test_two_stage_sidecar_from_samples_file(self, tmp_path):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{i} 8 {260 + 20 * i}\n" for i in range(8)))
        cfg = write_config(tmp_path, {
            **SMALL_SCENARIO,
            "workload": {"seq_len": 64, "samples_file": str(samples)},
        })
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
        lines = (tmp_path / "sim.csv.twostage.csv").read_text().splitlines()
        assert lines[0] == "sp_degree,one_stage_s,two_stage_s,gain"
        for line in lines[1:-1]:
            sp_degree, one, two, gain = line.split(",")
            assert float(two) <= float(one)
            assert float(gain) >= 0.0

    @pytest.mark.parametrize("text", [
        pytest.param("# id frames text\n\n# nothing yet\n", id="comments-only"),
        pytest.param("0 0 0\n1 0 0\n", id="all-zero"),
    ])
    def test_samples_file_without_tokens_is_refused(self, tmp_path, capsys, text):
        samples = tmp_path / "samples.txt"
        samples.write_text(text)
        cfg = write_config(tmp_path, {
            **SMALL_SCENARIO,
            "workload": {"seq_len": 64, "samples_file": str(samples)},
        })
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"config error: workload.samples_file: {samples}: "
            "holds no frame and no text token\n")
        assert not out.exists()


class TestA2APacking:
    @pytest.mark.parametrize("topology", [
        None, {"nodes": 1, "gpus_per_node": 8}, {"nodes": 3, "gpus_per_node": 4},
        {"nodes": 2, "gpus_per_node": 6}, {"nodes": 4, "gpus_per_node": 1},
    ])
    def test_two_d_scenario_and_verify_row_use_the_packing_rule(self, tmp_path, topology):
        payload = {} if topology is None else {"topology": topology}
        scenario = load_scenario(write_config(tmp_path, payload), argparse.Namespace())
        a2a = packed_a2a_degree(perf.model_profile(scenario.model).spec, scenario.topology)
        assert scenario.strategy.kind == "two_d"
        assert scenario.strategy.a2a_degree == a2a
        ring = load_scenario(write_config(tmp_path, payload),
                             argparse.Namespace(strategy="naive_ring"))
        two_d = [cfg for cfg in verification_strategies(ring) if cfg.kind == "two_d"]
        assert [cfg.a2a_degree for cfg in two_d] == [a2a]


class TestStrategyDefaults:
    # sha256 of the grid lines below joined by newlines, computed while
    # load_scenario and verification_strategies still applied the two_d
    # packing rule themselves.
    GRID_SHA256 = "5f5b4377837c4a5094c70f67a0e34ea66f4864aa6f6539261f608909dac12b54"

    def test_strategy_grid_matches_pinned_digest(self, tmp_path):
        # 3 models x nodes 1-4 x GPUs per node 1-16 x {default, each kind}:
        # verify's configs, or the scenario's refusal text, must not move.
        lines = []
        for nodes in range(1, 5):
            for gpus in range(1, 17):
                path = write_config(tmp_path, {"topology": {"nodes": nodes,
                                                            "gpus_per_node": gpus}})
                for model in perf.PROFILE_NAMES:
                    for kind in (None,) + STRATEGY_KINDS:
                        overrides = argparse.Namespace(model=model, strategy=kind)
                        try:
                            result = [(c.kind, c.a2a_degree, c.p2p_degree, c.kv_replication)
                                      for c in verification_strategies(
                                          load_scenario(path, overrides))]
                        except ConfigError as exc:
                            result = str(exc)
                        lines.append(f"{nodes} x {gpus} {model} {kind}: {result}")
        assert len(lines) == 960
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.GRID_SHA256


class TestProfileAndPlan:
    def test_profile_reproduces_table_within_tolerance(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--model", "7b", "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:-1]]
        assert len(rows) == 5 * 4  # five frame counts, four components
        assert all(float(row[5]) < 0.02 for row in rows)

    def test_profile_unknown_model_is_config_error(self, capsys):
        assert run_cli("profile", "--model", "405b") == 2
        assert "must be one of" in capsys.readouterr().err

    def test_profile_without_published_rows_is_config_error(self, capsys):
        assert run_cli("profile", "--model", "8b") == 2
        assert "no measured complexity rows" in capsys.readouterr().err

    def test_profile_model_flag_is_validated_as_the_model_key(self, capsys):
        assert run_cli("profile", "--model", "70b") == 2
        assert capsys.readouterr().err == (
            "config error: model: must be one of 1.5b, 7b, 8b, got '70b'\n")

    def test_profile_default_scenario_names_the_model_key(self, capsys):
        assert run_cli("profile") == 2
        assert capsys.readouterr().err.startswith(
            "config error: model: no measured complexity rows for '8b'; ")

    def test_plan_on_two_node_default_prints_8x2(self, capsys):
        assert run_cli("plan") == 0
        out = capsys.readouterr().out
        assert "a2a = 8" in out and "p2p = 2" in out

    def test_strategy_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", str(out),
                       "--strategy", "zigzag_ring") == 0
        log_lines = (tmp_path / "sim.csv.commlog.csv").read_text().splitlines()
        kinds = {l.split(",")[1] for l in log_lines[1:-1]}
        assert kinds == {"p2p"}


class TestModuleEntryPoint:
    def test_python_dash_m_spsim_runs_the_cli(self):
        src = str(Path(spsim.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "spsim", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"spsim {spsim.__version__}"


class TestInfer:
    def test_emits_both_modes_with_idle_pattern(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "infer.csv"
        assert run_cli("infer", "--config", cfg, "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:-1]]
        pipeline = [r for r in rows if r[0] == "pipeline"]
        sp = [r for r in rows if r[0] == "sp"]
        assert len(pipeline) == len(sp) == 4
        # pipeline devices idle most of the time; SP devices never idle
        assert all(float(r[3]) > float(r[2]) for r in pipeline)
        assert all(float(r[3]) == 0.0 for r in sp)
