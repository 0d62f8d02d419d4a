"""CLI: subcommands, config validation, determinism, fault injection."""

import argparse
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spsim.cli import SCENARIO_KEYS, ConfigError, _verify_length, load_scenario, main

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
