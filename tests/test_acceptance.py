"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import json
import time

import numpy as np

from spsim.cli import main as cli_main
from spsim.fabric import Topology, build_mesh
from spsim.inference import (
    StubModel,
    decode_greedy,
    pipeline_baseline,
    pipeline_max_seq,
    sp_inference_report,
    sp_max_seq,
    sp_prefill,
)
from spsim.numeric import AttentionSpec, reference_attention
from spsim.perf import (
    comm_volume,
    flops_profile,
    iteration_time,
    max_context,
    model_profile,
    reference_rows,
    two_stage_gain,
    volume_total,
)
from spsim.sharding import (
    SampleSpec,
    ShardPlan,
    build_sequences,
    chunk_pair_counts,
    chunk_workload_units,
    encode_batch,
    globalize_and_pad,
)
from spsim.strategies import (
    StrategyConfig,
    StrategyConfigError,
    execute_strategy,
    resolve_strategy,
)


def _report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {text}")


def _mesh_for(sp: int, a2a: int):
    if sp >= 2:
        topo = Topology(num_nodes=2, gpus_per_node=sp // 2)
    else:
        topo = Topology(num_nodes=1, gpus_per_node=1)
    return build_mesh(topo, a2a_degree=a2a, p2p_degree=sp // a2a)


def _valid_configs(rng, spec, sp):
    topology = Topology(num_nodes=1, gpus_per_node=sp)
    configs = [resolve_strategy(spec, topology, kind) for kind in ("naive_ring", "zigzag_ring")]
    try:
        configs.append(resolve_strategy(spec, topology, "ulysses", sp))
    except StrategyConfigError:
        pass
    factors = [a for a in range(2, sp) if sp % a == 0]
    rng.shuffle(factors)
    for a2a in factors:
        try:
            configs.append(resolve_strategy(spec, topology, "two_d", a2a))
        except StrategyConfigError:
            continue
        break
    return configs


def test_criterion_1_oracle_equivalence_property():
    """>= 200 randomized configs: every strategy within 1e-10 of the oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(20240818)
    num_configs = 200
    checked = 0
    for _ in range(num_configs):
        sp = int(rng.choice([1, 2, 4, 8]))
        q_heads = int(rng.choice([2, 4, 8]))
        kv_heads = int(rng.choice([h for h in (1, 2, 4, 8) if q_heads % h == 0]))
        head_dim = int(rng.choice([4, 8, 16]))
        spec = AttentionSpec(num_q_heads=q_heads, num_kv_heads=kv_heads,
                             head_dim=head_dim)
        granule = 2 * sp
        length = granule * int(rng.integers(1, 512 // granule + 1))
        q = rng.standard_normal((q_heads, length, head_dim))
        k = rng.standard_normal((kv_heads, length, head_dim))
        v = rng.standard_normal((kv_heads, length, head_dim))
        oracle = reference_attention(q, k, v, spec)
        for cfg in _valid_configs(rng, spec, sp):
            mesh = _mesh_for(sp, cfg.a2a_degree)
            run = execute_strategy(mesh, cfg, spec, q, k, v)
            diff = float(np.max(np.abs(run.gathered() - oracle)))
            assert diff < 1e-10, (cfg, sp, length, diff)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(1, f"{num_configs} random configs, {checked} strategy runs, "
               f"max-abs error < 1e-10 in {elapsed:.1f}s")


def test_criterion_2_complexity_table_reproduction():
    """Single-row calibration predicts all rows within 2% per component."""
    for name in ("1.5b", "7b"):
        profile = model_profile(name)  # calibrated on the 64-frame row
        for row in reference_rows(name):
            predicted = flops_profile(profile, row.frames, row.context)
            for component, published in row.tflops.items():
                rel = abs(predicted[component] / 1e12 - published) / published
                assert rel < 0.02, (name, row.frames, component, rel)
    rows = reference_rows("7b")
    attention_ratio = rows[1].tflops["attention"] / rows[0].tflops["attention"]
    assert abs(attention_ratio - 3.93) <= 0.02
    model_ratio = (rows[1].context / rows[0].context) ** 2
    assert abs(model_ratio - 3.93) <= 0.02
    linears_ratio = rows[1].tflops["linears"] / rows[0].tflops["linears"]
    assert abs(linears_ratio - 1.983) <= 0.01
    _report(2, "both models, frames 32-512, all components within 2%; "
               "attention ratio 3.93 +/- 0.02, linears 1.983 +/- 0.01")


def test_criterion_3_load_balance_exact():
    """Zigzag: exactly 2P+1 chunk pairs per rank; contiguous: (2P-1):1 ratio."""
    for sp in (2, 4, 8):
        zz = ShardPlan("zigzag", sp, 16 * sp, 16 * sp)
        assert chunk_pair_counts(zz) == [2 * sp + 1] * sp
        contiguous = ShardPlan("contiguous", sp, 16 * sp, 16 * sp)
        units = chunk_workload_units(contiguous)
        assert min(units) == 1 * min(units)
        assert max(units) == (2 * sp - 1) * min(units)
    _report(3, "zigzag = 2P+1 pairs per rank and contiguous max/min = (2P-1):1, "
               "exact for P in {2,4,8}")


def test_criterion_4_comm_model_exactness_and_inter_node_dominance():
    """Analytic comm_volume equals executed CommLog bytes exactly."""
    rng = np.random.default_rng(7)
    spec = AttentionSpec(num_q_heads=8, num_kv_heads=4, head_dim=16)
    sp = 4
    sweep = [
        (cfg, length)
        for cfg in (
            StrategyConfig("naive_ring", p2p_degree=sp),
            StrategyConfig("zigzag_ring", p2p_degree=sp),
            StrategyConfig("ulysses", a2a_degree=sp),
            StrategyConfig("two_d", a2a_degree=2, p2p_degree=2),
        )
        for length in (64, 128, 256)
    ]
    for cfg, length in sweep:
        mesh = _mesh_for(sp, cfg.a2a_degree)
        q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
        k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
        run = execute_strategy(mesh, cfg, spec, q, k, v)
        predicted = comm_volume(cfg, spec, length, mesh)
        for kind in ("p2p", "a2a"):
            for link in ("intra", "inter"):
                assert volume_total(predicted, kind, link) == \
                    run.log.total_bytes(kind=kind, link=link)

    # multi-node: 2D with a2a = gpus_per_node vs pure ring, executed logs
    world = 8
    topo = Topology(num_nodes=2, gpus_per_node=4)
    length = 128
    q = rng.standard_normal((spec.num_q_heads, length, spec.head_dim))
    k = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    v = rng.standard_normal((spec.num_kv_heads, length, spec.head_dim))
    hybrid = execute_strategy(
        build_mesh(topo, 4, 2), StrategyConfig("two_d", a2a_degree=4, p2p_degree=2),
        spec, q, k, v)
    ring = execute_strategy(
        build_mesh(topo, 1, world), StrategyConfig("zigzag_ring", p2p_degree=world),
        spec, q, k, v)
    assert hybrid.log.total_bytes(kind="a2a", link="inter") == 0
    assert hybrid.log.total_bytes(link="inter") < ring.log.total_bytes(link="inter")
    _report(4, "analytic bytes == executed bytes for 4 strategies x 3 shapes; "
               "2D logs zero inter-node A2A and fewer inter-node bytes than ring")


def test_criterion_5a_training_speedup_band():
    """2D over zigzag ring within [1.05x, 11.4x] and > 1 at every point."""
    profile = model_profile("8b")
    topo = Topology(num_nodes=4, gpus_per_node=8)  # 32 simulated devices
    ring_cfg = StrategyConfig("zigzag_ring", p2p_degree=32)
    hybrid_cfg = StrategyConfig("two_d", a2a_degree=8, p2p_degree=4)
    speedups = []
    for seq in (32768, 65536, 131072, 196608, 262144, 327680):
        ring = iteration_time(ring_cfg, profile, topo, seq)
        hybrid = iteration_time(hybrid_cfg, profile, topo, seq)
        speedup = ring / hybrid
        assert speedup > 1.0, (seq, speedup)
        assert 1.05 <= speedup <= 11.4, (seq, speedup)
        speedups.append(speedup)
    _report(5, f"(a) 2D speedup over zigzag ring in [{min(speedups):.2f}x, "
               f"{max(speedups):.2f}x] across the 32-device sweep")


def test_criterion_5b_max_context_scaling():
    """Ulysses plateaus at the head limit; 2D passes 2M tokens at 256 devices."""
    profile = model_profile("8b")
    uly = StrategyConfig("ulysses", a2a_degree=32, kv_replication=True)
    hybrid = StrategyConfig("two_d", a2a_degree=8, p2p_degree=32)
    uly_sizes = [max_context(uly, profile, w) for w in (32, 64, 128, 256)]
    for later in uly_sizes[1:]:
        assert later < uly_sizes[0] * 1.05  # plateau beyond 32 devices
    hybrid_sizes = [max_context(hybrid, profile, w) for w in (32, 64, 128, 256)]
    growth = [b / a for a, b in zip(hybrid_sizes, hybrid_sizes[1:])]
    assert all(1.7 <= g <= 2.1 for g in growth)  # ~linear in world size
    assert hybrid_sizes[-1] >= 2_000_000
    _report(5, f"(b) ulysses plateaus near {uly_sizes[0]:,} tokens; "
               f"2D reaches {hybrid_sizes[-1]:,} tokens at 256 devices")


def test_criterion_5c_inference_speedup_and_memory():
    """SP inference vs pipeline on 8 devices: speedup, max-seq, memory shape."""
    spec = model_profile("8b").spec
    topo = Topology(num_nodes=1, gpus_per_node=8)
    mesh = build_mesh(topo, a2a_degree=8, p2p_degree=1)
    seq = 98304
    pipe = pipeline_baseline(topo, spec, seq, stages=8)
    sp = sp_inference_report(mesh, spec, seq)
    speedup = pipe.total_latency / sp.total_latency
    assert 4.0 <= speedup <= 8.2, speedup
    ratio = sp_max_seq(mesh, spec) / pipeline_max_seq(topo, spec, stages=8)
    assert ratio >= 2.0
    assert pipe.peak_memory_bytes[0] > 3 * max(pipe.peak_memory_bytes[1:])
    _report(5, f"(c) inference speedup {speedup:.2f}x, max-seq ratio {ratio:.1f}x, "
               "first pipeline device dominates memory")


def test_criterion_6_padding_and_decode_soundness():
    """Dummy padding never changes non-dummy outputs; decode is world-invariant."""
    # padding soundness at the oracle (tolerance 1e-12; equality in practice)
    rng = np.random.default_rng(99)
    spec = AttentionSpec(num_q_heads=4, num_kv_heads=2, head_dim=8, num_layers=2)
    length, padded = 45, 48
    q = rng.standard_normal((4, padded, 8))
    k = rng.standard_normal((2, padded, 8))
    v = rng.standard_normal((2, padded, 8))
    full = reference_attention(q, k, v, spec)
    trimmed = reference_attention(
        q[:, :length], k[:, :length], v[:, :length], spec,
        np.arange(length), np.arange(length))
    assert np.max(np.abs(full[:, :length] - trimmed)) <= 1e-12

    # strategy outputs on the padded sequence match the unpadded oracle
    for sp in (2, 4):
        mesh = _mesh_for(sp, 1)
        batch = build_sequences([SampleSpec(0, 1, 37)])
        pieces = encode_batch(batch, tokens_per_frame=5, hidden=spec.hidden_size)
        encoded, plan = globalize_and_pad(pieces, mesh)
        assert plan.padded_length > plan.original_length
        model = StubModel(spec, eos_token_id=-1)
        state = sp_prefill(mesh, encoded, plan, model)
        from spsim.inference import local_forward
        want = local_forward(model, encoded.embeddings[: plan.original_length])
        np.testing.assert_allclose(state.last_hidden, want[-1], atol=1e-10)

    # greedy decode sequences identical across world sizes for 32 tokens
    model = StubModel(spec, eos_token_id=-1)
    sequences = {}
    for world in (1, 2, 4):
        mesh = _mesh_for(world, 1)
        batch = build_sequences([SampleSpec(0, 1, 37)])
        pieces = encode_batch(batch, tokens_per_frame=5, hidden=spec.hidden_size)
        encoded, plan = globalize_and_pad(pieces, mesh)
        state = sp_prefill(mesh, encoded, plan, model)
        sequences[world] = decode_greedy(mesh, state, 32)
    assert sequences[1] == sequences[2] == sequences[4]
    assert len(sequences[1]) == 32
    _report(6, "padding exact at 1e-12; 32-token greedy decode identical for "
               "world sizes {1,2,4}")


def test_criterion_7_two_stage_sharding_gain():
    """Two-stage <= one-stage with gain in [0%, 10%]; positive when text-skewed."""
    profile = model_profile("7b")
    rng = np.random.default_rng(5)
    shaped = [SampleSpec(i, 8, int(rng.integers(250, 451))) for i in range(8)]
    one, two = two_stage_gain(shaped, 8, profile)
    gain = (one - two) / one
    assert two <= one
    assert 0.0 <= gain <= 0.10, gain

    skewed = [SampleSpec(0, 8, 2800)] + [SampleSpec(i, 8, 0) for i in range(1, 8)]
    one_s, two_s = two_stage_gain(skewed, 8, profile)
    gain_skewed = (one_s - two_s) / one_s
    assert gain_skewed > 0.0
    assert gain_skewed > gain
    _report(7, f"caption workload gain {gain:.1%} within [0%, 10%]; "
               f"text-skewed batch gains {gain_skewed:.1%}")


def test_criterion_8_cli_determinism(tmp_path):
    """Every command re-run with the same scenario+seed is byte-identical."""
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{i} 4 {200 + 30 * i}\n" for i in range(4)))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "topology": {"nodes": 2, "gpus_per_node": 2},
        "model": "7b",
        "workload": {"seq_len": 64, "samples_file": str(samples)},
        "seed": 11,
    }))
    commands = [
        ("verify", ()),
        ("simulate", ()),
        ("profile", ("--model", "7b")),
        ("plan", ()),
        ("infer", ()),
    ]
    for command, extra in commands:
        out_a = tmp_path / f"{command}_a.out"
        out_b = tmp_path / f"{command}_b.out"
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out_a), *extra]) == 0
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out_b), *extra]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), command
        for suffix in ("commlog.csv", "twostage.csv"):
            side_a = tmp_path / f"{command}_a.out.{suffix}"
            side_b = tmp_path / f"{command}_b.out.{suffix}"
            if side_a.exists():
                assert side_a.read_bytes() == side_b.read_bytes(), (command, suffix)
    _report(8, "verify/simulate/profile/plan/infer byte-identical across reruns")
