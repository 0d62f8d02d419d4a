"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the benchmark seed, runs one request
at a time (a closed loop with a single caller: spsim is a batch tool users
wait on), times the calls it makes into spsim, and checks every request
against the program's own oracle and analytic model.  A gate that costs
more than the request it checks (the single-device decode, the oracle, the
message enumeration) is computed at most once per distinct input and kept
out of every timing.

Workloads, and why each exists:

* ``verify``: ``spsim verify`` on the default scenario (8b, 2 x 8 ranks,
  seq 192).  The command users run most; FLOP-bound in ``numeric``.
* ``wide-ring``: zigzag ring (p2p 64) then 2D (a2a 8 x p2p 8) at world 64
  on tiny tensors.  Fabric handoff cost at the largest executed world and
  the per-call overhead of ``numeric``.
* ``decode``: two-stage-sharded prompts, SP prefill and greedy decode at
  world 8.  Many tiny collectives and one-row queries.
* ``plan``: ``spsim plan`` and ``spsim infer`` at world 1024.  Pure
  analytic model: no fabric, no kernels.

``plan`` is not in ``BENCHMARK.json``: it is pure-Python arithmetic with
no numpy and no threads, and on a shared 2-vCPU host the same ``spsim
plan`` call took 0.86 s in some minutes and 1.6-1.9 s in others, for
stretches longer than a 30 s run.  Over ten seeds run in the same half
hour, its runs' median, fastest or lower-quartile call spread by 0.16-0.24
of their median, while the other three spread by 0.06-0.09 (they move
with the host too, by up to 1.8x between minutes).  It runs the same way
by hand, with its gates and tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ORACLE_TOLERANCE = 1e-10


class GateError(AssertionError):
    """A request produced an output its correctness gate rejects."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def call_cli(mods, argv) -> tuple[int, str, float]:
    """Run ``spsim <argv>`` in-process; return (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = mods.cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def _write_json(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of a spsim CSV: header and trailing metadata comment dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


class Workload:
    """Common shape: ``items`` cycled one request at a time."""

    name = ""
    primary = ""  # timing key reported as op_s
    world = 0
    cycle = 0  # requests per whole cycle of inputs; 0 means len(items)

    def __init__(self, mods, seed: int, tmpdir) -> None:
        self.m = mods
        self.items: list = []
        self.stats: dict = {}  # deterministic simulated statistics
        self.max_abs_err = 0.0  # largest oracle error any gate saw
        self.predicted_iter_s = 0.0  # plan only: mean predicted iteration seconds
        self.profile_max_rel_err = 0.0  # plan only: profile table vs published rows

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, item, timings: dict):
        raise NotImplementedError

    def check(self, item, output) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify(Workload):
    """One request is one ``spsim verify --seed <s>`` on the default scenario."""

    name = "verify"
    primary = "verify_s"
    world = 16
    cycle = 1  # every seed does the same work; fresh seeds keep inputs distinct

    def __init__(self, mods, seed, tmpdir) -> None:
        super().__init__(mods, seed, tmpdir)
        self.items = [["verify", "--seed", str(seed * 64 + i)] for i in range(64)]
        self._tiny = _write_json(tmpdir / "verify-tiny.json", {
            "topology": {"nodes": 1, "gpus_per_node": 2},
            "workload": {"seq_len": 8},
        })

    def warm_up(self) -> None:
        code, _out, _s = call_cli(self.m, ["verify", "--config", self._tiny])
        _gate(code == 0, f"warm-up verify exited {code}")

    def run(self, item, timings):
        code, out, seconds = call_cli(self.m, item)
        timings["verify_s"].append(seconds)
        return code, out

    def check(self, item, output) -> None:
        code, out = output
        _gate(code == 0, f"spsim {' '.join(item)} exited {code}")
        rows = _csv_rows(out)
        _gate(bool(rows), "verify printed no rows")
        failed = [row for row in rows if row[5] != "pass"]
        _gate(not failed, f"verify rows not passing: {failed[:3]}")
        oracle = [float(row[6]) for row in rows if row[0] == "oracle"]
        self.max_abs_err = max([self.max_abs_err] + oracle)
        self.stats["rows"] = Counter(row[0] for row in rows)


# ---------------------------------------------------------------------------
# wide-ring
# ---------------------------------------------------------------------------

class WideRing(Workload):
    """One request is one pass: zigzag ring (p2p 64), then 2D (8 x 8)."""

    name = "wide-ring"
    primary = "wide_run_s"
    world = 64
    LENGTH = 256
    INPUTS = 2

    def __init__(self, mods, seed, tmpdir) -> None:
        super().__init__(mods, seed, tmpdir)
        f, st = mods.fabric, mods.strategies
        self.spec = mods.numeric.AttentionSpec(num_q_heads=8, num_kv_heads=2, head_dim=8)
        topology = f.Topology(num_nodes=8, gpus_per_node=8)
        configs = [
            st.StrategyConfig("zigzag_ring", a2a_degree=1, p2p_degree=64),
            st.StrategyConfig("two_d", a2a_degree=8, p2p_degree=8, kv_replication=True),
        ]
        self.runs = [(cfg, f.build_mesh(topology, cfg.a2a_degree, cfg.p2p_degree))
                     for cfg in configs]
        rng = np.random.default_rng([seed, 0x71DE])
        spec, n = self.spec, self.LENGTH
        self.items = [
            {
                "index": i,
                "q": rng.standard_normal((spec.num_q_heads, n, spec.head_dim)),
                "k": rng.standard_normal((spec.num_kv_heads, n, spec.head_dim)),
                "v": rng.standard_normal((spec.num_kv_heads, n, spec.head_dim)),
                "fault": None,
            }
            for i in range(self.INPUTS)
        ]
        tiny_topology = f.Topology(num_nodes=2, gpus_per_node=2)
        self._tiny = [(cfg, f.build_mesh(tiny_topology, cfg.a2a_degree, cfg.p2p_degree))
                      for cfg in (st.StrategyConfig("zigzag_ring", 1, 4),
                                  st.StrategyConfig("two_d", 2, 2))]
        self._oracle: dict[int, np.ndarray] = {}
        self._expected: dict[int, Counter] = {}

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        q = rng.standard_normal((8, 16, 8))
        kv = rng.standard_normal((2, 16, 8))
        for cfg, mesh in self._tiny:
            self.m.strategies.execute_strategy(mesh, cfg, self.spec, q, kv, kv)

    def run(self, item, timings):
        execute = self.m.strategies.execute_strategy
        start = perf_counter()
        results = [execute(mesh, cfg, self.spec, item["q"], item["k"], item["v"],
                           fault=item["fault"])
                   for cfg, mesh in self.runs]
        timings["wide_run_s"].append(perf_counter() - start)
        return results

    def check(self, item, output) -> None:
        index = item["index"]
        if index not in self._oracle:
            self._oracle[index] = self.m.numeric.reference_attention(
                item["q"], item["k"], item["v"], self.spec)
        oracle = self._oracle[index]
        for slot, ((cfg, mesh), run) in enumerate(zip(self.runs, output)):
            err = float(np.max(np.abs(run.gathered() - oracle)))
            self.max_abs_err = max(self.max_abs_err, err)
            _gate(err < ORACLE_TOLERANCE, f"{cfg.kind}: oracle error {err:.3g}")
            if slot not in self._expected:
                self._expected[slot] = Counter(self.m.perf.strategy_messages(
                    cfg, self.spec, self.LENGTH, mesh))
            executed = Counter((r.src, r.dst, r.nbytes, r.kind) for r in run.log.records)
            _gate(executed == self._expected[slot],
                  f"{cfg.kind}: CommLog differs from perf.strategy_messages")
            self.stats[cfg.kind] = _log_record(run.log)


def _log_record(log) -> dict:
    """Messages and bytes per (kind, link) of one CommLog."""
    record: dict = defaultdict(lambda: {"messages": 0, "bytes": 0})
    for r in log.records:
        entry = record[f"{r.kind}/{r.link}"]
        entry["messages"] += 1
        entry["bytes"] += r.nbytes
    return dict(sorted(record.items()))


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

class Decode(Workload):
    """One request: two-stage-sharded prompt, SP prefill, greedy decode.

    The stub model's end-of-sequence token stays live, so a request ends at
    end-of-sequence or after ``MAX_NEW_TOKENS``; the seed fixes the prompts
    and hence the token counts.
    """

    name = "decode"
    primary = "token_s"
    world = 8
    PROMPTS = 4
    MAX_NEW_TOKENS = 16
    TOKENS_PER_FRAME = 32
    PROMPT_TOKENS = 256

    def __init__(self, mods, seed, tmpdir) -> None:
        super().__init__(mods, seed, tmpdir)
        f, inf, sh = mods.fabric, mods.inference, mods.sharding
        self.spec = mods.numeric.AttentionSpec(num_q_heads=8, num_kv_heads=2,
                                               head_dim=16, num_layers=4)
        self.model = inf.StubModel(self.spec)
        self.mesh = f.build_mesh(f.Topology(num_nodes=2, gpus_per_node=4),
                                 a2a_degree=1, p2p_degree=8)
        rng = np.random.default_rng([seed, 0xDEC0])
        for index in range(self.PROMPTS):
            frames = [int(x) for x in rng.integers(1, 3, size=2)]
            budget = self.PROMPT_TOKENS - int(rng.integers(0, 24))
            vision = sum(frames) * self.TOKENS_PER_FRAME
            text_a = int(rng.integers(8, budget - vision - 8))
            ids = [int(x) for x in rng.integers(0, 1_000_000, size=2)]
            self.items.append({"index": index, "samples": [
                sh.SampleSpec(ids[0], frames[0], text_a),
                sh.SampleSpec(ids[1], frames[1], budget - vision - text_a),
            ]})
        self._tiny_mesh = f.build_mesh(f.Topology(num_nodes=1, gpus_per_node=2), 1, 2)
        self._reference: dict[int, tuple[np.ndarray, list[int]]] = {}

    def _request(self, mesh, samples, max_new_tokens, timings):
        sh, inf = self.m.sharding, self.m.inference
        start = perf_counter()
        batch = sh.build_sequences(samples)
        assignments = sh.distribute_images(batch, mesh.world_size)
        pieces = sh.encode_batch(batch, self.TOKENS_PER_FRAME, self.spec.hidden_size,
                                 assignments)
        encoded, plan = sh.globalize_and_pad(pieces, mesh)
        state = inf.sp_prefill(mesh, encoded, plan, self.model)
        timings["prefill_s"].append(perf_counter() - start)
        prefill_hidden = state.last_hidden
        tokens: list[int] = []
        while not state.finished and len(tokens) < max_new_tokens:
            start = perf_counter()
            token, state = inf.sp_decode_step(mesh, state)
            timings["token_s"].append(perf_counter() - start)
            tokens.append(token)
        return encoded, plan, prefill_hidden, state, tokens

    def warm_up(self) -> None:
        samples = [self.m.sharding.SampleSpec(0, 1, 6)]
        self._request(self._tiny_mesh, samples, 1, defaultdict(list))

    def run(self, item, timings):
        return self._request(self.mesh, item["samples"], self.MAX_NEW_TOKENS, timings)

    def check(self, item, output) -> None:
        encoded, plan, prefill_hidden, state, tokens = output
        index = item["index"]
        if index not in self._reference:
            inf = self.m.inference
            prompt = encoded.embeddings[: plan.original_length]
            self._reference[index] = (
                inf.local_forward(self.model, prompt)[-1],
                inf.local_decode(self.model, prompt, self.MAX_NEW_TOKENS),
            )
        want_hidden, want_tokens = self._reference[index]
        err = float(np.max(np.abs(prefill_hidden - want_hidden)))
        self.max_abs_err = max(self.max_abs_err, err)
        _gate(err < ORACLE_TOLERANCE, f"prompt {index}: prefill error {err:.3g}")
        _gate(tokens == want_tokens,
              f"prompt {index}: tokens {tokens} != local_decode {want_tokens}")
        self.stats[f"prompt{index}"] = {"prompt_tokens": plan.original_length,
                                        "decoded_tokens": len(tokens),
                                        "comm": _log_record(state.comm_log)}


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

class Plan(Workload):
    """One request: ``spsim plan`` then ``spsim infer`` for one (model, seq)."""

    name = "plan"
    primary = "plan_s"
    world = 1024
    MODELS = ("7b", "8b")
    SEQ_CHOICES = (65536, 98304, 131072, 196608, 262144)

    def __init__(self, mods, seed, tmpdir) -> None:
        super().__init__(mods, seed, tmpdir)
        rng = np.random.default_rng([seed, 0x9A4])
        for index, model in enumerate(self.MODELS):
            seq = int(rng.choice(self.SEQ_CHOICES))
            config = _write_json(tmpdir / f"plan-{model}.json", {
                "topology": {"nodes": 128, "gpus_per_node": 8}, "model": model,
            })
            tail = ["--config", config, "--seq-len", str(seq)]
            self.items.append({"index": index, "model": model, "seq": seq,
                               "config": config, "plan": ["plan"] + tail,
                               "infer": ["infer"] + tail})
        self._tiny = _write_json(tmpdir / "plan-tiny.json",
                                 {"topology": {"nodes": 2, "gpus_per_node": 8}})
        self._reference: dict = {}
        self._predicted: dict[int, float] = {}

    def warm_up(self) -> None:
        for command in ("plan", "infer"):
            code, _out, _s = call_cli(self.m, [command, "--config", self._tiny])
            _gate(code == 0, f"warm-up {command} exited {code}")

    def run(self, item, timings):
        plan_code, plan_out, seconds = call_cli(self.m, item["plan"])
        timings["plan_s"].append(seconds)
        infer_code, infer_out, seconds = call_cli(self.m, item["infer"])
        timings["infer_s"].append(seconds)
        return plan_code, plan_out, infer_code, infer_out

    def _scenario(self, item):
        overrides = argparse.Namespace(seed=None, seq_len=item["seq"], strategy=None,
                                       a2a=None, p2p=None, out=None)
        return self.m.cli.load_scenario(item["config"], overrides)

    def check(self, item, output) -> None:
        plan_code, plan_out, infer_code, infer_out = output
        perf, st = self.m.perf, self.m.strategies
        _gate(plan_code == 0, f"spsim plan exited {plan_code}")
        _gate(infer_code == 0, f"spsim infer exited {infer_code}")
        fields = dict(line.split(" = ", 1) for line in plan_out.splitlines()
                      if " = " in line)
        chosen = st.StrategyConfig(fields["kind"], a2a_degree=int(fields["a2a"]),
                                   p2p_degree=int(fields["p2p"]),
                                   kv_replication=fields["kv_replication"] == "true")
        profile = perf.model_profile(item["model"])
        chosen.validate_heads(profile.spec)

        key = (item["index"], chosen)
        if key not in self._reference:
            scenario = self._scenario(item)
            predicted = perf.iteration_time(chosen, profile, scenario.topology, item["seq"])
            self._reference[key] = (f"{predicted:.12g}", predicted,
                                    self._infer_totals(scenario, profile.spec, item["seq"]))
        predicted_text, predicted, totals = self._reference[key]
        _gate(fields["predicted_iteration_s"] == predicted_text,
              f"predicted {fields['predicted_iteration_s']} != iteration_time {predicted_text}")

        rows = _csv_rows(infer_out)
        _gate(len(rows) == 2 * self.world,
              f"infer printed {len(rows)} rows, expected {2 * self.world}")
        for mode, _device, busy, idle, _mem in rows:
            total = totals[mode]
            _gate(abs(float(busy) + float(idle) - total) <= 1e-9 * total,
                  f"infer {mode}: busy {busy} + idle {idle} != total {total!r}")

        self.stats[f"{item['model']}@{item['seq']}"] = {
            "kind": chosen.kind, "a2a": chosen.a2a_degree, "p2p": chosen.p2p_degree,
            "kv_replication": chosen.kv_replication, "predicted_iteration_s": predicted,
        }
        self._predicted[item["index"]] = predicted
        self.predicted_iter_s = sum(self._predicted.values()) / len(self._predicted)
        if "profile_max_rel_err" not in self.stats:
            self.profile_max_rel_err = self._profile_error()
            self.stats["profile_max_rel_err"] = self.profile_max_rel_err

    def _infer_totals(self, scenario, spec, seq) -> dict[str, float]:
        inf, f = self.m.inference, self.m.fabric
        topology = scenario.topology
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mesh = f.build_mesh(topology, scenario.strategy.a2a_degree,
                                scenario.strategy.p2p_degree)
        return {
            "pipeline": inf.pipeline_baseline(topology, spec, seq,
                                              topology.world_size).total_latency,
            "sp": inf.sp_inference_report(mesh, spec, seq).total_latency,
        }

    def _profile_error(self) -> float:
        worst = 0.0
        for model in self.m.perf.PROFILE_NAMES:
            if not self.m.perf.reference_rows(model):
                continue
            code, out, _s = call_cli(self.m, ["profile", "--model", model])
            _gate(code == 0, f"spsim profile --model {model} exited {code}")
            worst = max([worst] + [float(row[5]) for row in _csv_rows(out)])
        return worst


WORKLOADS = {cls.name: cls for cls in (Verify, WideRing, Decode, Plan)}
