"""The three workloads: inputs, program passes, correctness checks, metrics.

A pass is one run of the program in its own child process.  The HTTP
workloads repeat whole passes over the same inputs until ``--seconds`` have
passed (at least two, which must write byte-identical outputs) and report
the median of each timing over passes; ``setup_s`` also takes samples from
short probe runs in which every LLM request fails at once.  The
large-corpus workload builds its index once per run and reports its rate
as the median over blocks of questions.  CPU-bound timings are scaled to
a reference machine speed (see calibrate.py).  A traced run makes one
untraced and one traced pass and reports per-layer metrics from the traced
one.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bigcorpus
import calibrate
import plan
from layers import layer_metrics, p95
from stubs import Latency, SimServer

PROGRAM_TIMEOUT_S = 150
SETUP_PROBES = 3
LATENCY = Latency()
CONCURRENCY = 2     # client threads, one per CPU of a 2-CPU host


class CheckFailed(Exception):
    pass


@dataclass
class Context:
    root: Path
    work: Path
    seed: int           # the input stream seed (held-out already applied)
    seconds: float
    trace: bool
    launcher: subprocess.Popen     # perfbench/launcher.py, text pipes
    failures: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("HOPGROUND_BASE_URL", "PYTHONPATH")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
        return env


@dataclass
class Result:
    items: int                      # items per pass
    passes: int
    metrics: dict                   # name -> value
    provenance: dict


@dataclass
class Run:
    started: float
    ended: float
    peak_rss_mb: float
    kernel_s: float     # reference kernel time just before the start

    def setup_s(self, first_request: float) -> float:
        """Start to first LLM request, at the reference machine speed."""
        return calibrate.scale(first_request - self.started, self.kernel_s)


def run_program(ctx: Context, argv: list[str], log_name: str) -> Run:
    """Run one program process to completion through the launcher."""
    kernel_s = calibrate.kernel_seconds()
    log = ctx.work / f"{log_name}.log"
    ctx.launcher.stdin.write(json.dumps({
        "argv": argv, "cwd": str(ctx.root), "env": ctx.env(),
        "log": str(log), "timeout": PROGRAM_TIMEOUT_S}) + "\n")
    ctx.launcher.stdin.flush()
    reply = ctx.launcher.stdout.readline()
    if not reply:
        raise CheckFailed("the launcher process stopped")
    r = json.loads(reply)
    if r["code"] != 0:
        raise CheckFailed(f"{log_name} exited with {r['code']}; see {log}")
    return Run(r["started"], r["ended"], r["maxrss_kb"] / 1024, kernel_s)


def hopground(ctx: Context, args: list[str], trace_out: Path | None):
    if trace_out is None:
        return [sys.executable, "-m", "hopground", *args]
    return [sys.executable, str(ctx.root / "perfbench" / "prog.py"), "cli",
            "--trace-out", str(trace_out), "--", *args]


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, ensure_ascii=False) + "\n")


def read_spans(path: Path) -> tuple[list, list]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data["spans"], data["missing"]


def latency_ms(items: dict, ids) -> tuple[float, float]:
    """p50 and p95 of per-item time from first request to last response."""
    values = [1000 * (items[i][1] - items[i][0]) for i in ids]
    return statistics.median(values), p95(values)


def check_trajectories(ctx: Context, label: str, questions: list[dict],
                       trajectories: list[dict]) -> None:
    """Every answer, termination, hop and gold rank matches the plan."""
    ctx.check(len(trajectories) == len(questions),
              f"{label}: {len(trajectories)} trajectories for "
              f"{len(questions)} questions")
    for q, t in zip(questions, trajectories):
        want = plan.expected_trajectory(q)
        where = f"{label} {q['id']}"
        ctx.check(t["question"]["id"] == q["id"], f"{where}: out of order")
        ctx.check(t["final_answer"] == want["final_answer"],
                  f"{where}: final {t['final_answer']!r} != "
                  f"{want['final_answer']!r}")
        ctx.check(t["termination"] == want["termination"],
                  f"{where}: termination {t['termination']}")
        ctx.check(len(t["hops"]) == len(want["hops"]),
                  f"{where}: {len(t['hops'])} hops, planned "
                  f"{len(want['hops'])}")
        for hop, want_hop, plan_hop in zip(t["hops"], want["hops"],
                                           q["hops"]):
            titles = [d["title"] for d in hop["retrieved"]]
            rank = (titles.index(plan_hop["gold_title"]) + 1
                    if plan_hop["gold_title"] in titles else None)
            ctx.check(rank == want_hop["gold_rank"],
                      f"{where} hop {hop['index']}: gold rank {rank}")
            ctx.check(hop["revised_answer"] == want_hop["revised"]
                      and hop["grounding"]["kind"] == want_hop["kind"]
                      and hop["batches_consumed"]
                      == want_hop["batches_consumed"],
                      f"{where} hop {hop['index']}: grounding differs")
            if "oracle_top" in plan_hop:
                ids = [d["id"] for d in hop["retrieved"]]
                ctx.check(ids == plan_hop["oracle_top"],
                          f"{where} hop {hop['index']}: top-{plan.TOP_K} "
                          f"differs from brute-force BM25")


def run_metrics(questions: list[dict], trajectories: list[dict]) -> dict:
    n = len(questions)
    terminations = [t["termination"] for t in trajectories]
    return {
        "keep_rate": terminations.count("finish_signal") / n,
        "failed_frac": terminations.count("parse_failure") / n,
    }


def planned_acc(questions: list[dict]) -> float:
    hits = sum(plan.expected_trajectory(q)["final_answer"] == q["answer"]
               for q in questions)
    return round(100.0 * hits / len(questions), 2)


def probe_setups(ctx: Context, server: SimServer, argv) -> list[tuple]:
    """Extra ``setup_s`` samples, as (run, first request): whole program
    runs in which every LLM request fails at once, so each ends soon after
    its setup."""
    setups = []
    for i in range(SETUP_PROBES):
        server.reset(fail_fast=True)
        run = run_program(ctx, argv(ctx.work / f"probe{i}", None),
                          f"probe{i}")
        setups.append((run, server.reset().first_request))
    return setups


def setup_metric(setups: list[tuple], provenance: dict) -> float:
    """Median calibrated ``setup_s``; the raw median and the kernel times
    go to the provenance."""
    provenance["raw_setup_s"] = statistics.median(
        first - run.started for run, first in setups)
    provenance["setup_kernel_ms"] = statistics.median(
        1000 * run.kernel_s for run, _ in setups)
    return statistics.median(run.setup_s(first) for run, first in setups)


def medians(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def enough(ctx: Context, passes: int, started: float) -> bool:
    if ctx.trace:
        return passes >= 2
    return passes >= 2 and time.monotonic() - started >= ctx.seconds


def lateness(stats_of) -> dict:
    """How far the simulated service ran behind its planned service time."""
    late = [x for s in stats_of for x in s.late_ms]
    return {"p50": statistics.median(late), "p95": p95(late),
            "max": max(late)}


@dataclass
class Passes:
    stats: list          # the service's PassStats, one per pass
    output: bytes        # the output file, identical in every pass
    qps: list            # per pass
    timings: dict        # medians over passes, and setup_s
    provenance: dict

    def counts(self, n: int) -> dict:
        """Per-item counts, the same in every pass."""
        first = self.stats[0]
        return {"llm_calls_per_q": first.calls / n,
                "prompt_tokens_per_q": first.prompt_tokens / n,
                "completion_tokens_per_q": first.completion_tokens / n,
                "output_bytes_per_q": len(self.output) / n}

    def layer_metrics(self, ctx: Context, extra_spans=()) -> dict:
        """Per-layer metrics of the traced second pass."""
        spans, self.provenance["unwrapped"] = read_spans(
            ctx.work / "spans1.json")
        for path in extra_spans:
            spans += read_spans(path)[0]
        return layer_metrics(
            spans, service_ms=self.stats[1].service_ms,
            inflight_max=self.stats[1].inflight_max,
            qps_untraced=self.qps[0], qps_traced=self.qps[1])


def http_passes(ctx: Context, server: SimServer, argv, output, ids,
                check_pass) -> Passes:
    """Probe runs, then whole passes of the program until ``--seconds``
    have passed (a traced run makes one untraced and one traced pass).
    ``argv(out, spans)`` runs one pass writing under ``out``;
    ``output(out)`` is the file every pass must write byte for byte;
    ``check_pass(label, data, stats, out)`` checks one pass."""
    setups = [] if ctx.trace else probe_setups(ctx, server, argv)
    per_pass, stats_of, reference = [], [], None
    started = time.monotonic()
    while not enough(ctx, len(per_pass), started):
        i = len(per_pass)
        spans = ctx.work / f"spans{i}.json" if ctx.trace and i else None
        out = ctx.work / f"pass{i}"
        server.reset()
        run = run_program(ctx, argv(out, spans), f"pass{i}")
        stats = server.reset()
        data = output(out).read_bytes()
        reference = reference or data
        ctx.check(data == reference, f"pass {i}: output differs from pass 0")
        check_pass(f"pass {i}", data, stats, out)
        p50, p95_ = latency_ms(stats.items, ids)
        setups.append((run, stats.first_request))
        stats_of.append(stats)
        per_pass.append({
            "qps": len(ids) / (run.ended - stats.first_request),
            "latency_p50_ms": p50, "latency_p95_ms": p95_,
            "peak_rss_mb": run.peak_rss_mb,
        })
    provenance = {"latency": LATENCY.to_dict(),
                  "service_late_ms": lateness(stats_of),
                  "load": f"closed loop, {CONCURRENCY} client threads",
                  "items": len(ids)}
    timings = {**medians(per_pass),
               "setup_s": setup_metric(setups, provenance)}
    return Passes(stats_of, reference, [p["qps"] for p in per_pass],
                  timings, provenance)


def llm_config(server: SimServer) -> dict:
    return {"backend": "openai", "base_url": f"{server.url}/v1",
            "model": "simulated", "api_key_env": "PERFBENCH_NO_KEY"}


# --- multihop-http -------------------------------------------------------

def multihop_http(ctx: Context) -> Result:
    inputs = plan.multihop_inputs(ctx.seed)
    questions = inputs["questions"]
    n = len(questions)
    dataset = ctx.work / "dataset.jsonl"
    write_jsonl(dataset, ({"id": q["id"], "question": q["text"],
                           "answers": [q["answer"]]} for q in questions))
    expected_calls = sum(plan.expected_calls(q) for q in questions)
    expected_searches = sum(len(plan.expected_trajectory(q)["hops"])
                            for q in questions)

    def check_pass(label, data, stats, out):
        trajectories = [json.loads(x) for x in data.splitlines()]
        check_trajectories(ctx, label, questions, trajectories)
        totals = json.loads((out / "manifest.json").read_text())["totals"]
        ctx.check(stats.calls == expected_calls == totals["llm_calls"],
                  f"{label}: {stats.calls} calls at the service, "
                  f"{totals['llm_calls']} in the manifest, "
                  f"{expected_calls} planned")
        ctx.check(stats.searches == expected_searches,
                  f"{label}: {stats.searches} retrieval requests, "
                  f"planned {expected_searches}")
        ctx.check(totals["prompt_tokens"] == stats.prompt_tokens
                  and totals["completion_tokens"] == stats.completion_tokens,
                  f"{label}: manifest tokens differ from the service's")

    server = SimServer(plan.Responder(questions), ctx.seed, LATENCY,
                       search=inputs["search"])
    try:
        config = ctx.work / "config.json"
        config.write_text(json.dumps({
            "pipeline": {"retriever": "external", "concurrency": CONCURRENCY},
            "retrieval": {"external_endpoint": f"{server.url}/search"},
            "llm": llm_config(server)}))
        passes = http_passes(
            ctx, server,
            lambda out, spans: hopground(ctx, [
                "run", "--dataset", str(dataset), "--config", str(config),
                "--out", str(out)], spans),
            lambda out: out / "trajectories.jsonl",
            [q["id"] for q in questions], check_pass)
    finally:
        server.close()

    last = ctx.work / f"pass{len(passes.stats) - 1}"
    eval_spans = ctx.work / "spans-eval.json" if ctx.trace else None
    run_program(ctx, hopground(ctx, [
        "eval", "--trajectories", str(last / "trajectories.jsonl"),
        "--dataset", str(dataset)], eval_spans), "eval")
    acc = json.loads((last / "summary.json").read_text())["acc"]
    ctx.check(acc == planned_acc(questions),
              f"acc {acc} != planned {planned_acc(questions)}")
    if ctx.trace:
        metrics = passes.layer_metrics(ctx, [eval_spans])
    else:
        trajectories = [json.loads(x) for x in passes.output.splitlines()]
        metrics = {**passes.timings, **passes.counts(n), "acc": acc,
                   **run_metrics(questions, trajectories)}
    return Result(n, len(passes.stats), metrics, passes.provenance)


# --- synth-http ----------------------------------------------------------

def synth_http(ctx: Context) -> Result:
    from hopground import evaluation
    from hopground.core import Question

    items = plan.synth_inputs(ctx.seed)
    n = len(items)
    inputs = ctx.work / "synthesis-inputs.jsonl"
    write_jsonl(inputs, ({"id": s["id"], "question": s["question"],
                          "answer": s["answer"], "gold_doc": s["gold_doc"],
                          "noise_docs": s["noise_docs"]} for s in items))

    def check_pass(label, data, stats, out):
        examples = [json.loads(x) for x in data.splitlines()]
        ctx.check(len(examples) == n,
                  f"{label}: {len(examples)} examples for {n} inputs")
        for s, e in zip(items, examples):
            keep, reason = plan.synth_expected(s)
            ctx.check((e["verdict"] == "keep") == keep
                      and e["drop_reason"] == reason
                      and e["immediate_answer"] == s["student"],
                      f"{label} {s['id']}: verdict {e['verdict']}/"
                      f"{e['drop_reason']}, planned {s['outcome']}")
        ctx.check(stats.calls == 2 * n,
                  f"{label}: {stats.calls} calls, planned {2 * n}")

    server = SimServer(plan.Responder(synth_inputs=items), ctx.seed, LATENCY)
    try:
        config = ctx.work / "config.json"
        config.write_text(json.dumps({
            "student_llm": llm_config(server),
            "teacher_llm": llm_config(server),
            "synthesis": {"concurrency": CONCURRENCY}}))
        passes = http_passes(
            ctx, server,
            lambda out, spans: hopground(ctx, [
                "synth", "--input", str(inputs),
                "--out", str(out.with_suffix(".jsonl")),
                "--seed", str(ctx.seed), "--config", str(config),
                "--include-dropped"], spans),
            lambda out: out.with_suffix(".jsonl"),
            [s["id"] for s in items], check_pass)
    finally:
        server.close()

    examples = [json.loads(x) for x in passes.output.splitlines()]
    records = [evaluation.score_prediction(
        Question(id=s["id"], text=s["question"], gold_answers=(s["answer"],)),
        e["immediate_answer"]) for s, e in zip(items, examples)]
    acc = evaluation.aggregate(records)["acc"]
    planned = round(100.0 * sum(s["student"] == s["answer"]
                                for s in items) / n, 2)
    ctx.check(acc == planned, f"student acc {acc} != planned {planned}")
    kept = sum(e["verdict"] == "keep" for e in examples)
    planned_kept = sum(plan.synth_expected(s)[0] for s in items)
    ctx.check(kept == planned_kept, f"kept {kept}, planned {planned_kept}")
    if ctx.trace:
        metrics = passes.layer_metrics(ctx)
    else:
        metrics = {**passes.timings, **passes.counts(n), "acc": acc,
                   "keep_rate": kept / n,
                   "failed_frac": sum(e["drop_reason"] == "llm_error"
                                      for e in examples) / n}
    return Result(n, len(passes.stats), metrics, passes.provenance)


# --- bigcorpus-cpu -------------------------------------------------------

BLOCK = 4 * bigcorpus.PER_GROUP


def calibrated_blocks(result: dict, questions: list[dict]):
    """Per 40-question block (each holds the full planned mix): its rate
    and its questions' latencies, both at the reference machine speed."""
    edges, completed = result["block_edges"], result["completed"]
    rates, latencies = [], []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        kernel = (a["kernel_s"] + b["kernel_s"]) / 2
        took = completed[(k + 1) * BLOCK - 1] - a["end"]
        rates.append(BLOCK / calibrate.scale(took, kernel))
        for q in questions[k * BLOCK:(k + 1) * BLOCK]:
            first, last = result["items"][q["id"]]
            latencies.append(1000 * calibrate.scale(last - first, kernel))
    return statistics.median(rates), latencies


def bigcorpus_cpu(ctx: Context) -> Result:
    from hopground import evaluation
    from hopground.core import Question

    info = bigcorpus.generate(ctx.root, ctx.seed, ctx.work)
    questions = info["questions"]
    n = len(questions)
    argv = [sys.executable, str(ctx.root / "perfbench" / "prog.py"),
            "bigcorpus", "--work", str(ctx.work)]
    spans_path = ctx.work / "spans.json"
    if ctx.trace:
        argv += ["--trace-out", str(spans_path)]
    try:
        run = run_program(ctx, argv, "bigcorpus")
        cache_bytes = (ctx.work / "index.cache").stat().st_size
    finally:
        for name in ("corpus.jsonl", "index.cache"):
            (ctx.work / name).unlink(missing_ok=True)
    program = json.loads((ctx.work / "program.json").read_text())

    qps, latencies, outputs = {}, {}, {}
    for name, result in program["passes"].items():
        data = (ctx.work / f"trajectories-{name}.jsonl").read_bytes()
        outputs[name] = data
        trajectories = [json.loads(x) for x in data.splitlines()]
        check_trajectories(ctx, name, questions, trajectories)
        expected_calls = sum(plan.expected_calls(q) for q in questions)
        ctx.check(result["calls"] == expected_calls,
                  f"{name}: {result['calls']} calls, planned "
                  f"{expected_calls}")
        qps[name], latencies[name] = calibrated_blocks(result, questions)
    if ctx.trace:
        ctx.check(outputs["untraced"] == outputs["traced"],
                  "traced and untraced trajectories differ")
        spans, missing = read_spans(spans_path)
        metrics = layer_metrics(spans, service_ms=None, inflight_max=None,
                                qps_untraced=qps["untraced"],
                                qps_traced=qps["traced"],
                                cache_bytes=cache_bytes,
                                terms=info["n_terms"])
        provenance = {"unwrapped": missing}
    else:
        result = program["passes"]["run"]
        records = [evaluation.score_prediction(
            Question(id=q["id"], text=q["text"], gold_answers=(q["answer"],)),
            t["final_answer"]) for q, t in zip(questions, trajectories)]
        acc = evaluation.aggregate(records)["acc"]
        ctx.check(acc == planned_acc(questions),
                  f"acc {acc} != planned {planned_acc(questions)}")
        usage = [t["token_usage"]["total"] for t in trajectories]
        setup = program["setup_calibrations"]
        setup_s = result["first_request"] - run.started - sum(
            c["end"] - c["start"] for c in setup + result["block_edges"]
            if c["end"] <= result["first_request"])
        kernel = statistics.median(c["kernel_s"] for c in setup)
        metrics = {
            "setup_s": calibrate.scale(setup_s, kernel),
            "qps": qps["run"],
            "latency_p50_ms": statistics.median(latencies["run"]),
            "latency_p95_ms": p95(latencies["run"]),
            "peak_rss_mb": run.peak_rss_mb,
            "llm_calls_per_q": result["calls"] / n,
            "prompt_tokens_per_q": sum(u["prompt_tokens"] for u in usage) / n,
            "completion_tokens_per_q":
                sum(u["completion_tokens"] for u in usage) / n,
            "output_bytes_per_q": len(outputs["run"]) / n,
            "acc": acc,
            **run_metrics(questions, trajectories),
        }
        provenance = {"raw_setup_s": setup_s,
                      "setup_kernel_ms": 1000 * kernel}
    provenance.update({
        "calibration": "CPU-bound timings scaled to a "
                       f"{1000 * calibrate.REFERENCE_S} ms reference kernel",
        "latency": "in-process simulated model, zero latency",
        "load": "closed loop, 1 client thread",
        "questions": n, "background_docs": bigcorpus.BACKGROUND_DOCS,
        "min_candidates_per_query": info["min_candidates"],
        "top_k_checked_against_oracle": sum(
            1 for q in questions for h in q["hops"] if "oracle_top" in h)})
    return Result(n, 1, metrics, provenance)


WORKLOADS = {
    "multihop-http": multihop_http,
    "bigcorpus-cpu": bigcorpus_cpu,
    "synth-http": synth_http,
}
