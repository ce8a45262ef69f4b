#!/usr/bin/env python3
"""hopground's benchmark: one workload per run, end to end or per layer.

    python3 perfbench/run.py --workload multihop-http --seed 1 \\
        --seconds 10 --trace 0 [--held-out]

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``); the line before it records the run's provenance.  A run
whose correctness checks fail prints no result and exits 1.  ``--held-out``
draws the inputs from a seed stream disjoint from every plain ``--seed``,
for re-checking a claim on inputs not seen while the change was written.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

E2E_UNITS = {
    "setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "llm_calls_per_q": "calls/q",
    "prompt_tokens_per_q": "tokens/q", "completion_tokens_per_q": "tokens/q",
    "output_bytes_per_q": "bytes/q", "acc": "%", "keep_rate": "ratio",
    "failed_frac": "ratio", "peak_rss_mb": "MB",
}


def git_commit(root: Path) -> str:
    """The checked-out commit, read without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seed stream")
    args = parser.parse_args()

    if not (ROOT / "src" / "hopground" / "__init__.py").is_file():
        print(f"error: no hopground sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # started while this process is still small: see launcher.py
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
    try:
        return run(args, launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


def run(args: argparse.Namespace, launcher: subprocess.Popen) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from hopground import retrieval

    import plan
    from layers import UNITS
    from workloads import WORKLOADS, CheckFailed, Context

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root=ROOT, work=work,
                  seed=plan.stream_seed(args.seed, args.held_out),
                  seconds=args.seconds, trace=bool(args.trace),
                  launcher=launcher)
    try:
        result = WORKLOADS[args.workload](ctx)
    except CheckFailed as exc:
        ctx.failures.append(str(exc))
    if ctx.failures:
        for failure in ctx.failures[:20]:
            print(f"check failed: {failure}", file=sys.stderr)
        print(f"{len(ctx.failures)} check(s) failed; no result reported",
              file=sys.stderr)
        return 1

    active_backend = getattr(retrieval, "active_backend", None)
    provenance = {
        "command": [sys.executable, *sys.argv],
        "workload": args.workload, "seed": args.seed,
        "held_out": args.held_out, "stream_seed": ctx.seed,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "bm25_backend": active_backend() if active_backend else "n/a",
        "git_commit": git_commit(ROOT), "passes": result.passes,
        **result.provenance,
    }
    units = UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in units.items()}
    (work / "result.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics}, indent=2))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": True,
                      "attempted": result.items * result.passes,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
