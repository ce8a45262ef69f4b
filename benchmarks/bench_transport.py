#!/usr/bin/env python3
"""Benchmark the HTTP path: client cost of ``transport.post_json`` per request.

Starts a loopback keep-alive HTTP/1.1 stub that holds every request for a
fixed service time, then has 1, 4 and 16 threads each send ``--requests``
chat-sized JSON POSTs through ``post_json`` at once.  Each thread sends one
untimed request first, so its connection is open before timing starts.
Per request it records the wall time of the call and the CPU time of the
calling thread (``time.thread_time``); wall time minus the service time is
the client's overhead plus any wait for the interpreter lock, which the
stub's own threads share.  Only ``post_json`` is called and its result
ignored, so the script measures any version of the package.

    python benchmarks/bench_transport.py --requests 300 \
        --json benchmarks/BENCH_transport.json --label change

``--json`` adds the run's record to the ``runs`` list of that file, in
place of an earlier record with the same label and settings.
"""

import argparse
import http.server
import json
import statistics
import sys
import threading
import time
from pathlib import Path

from hopground.transport import post_json

sys.path.insert(0, str(Path(__file__).parent))
from bench_bm25 import machine, write_record  # noqa: E402

REPLY = json.dumps({
    "choices": [{"message": {"role": "assistant", "content": "word " * 60}}],
    "usage": {"prompt_tokens": 1700, "completion_tokens": 60},
}).encode()


def serve(service_ms: float) -> http.server.ThreadingHTTPServer:
    """A started keep-alive stub that answers every POST with ``REPLY``
    ``service_ms`` after it arrived."""

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True   # headers and body go out apart

        def do_POST(self):
            arrived = time.perf_counter()
            self.rfile.read(int(self.headers["Content-Length"]))
            time.sleep(max(0.0, arrived + service_ms / 1000
                           - time.perf_counter()))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(REPLY)))
            self.end_headers()
            self.wfile.write(REPLY)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def measure(url: str, threads: int, requests: int, payload: dict) -> dict:
    """Wall and CPU ms of every timed request, and requests per second."""
    wall_ms: list[float] = []
    cpu_ms: list[float] = []
    lock = threading.Lock()
    start = threading.Barrier(threads + 1)

    def client():
        post_json(url, payload, timeout=30)  # opens this thread's connection
        start.wait()
        walls, cpus = [], []
        for _ in range(requests):
            wall, cpu = time.perf_counter(), time.thread_time()
            post_json(url, payload, timeout=30)
            cpus.append((time.thread_time() - cpu) * 1000)
            walls.append((time.perf_counter() - wall) * 1000)
        with lock:
            wall_ms.extend(walls)
            cpu_ms.extend(cpus)

    workers = [threading.Thread(target=client) for _ in range(threads)]
    for worker in workers:
        worker.start()
    start.wait()
    began = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - began
    if len(wall_ms) != threads * requests:
        raise SystemExit(f"{threads} threads: a client thread failed")
    return {
        "threads": threads,
        "wall_ms_p50": statistics.median(wall_ms),
        "wall_ms_p95": statistics.quantiles(wall_ms, n=20)[-1],
        "cpu_ms_p50": statistics.median(cpu_ms),
        "cpu_ms_mean": statistics.fmean(cpu_ms),
        "qps": len(wall_ms) / elapsed,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--requests", type=int, default=300,
                        help="timed requests per thread")
    parser.add_argument("--service-ms", type=float, default=5.0)
    parser.add_argument("--prompt-chars", type=int, default=8000,
                        help="characters of the one user message sent")
    parser.add_argument("--json", metavar="PATH",
                        help="add this run's record to a JSON file")
    parser.add_argument("--label", default="current",
                        help="name of the measured code, kept in the record")
    args = parser.parse_args(argv)

    payload = {"model": "stub", "temperature": 0, "max_tokens": 1024,
               "messages": [{"role": "user",
                             "content": "x" * args.prompt_chars}]}
    server = serve(args.service_ms)
    url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    print(f"post_json against a {args.service_ms} ms loopback stub, "
          f"{args.requests} requests per thread")
    print("  threads  wall p50  wall p95   cpu p50  cpu mean      qps  (ms)")
    results = []
    try:
        for threads in args.threads:
            r = measure(url, threads, args.requests, payload)
            results.append(r)
            print(f"  {threads:7d} {r['wall_ms_p50']:9.3f} "
                  f"{r['wall_ms_p95']:9.3f} {r['cpu_ms_p50']:9.3f} "
                  f"{r['cpu_ms_mean']:9.3f} {r['qps']:8.1f}")
    finally:
        server.shutdown()
        server.server_close()

    record = {
        "label": args.label,
        "command": " ".join(["python", "benchmarks/bench_transport.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": machine(),
        "requests": args.requests, "service_ms": args.service_ms,
        "prompt_chars": args.prompt_chars, "results": results,
    }
    if args.json:
        write_record(args.json, record,
                     key=("label", "requests", "service_ms", "prompt_chars"))
    return record


if __name__ == "__main__":
    main()
