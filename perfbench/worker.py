"""One workload in one fresh process: set up, run the closed loop, check.

Started by run.py; not meant to be run by hand.  Prints ``ready <seconds>``
once set-up (imports, input generation, warm-up) is done, and, in measure
mode, one JSON line with the run's raw results as its last line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADDRESS_SPACE_LIMIT = 3 * 2**30


def percentile(ordered, p):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def call(cli, argv):
    """One request: (exit code, stdout, seconds).  Exceptions are results."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--format", "kv"] + argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # counted as a failed request, never fatal
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--mode", choices=["setup", "measure"], default="measure")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    args = parser.parse_args()

    # a scan blow-up becomes a counted MemoryError, not an OOM kill
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    from quandlekit import cli, kernels
    import tracer as tracing
    import workloads

    work_root = os.path.join(ROOT, "perfbench", "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.size == "small")
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        warmup = workload.warmup()
        rounds = [workload.round()]
        done = []  # (request, rc, stdout, seconds, round index)
        for i, req in enumerate(warmup):
            if tracer:
                tracer.begin_request(-1 - i)
            done.append((req, *call(cli, req.argv), -1))
        setup_s = time.monotonic() - args.spawned
        print(f"ready {setup_s!r}", flush=True)
        if args.mode == "setup":
            return

        start = time.perf_counter()
        exhausted = None
        index = 0
        while True:
            for req in rounds[-1]:
                if tracer:
                    tracer.begin_request(index)
                index += 1
                done.append((req, *call(cli, req.argv), len(rounds) - 1))
            if time.perf_counter() - start >= args.seconds:
                break
            try:
                rounds.append(workload.round())
            except workloads.Exhausted as exc:
                exhausted = str(exc)
                break
        wall_s = time.perf_counter() - start
        if tracer:
            tracer.enabled = False

        verdicts, errors = [], []
        for req, rc, stdout, seconds, round_index in done:
            try:
                verdict, error = workloads.check(req, rc, stdout)
            except Exception as exc:
                verdict, error = f"{req.kind}:unreadable", f"{type(exc).__name__}: {exc}"
            if round_index == 0:
                verdicts.append(verdict)
            if error:
                errors.append(f"{' '.join(req.argv)}: {error}")
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]

        measured = [d for d in done if d[4] >= 0]
        latencies = sorted(d[3] for d in measured)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "attempted": len(done),
            "failed": len(errors),
            "errors": errors[:20],
            "rounds": len(rounds),
            "requests": len(measured),
            "exhausted": exhausted,
            "digest": digest,
            "wall_s": wall_s,
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
            "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
            "beyond_p90": sum(1 for t in latencies if t > percentile(latencies, 0.9)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "backend": kernels.backend_name(),
                "commit": git_commit(),
                "seed": args.seed,
            },
        }
        if tracer:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            ops = tracer.stats["cli.main"].calls
            result["layers"] = {name: tracer.value(name, ops) for name in names}
            result["layer_self"] = tracer.layer_self()
            out_dir = os.path.join(ROOT, "perfbench", "_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
            tracer.dump_spans(spans)
            result["spans"] = os.path.relpath(spans, ROOT)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
