"""quandlekit benchmark: one workload, closed loop, checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads: classify, scan, welded, freenilp (see perfbench/RESULTS.md).
A single client in a single thread sends each CLI request
(``quandlekit.cli.main([...])`` in-process, stdout captured) as soon as the
previous one returns, in whole rounds, until --seconds have passed.

The workload runs in a fresh child process (worker.py) with RLIMIT_AS set
and BLAS threads pinned to 1.  Set-up (imports, input generation from
--seed, warm-up) is timed in that child and in SETUPS - 1 more
set-up-only children, and the median is reported.  With --trace 1 the
child wraps every quandlekit module's functions and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
DEADLINE_S = 170


def child(args, mode, deadline):
    """Run worker.py once; return (set-up seconds, its last stdout line)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--mode", mode, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the {args.workload} worker passed the {DEADLINE_S} s deadline")
    lines = proc.stdout.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: the {args.workload} worker exited with code {proc.returncode}")
    return float(ready[0].split()[1]), lines[-1]


def recorded_digest(workload, seed, size):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["classify", "scan", "welded", "freenilp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full",
                        help="small: tiny inputs, for the harness's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "quandlekit", "cli.py")):
        sys.exit("error: src/quandlekit not found; run from a quandlekit checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S

    setup_times = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setup_times.append(child(args, "setup", deadline)[0])
    setup_s, last = child(args, "measure", deadline)
    setup_times.append(setup_s)
    result = json.loads(last)
    result["setup_s"] = statistics.median(setup_times)

    errors = list(result["errors"])
    failed = result["failed"]
    expected = recorded_digest(args.workload, args.seed, args.size)
    if expected is not None and expected != result["digest"]:
        failed += 1
        errors.append(f"verdict digest {result['digest']} differs from the recorded {expected}")

    m = result["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"backend={m['backend']} commit={m['commit']} seed={m['seed']}")
    print(f"workload={args.workload} size={args.size} trace={args.trace} "
          f"closed loop, 1 client, 1 thread: {result['requests']} requests in "
          f"{result['rounds']} rounds, {result['wall_s']:.2f} s")
    if result["exhausted"]:
        print(f"stopped early: inputs exhausted ({result['exhausted']})")
    print(f"verdict_digest={result['digest']} (answers of the first round)")
    if expected is not None:
        print(f"recorded_digest={expected}")
    print(f"failed_frac={failed / result['attempted']:.4f} ({failed} of {result['attempted']})")
    for error in errors:
        print(f"FAILED: {error}")

    if args.trace:
        kinds, values = spec["per_layer"], result["layers"]
        total = sum(result["layer_self"].values())
        print(f"traced ops_per_s={result['ops_per_s']:.4f} 1/s; spans in {result['spans']}")
        print("no layer queues or waits: one process, one thread")
        for layer, s in sorted(result["layer_self"].items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer:<15} {s:9.4f} s  {100 * s / total:5.1f}%")
    else:
        kinds, values = spec["end_to_end"], result
        print(f"latency percentiles over {result['requests']} samples, "
              f"{result['beyond_p90']} beyond p90; setup_s is the median of "
              f"{len(setup_times)} set-ups")
        for k in kinds:
            print(f"{k['name']} = {values[k['name']]:.6g} {k['unit']}")
    metrics = {k["name"]: {"value": values[k["name"]], "unit": k["unit"]} for k in kinds}
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
