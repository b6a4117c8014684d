"""qinw benchmark: fooling reports and generator streams, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and metrics are declared
in BENCHMARK.json.  Each workload runs in its own single-threaded worker
process (perfbench/worker.py) as a closed loop with one client: the next
op starts only after the previous op and its output check are done.

--trace 0 prints the end-to-end metrics.  Set-up time is the median of
SETUP_REPEATS worker starts, measured from process spawn to the worker's
"ready" line.  --trace 1 runs one worker in which every second op runs
with span wrappers installed, and prints the per-layer metrics; spans
are written to perfbench/out/.

Human-readable lines come first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero, and no result is printed, if a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170.0
SINGLE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                      "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, its JSON result or None in setup mode)."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if code != 0 or not ready.startswith('{"ready"'):
        raise WorkerError(f"{mode} worker for {workload} exited with code {code}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; with ten samples or fewer, the lowest sample."""
    xs = sorted(durations)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [spawn(workload, seed, seconds, "setup")[0]
              for _ in range(SETUP_REPEATS - 1)]
    setup_s, res = spawn(workload, seed, seconds, "run")
    setups.append(setup_s)
    d = res["durations"]
    attempted, failed = len(d), res["failed"]
    tail_s, tail_pct = tail(d)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(d), "s"),
        "op_s_tail": (tail_s, "s"),
        "work_per_s": (res["work"] / res["timed_s"], "1/s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"ops: {attempted} attempted, {failed} failed, fail_frac {failed / attempted:.4f}")
    print(f"op_s_tail is p{tail_pct:.1f} of {attempted} samples")
    print(f"work unit: {res['meta']['work_unit']}; setup samples: "
          + ", ".join(f"{x:.4f}" for x in setups))
    return metrics, {"meta": res["meta"], "attempted": attempted, "failed": failed}


def traced(workload: str, seed: int, seconds: float, units: dict) -> tuple[dict, dict]:
    _, res = spawn(workload, seed, seconds, "trace")
    metrics = {name: (value, units.get(name, "")) for name, value in res["layers"].items()}
    for row in res.get("cost_model", []):
        flag = "EXCEEDS MODEL" if row["exceeds"] else "ok"
        print(f"cost model h{row['height']}: ext_calls {row['ext_calls']:g} "
              f"<= visits {row['model_visits']}: {flag}")
    print(f"spans written to perfbench/out/spans-{workload}.npz")
    return metrics, res


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, res = traced(args.workload, args.seed, args.seconds, units)
            declared = list(units)
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds)
            declared = [m["name"] for m in spec["end_to_end"]]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1

    meta = res["meta"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "git_sha": git_sha(), "python": meta["python"], "numpy": meta["numpy"],
                      "nproc": len(os.sched_getaffinity(0)), "sizes": meta["sizes"]}))
    for name in declared:
        value, unit = metrics[name]
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
