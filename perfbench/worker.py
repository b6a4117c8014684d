"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

The worker imports qinw from the checkout's own `src/`, builds the
workload and prints a line `{"ready": true}` as soon as it could time
its first op; `run.py` measures set-up time up to that line.  In mode
`setup` it exits there.  In mode `run` it runs ops back to back until
their timed durations add up to S seconds (and at least MIN_OPS ops),
checking each op's output outside the timed region.  In mode `trace`
it installs span wrappers, runs S seconds of ops of which every second
one is traced, and reports the per-layer numbers.  The last stdout line is
a JSON result for run.py.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qinw  # noqa: E402
from qinw import extractor, gf2m, harness, inw, qsim  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 11  # op_s_tail needs ten samples above it
MIN_TRACE_OPS = 6  # three traced, three untraced
WALL_CAP_S = 120.0  # start no op after this much wall time
HEIGHTS = range(1, 14)  # per-height extractor calls h1..h13; prg-stream has M = 13
FAILED = object()


def warm_up() -> None:
    """Touch the lazily loaded paths (numpy linalg, tensordot, the row
    cache) with a tiny report, so the first timed op pays none of it."""
    bp = harness.random_branching_program(2, 2, rng_seed=0)
    harness.fool_experiment(bp, inw.inw_params_raw(4, 1, 2))


def run_ops(wl, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed loop: each op starts when the previous op and its check are
    done.  Only wl.run is timed.  With a tracer, every second op (the
    odd-numbered ones) runs with the span wrappers installed, so traced
    and untraced ops share the machine's state and the row cache is warm
    before the first traced op."""
    durations: list[float] = []
    traced: list[bool] = []
    failed = work = 0
    arow_hits = arow_misses = 0
    timed = 0.0
    wall0 = time.monotonic()
    k = 0
    while (timed < seconds or len(durations) < min_ops) and time.monotonic() - wall0 < WALL_CAP_S:
        inputs = wl.make(k)
        on = tracer is not None and k % 2 == 1
        ci0 = extractor._arow.cache_info()
        if on:
            tracer.install(TRACE_TARGETS)
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
        except Exception:
            traceback.print_exc()
            out = FAILED
        finally:
            t1 = time.perf_counter()
            if on:
                tracer.unpatch()
        if on:
            ci1 = extractor._arow.cache_info()
            arow_hits += ci1.hits - ci0.hits
            arow_misses += ci1.misses - ci0.misses
        durations.append(t1 - t0)
        traced.append(on)
        timed += t1 - t0
        ok = False
        if out is not FAILED:
            try:
                ok = wl.check(inputs, out)
                work += wl.work(out)
            except Exception:
                traceback.print_exc()
        failed += not ok
        k += 1
    return {"durations": durations, "traced": traced, "failed": failed, "work": work,
            "timed_s": timed, "arow_hits": arow_hits, "arow_misses": arow_misses}


# (owner, attribute looked up by callers, span name, span tag from args)
TRACE_TARGETS = (
    (harness, "fool_experiment", "harness.fool_experiment", None),
    (harness, "inw_eval_recursive", "inw.eval_recursive", None),
    (harness, "bp_run", "qsim.bp_run", None),
    (harness, "trace_norm", "qsim.trace_norm", None),
    (harness, "sample_seeds", "harness.sample_seeds", None),
    (qsim, "bp_run_avg", "qsim.bp_run_avg", None),
    (qsim, "bp_run", "qsim.bp_run", None),
    (qsim, "apply_gate", "qsim.apply_gate", None),
    (inw, "_arow", "extractor.arow", lambda a: a[1]),
    (inw, "collect_stream", "inw.collect_stream", lambda a: a[0].T),
    (extractor, "biased_vector", "epsbias.biased_vector", None),
    (gf2m.FieldParams, "mul", "gf2m.mul", None),
)


def layer_metrics(s: spans.SpanSummary, res: dict, N: int) -> dict:
    """Per-layer numbers as means per traced op."""
    on = [d for d, t in zip(res["durations"], res["traced"]) if t]
    off = [d for d, t in zip(res["durations"], res["traced"]) if not t]
    n = len(on)
    seeds = s.calls("inw.eval_recursive")
    generator_runs = s.calls_under("qsim.bp_run", "harness.fool_experiment")
    lookups = res["arow_hits"] + res["arow_misses"]
    m = {
        "gf2m.mul.calls": s.calls("gf2m.mul") / n,
        "gf2m.mul.self_s": s.self_s("gf2m.mul") / n,
        "epsbias.biased_vector.calls": s.calls("epsbias.biased_vector") / n,
        "epsbias.biased_vector.self_s": s.self_s("epsbias.biased_vector") / n,
        "extractor.arow.hits": res["arow_hits"] / n,
        "extractor.arow.misses": res["arow_misses"] / n,
        "extractor.arow.hit_ratio": res["arow_hits"] / lookups if lookups else 0.0,
        "inw.seeds_expanded": seeds / n,
        "inw.eval_recursive.self_s": s.self_s("inw.eval_recursive") / n,
        "inw.ext_calls": s.calls("extractor.arow") / n,
        "inw.stream.self_s": s.self_s("inw.collect_stream") / n,
        "inw.stream.bits": s.tag_sum("inw.collect_stream") / n,
        "qsim.bp_run_avg.s": s.total_s("qsim.bp_run_avg") / n,
        "qsim.apply_gate.calls": s.calls("qsim.apply_gate") / n,
        "qsim.apply_gate.self_s": s.self_s("qsim.apply_gate") / n,
        "qsim.bp_run.self_s": s.self_s("qsim.bp_run") / n,
        "qsim.bp_run.calls.uniform": s.calls_under("qsim.bp_run", "qsim.bp_run_avg") / n,
        "qsim.bp_run.calls.generator": generator_runs / n,
        "harness.distinct_ratio": generator_runs / seeds if seeds else 0.0,
        "qsim.trace_norm.s": s.total_s("qsim.trace_norm") / n,
        "harness.sample_seeds.s": s.total_s("harness.sample_seeds") / n,
        "harness.fool_experiment.self_s": s.self_s("harness.fool_experiment") / n,
        "trace.overhead": statistics.median(on) / statistics.median(off) - 1.0,
        "trace.ops": n,
    }
    for h in HEIGHTS:
        m[f"inw.ext_calls.h{h}"] = s.calls_with_tag("extractor.arow", h * N) / n
    return m


def cost_model_check(params, m: dict) -> list[dict]:
    """Extractor calls per height against cost_model's visit bound."""
    rows = []
    for step in inw.cost_model(params).step_costs:
        h = step["height"]
        count = m[f"inw.ext_calls.h{h}"]
        rows.append({"height": h, "ext_calls": count, "model_visits": step["visits"],
                     "exceeds": count > step["visits"]})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args(argv)

    src = pathlib.Path(qinw.__file__).resolve().parent
    if src.parent != ROOT / "src":
        print(f"qinw was imported from {src}, not from this checkout", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload](args.seed)
    warm_up()
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return 0

    meta = {"python": sys.version.split()[0], "numpy": np.__version__, "sizes": wl.sizes,
            "work_unit": wl.work_unit}
    if args.mode == "run":
        res = run_ops(wl, args.seconds, MIN_OPS)
        res["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"meta": meta, **res}))
        return 0

    tracer = spans.Tracer()
    res = run_ops(wl, args.seconds, MIN_TRACE_OPS, tracer)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{args.workload}.npz")
    layers = layer_metrics(tracer.summary(), res, wl.params.N)
    result = {"meta": meta, "layers": layers, "attempted": len(res["durations"]),
              "failed": res["failed"]}
    if args.workload == "prg-stream":
        result["cost_model"] = cost_model_check(wl.params, layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
