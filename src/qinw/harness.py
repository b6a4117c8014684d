"""End-to-end fooling experiments, program generators and benchmarks.

A fooling experiment compares the averaged final state of a branching
program over truly uniform coins with the averaged state over coins
expanded from generator seeds, and reports both the trace norm of the
difference and the trace distance (half of it).  When the parameters
came from inw_params the configured fooling error is attached as the
bound to check; raw desk-scale parameters report the distance without a
claim.

All averaging is exact (qsim: per-step channel composition for uniform
coins, integer-weighted sums and one division for generator coins).
Sampled mode draws seeds from a counter-based SHA-256 stream so every
report is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import inw as _inw
from . import qsim
from .epsbias import BiasedSpaceParams, audit_bias
from .gf2m import field_new
from .inw import InwParams, inw_eval_recursive, inw_params_raw
from .qsim import BranchingProgram, QuantumProgram, bp_run, bp_to_dict, dm_new, trace_norm

SEED_STREAM_ID = "sha256-ctr-v1"
MAX_ENUM_SEED_BITS = 24


def sample_seeds(params: InwParams, n_seeds: int, rng_seed: int, n_bits: int | None = None) -> list[int]:
    """Deterministic seed list: record k is SHA-256("qinw-seed", rng_seed, k, block)
    concatenated until n_bits bits are available."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    bits = params.seed_bits if n_bits is None else n_bits
    n_blocks = -(-bits // 256)
    out = []
    for k in range(n_seeds):
        acc = 0
        for blk in range(n_blocks):
            digest = hashlib.sha256(b"qinw-seed" + struct.pack("<QQQ", rng_seed, k, blk)).digest()
            acc |= int.from_bytes(digest, "little") << (256 * blk)
        out.append(acc & ((1 << bits) - 1))
    return out


def program_sha256(bp: BranchingProgram) -> str:
    return hashlib.sha256(json.dumps(bp_to_dict(bp), sort_keys=True).encode()).hexdigest()


@dataclass
class FoolReport:
    program_id: str
    n_coins: int
    params: dict
    mode: dict
    d1: float
    trace_norm: float
    bound: float | None
    sigma_est: float | None
    per_level: list | None
    runtime_seconds: float
    strings_enumerated: int
    seeds_used: int
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "program_id": self.program_id,
            "n_coins": self.n_coins,
            "params": self.params,
            "mode": self.mode,
            "d1": self.d1,
            "trace_norm": self.trace_norm,
            "bound": self.bound,
            "sigma_est": self.sigma_est,
            "per_level": self.per_level,
            "runtime_seconds": self.runtime_seconds,
            "strings_enumerated": self.strings_enumerated,
            "seeds_used": self.seeds_used,
        }
        out.update(self.extras)
        return out


def _params_summary(params: InwParams) -> dict:
    return {"S": params.S, "T": params.T, "eps": params.eps, "N": params.N, "M": params.M,
            "seed_bits": params.seed_bits}


def _prg_average(params: InwParams, level: int, bp: BranchingProgram,
                 rho0: qsim.DensityMatrix, seeds: Iterable[int] | None):
    """Average state over generator outputs at the given level, the seed
    count, the per-entry standard error for the sampled-mode estimate and
    the number of distinct coin strings simulated."""
    n = len(bp.steps)
    mask = (1 << n) - 1
    bits = (level + 1) * params.N
    if seeds is None:
        if bits > MAX_ENUM_SEED_BITS:
            raise ValueError(
                f"exhaustive enumeration needs {bits} seed bits, budget {MAX_ENUM_SEED_BITS}")
        seeds = range(1 << bits)
    weights: dict[int, int] = {}
    n_seeds = 0
    for seed in seeds:
        r = inw_eval_recursive(params, seed, level) & mask
        weights[r] = weights.get(r, 0) + 1
        n_seeds += 1
    acc = np.zeros_like(rho0.mat)
    acc_sq = np.zeros(rho0.mat.shape, dtype=np.float64)
    for r, final in qsim.bp_run_many(bp, rho0, weights).items():
        w, state = weights[r], final.mat
        acc += w * state
        acc_sq += w * (state.real**2 + state.imag**2)
    mean = acc / n_seeds
    var = acc_sq / n_seeds - (mean.real**2 + mean.imag**2)
    np.clip(var, 0.0, None, out=var)
    sigma_entry = float(np.max(np.sqrt(var / n_seeds)))
    return qsim.DensityMatrix(bp.s, mean), n_seeds, sigma_entry, len(weights)


def fool_experiment(bp: BranchingProgram, params: InwParams, *,
                    n_seeds: int | None = None, rng_seed: int = 0,
                    program_id: str | None = None) -> FoolReport:
    """Compare uniform-coin and generator-coin averages of the program.

    The uniform side composes the per-step channels (C0 + C1)/2, exact
    on dyadic states; the generator side sums the distinct coin strings'
    states (simulated with shared prefixes, each bit-identical to
    bp_run) with integer weights in ascending order and divides once.
    Exhaustive mode (n_seeds None) enumerates every seed; sampled mode
    draws n_seeds from the deterministic stream and attaches the error
    estimate sigma_est = dim * max entrywise standard error (a crude
    trace-norm perturbation bound).  strings_enumerated counts the
    distinct coin strings the generator side simulated; the uniform side
    enumerates none."""
    n = len(bp.steps)
    if n > params.T:
        raise ValueError(f"program reads {n} coins but the generator outputs {params.T}")
    t0 = time.perf_counter()
    rho0 = dm_new(bp.s)
    rho_true = qsim.bp_run_avg(bp, rho0, "uniform")
    if n_seeds is None:
        rho_prg, used, _, distinct = _prg_average(params, params.M, bp, rho0, None)
        mode = {"kind": "exhaustive"}
        sigma_est = None
    else:
        seeds = sample_seeds(params, n_seeds, rng_seed)
        rho_prg, used, sigma_entry, distinct = _prg_average(params, params.M, bp, rho0, seeds)
        mode = {"kind": "sampled", "n_seeds": n_seeds, "rng_seed": rng_seed,
                "stream": SEED_STREAM_ID}
        sigma_est = (1 << bp.s) * sigma_entry
    tn = trace_norm(rho_true.mat - rho_prg.mat)
    return FoolReport(
        program_id=program_id or program_sha256(bp),
        n_coins=n,
        params=_params_summary(params),
        mode=mode,
        d1=tn / 2.0,
        trace_norm=tn,
        bound=params.eps,
        sigma_est=sigma_est,
        per_level=None,
        runtime_seconds=time.perf_counter() - t0,
        strings_enumerated=distinct,
        seeds_used=used,
    )


def level_experiment(bp: BranchingProgram, params: InwParams, i: int, *,
                     n_seeds: int | None = None, rng_seed: int = 0) -> tuple[float, float | None]:
    """Same comparison against the level-i sub-generator; the program may
    read at most 2^i coins.  Returns (distance, bound) with the bound
    3^i * eps / T^2 when the parameters are in-regime, else None."""
    if not 0 <= i <= params.M:
        raise ValueError(f"level {i} out of range [0, {params.M}]")
    n = len(bp.steps)
    if n > 1 << i:
        raise ValueError(f"program reads {n} coins but level {i} outputs {1 << i}")
    rho0 = dm_new(bp.s)
    rho_true = qsim.bp_run_avg(bp, rho0, "uniform")
    if n_seeds is None:
        seeds = None
    else:
        seeds = sample_seeds(params, n_seeds, rng_seed, n_bits=(i + 1) * params.N)
    rho_prg = _prg_average(params, i, bp, rho0, seeds)[0]
    tn = trace_norm(rho_true.mat - rho_prg.mat)
    bound = (3**i) * params.eps / params.T**2 if params.eps is not None else None
    return tn, bound


# ---------------------------------------------------------------------------
# Program generators (recorded seeds -> reproducible fixtures)
# ---------------------------------------------------------------------------

def random_branching_program(s: int, n_steps: int, rng_seed: int) -> BranchingProgram:
    """Random coin-controlled program over {H, RFL, R} (+ TOF for s >= 3);
    each branch is an independent word of 0-2 operators."""
    rng = random.Random(rng_seed)

    def word():
        ops = []
        for _ in range(rng.randint(0, 2)):
            kinds = ["H", "RFL", "R"] + (["TOF"] if s >= 3 else [])
            kind = rng.choice(kinds)
            if kind == "TOF":
                ops.append(qsim.toffoli(*rng.sample(range(1, s + 1), 3)))
            else:
                ops.append(qsim.GateOp(kind, (rng.randint(1, s),)))
        return tuple(ops)

    return BranchingProgram(s, tuple((word(), word()) for _ in range(n_steps)))


def random_quantum_program(s: int, n_ops: int, max_measurements: int, rng_seed: int) -> QuantumProgram:
    """Random operator sequence with at most max_measurements M ops."""
    rng = random.Random(rng_seed)
    ops = []
    measured = 0
    for _ in range(n_ops):
        kinds = ["H", "RFL", "R"] + (["TOF"] if s >= 3 else [])
        if measured < max_measurements:
            kinds.append("M")
        kind = rng.choice(kinds)
        if kind == "TOF":
            ops.append(qsim.toffoli(*rng.sample(range(1, s + 1), 3)))
        else:
            if kind == "M":
                measured += 1
            ops.append(qsim.GateOp(kind, (rng.randint(1, s),)))
    return QuantumProgram(s, tuple(ops))


def parity_program(n_steps: int) -> BranchingProgram:
    """Width-2 classical program flipping its state qubit on every 1-coin:
    the final state encodes the parity of all coins."""
    flip = qsim.bitflip_ops(1)
    return BranchingProgram(1, tuple(((), flip) for _ in range(n_steps)))


def random_classical_program(width: int, n_steps: int, rng_seed: int) -> BranchingProgram:
    """Random read-once permutation program on `width` classical states,
    embedded on ceil(log2 width) qubits as basis-state permutations.

    The permutation menu is what the operator basis provides: bit flips
    (H.RFL.H) and, from three state qubits up, Toffolis; widths that are
    not powers of two act on the enclosing 2^k-state cube.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    k = max((width - 1).bit_length(), 0)
    if k > qsim.MAX_QUBITS:
        raise ValueError(f"width {width} exceeds the 2^{qsim.MAX_QUBITS} state capacity")
    s = max(k, 1)
    rng = random.Random(rng_seed)

    def word():
        if k == 0:
            return ()
        ops = []
        for _ in range(rng.randint(0, 2)):
            if k >= 3 and rng.random() < 0.5:
                ops.append(qsim.toffoli(*rng.sample(range(1, k + 1), 3)))
            else:
                ops.extend(qsim.bitflip_ops(rng.randint(1, k)))
        return tuple(ops)

    return BranchingProgram(s, tuple((word(), word()) for _ in range(n_steps)))


def classical_fool_experiment(width: int, n_steps: int, params: InwParams, *,
                              n_seeds: int | None = None, rng_seed: int = 0,
                              program_rng_seed: int = 0) -> FoolReport:
    """fool_experiment on a random width-bounded classical program."""
    bp = random_classical_program(width, n_steps, program_rng_seed)
    report = fool_experiment(bp, params, n_seeds=n_seeds, rng_seed=rng_seed,
                             program_id=f"classical-w{width}-seed{program_rng_seed}")
    report.extras["width"] = width
    report.extras["program_rng_seed"] = program_rng_seed
    report.extras["program_sha256"] = program_sha256(bp)
    return report


# ---------------------------------------------------------------------------
# Benchmarks (informational; the stream-scaling check is the one assertion
# the test suite makes about timings)
# ---------------------------------------------------------------------------

def _best_time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_stream(t_exponents=(10, 11, 12, 13), N: int = 4, repeats: int = 3) -> dict:
    """Wall-clock of full stream collection at a ladder of output lengths,
    with the doubling ratios time(2T)/time(T)."""
    rows = []
    for e in t_exponents:
        params = inw_params_raw(N, e, S=2)
        seed = sample_seeds(params, 1, rng_seed=7)[0]
        dt = _best_time(lambda: _inw.collect_stream(params, seed), repeats)
        rows.append({"T": 1 << e, "seconds": dt, "per_bit": dt / (1 << e)})
    ratios = [rows[i + 1]["seconds"] / rows[i]["seconds"] for i in range(len(rows) - 1)]
    return {"suite": "prg-stream", "N": N, "ladder": rows, "doubling_ratios": ratios}


def bench_recursive(t_exponents=(10, 11, 12, 13), N: int = 4, repeats: int = 3) -> dict:
    rows = []
    for e in t_exponents:
        params = inw_params_raw(N, e, S=2)
        seed = sample_seeds(params, 1, rng_seed=7)[0]
        dt = _best_time(lambda: _inw.inw_expand(params, seed), repeats)
        rows.append({"T": 1 << e, "seconds": dt, "per_bit": dt / (1 << e)})
    ratios = [rows[i + 1]["seconds"] / rows[i]["seconds"] for i in range(len(rows) - 1)]
    return {"suite": "prg-recursive", "N": N, "ladder": rows, "doubling_ratios": ratios}


def bench_gf(repeats: int = 3, n_ops: int = 20000) -> dict:
    rows = []
    for i in range(4):
        f = field_new(i)
        rng = random.Random(11)
        pairs = [(rng.randrange(1 << f.m), rng.randrange(1 << f.m)) for _ in range(256)]

        def run():
            for k in range(n_ops):
                a, b = pairs[k & 255]
                f.mul(a, b)

        dt = _best_time(run, repeats)
        rows.append({"m": f.m, "mul_per_second": n_ops / dt})
    return {"suite": "gf", "throughput": rows}


def bench_bias() -> dict:
    t0 = time.perf_counter()
    report = audit_bias(BiasedSpaceParams(16, field_new(1)), 0.25)
    return {"suite": "bias", "n": 16, "m": 6, "seconds": time.perf_counter() - t0,
            "max_bias": report.max_bias, "pass": report.passed}


def bench_sim(repeats: int = 3) -> dict:
    rows = []
    for s in (2, 3, 4):
        bp = random_branching_program(s, 8, rng_seed=5)

        def run():
            rho0 = dm_new(s)
            for r in range(64):
                bp_run(bp, rho0, r)

        dt = _best_time(run, repeats)
        rows.append({"s": s, "runs_per_second": 64 / dt})
    return {"suite": "sim", "throughput": rows}


def bench(suite: str) -> dict:
    table = {
        "gf": bench_gf,
        "bias": bench_bias,
        "prg-stream": bench_stream,
        "prg-recursive": bench_recursive,
        "sim": bench_sim,
    }
    if suite not in table:
        raise ValueError(f"unknown bench suite {suite!r}; pick one of {sorted(table)}")
    return table[suite]()
