"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in `__init__`
(counted in set-up time), hands out per-op inputs from `make(k)`
(untimed), runs one op in `run` (timed) and verifies the op's output in
`check` (untimed).  One op is one fooling report or one stream
collection; `work` counts the units of work the op did.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import numpy as np

from qinw import harness, inw, qsim

HERE = pathlib.Path(__file__).resolve().parent
TOL = 1e-12


def derive(seed: int, purpose: str, k: int = 0) -> int:
    """A 63-bit seed for one purpose and op index, fixed by the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class FoolExhaustive:
    """Exhaustive report (all 2^16 seeds) on the C09 fixture programs.

    c09_fixtures.json is a copy of the program entries of the test suite's
    fooling fixtures, kept here so the benchmark's reference values do not
    move with the tests."""

    work_unit = "seeds"

    def __init__(self, seed: int) -> None:
        fix = json.loads((HERE / "c09_fixtures.json").read_text())
        p = fix["params"]
        self.params = inw.inw_params_raw(p["raw_N"], p["raw_M"], p["S"])
        self.programs = [(harness.random_branching_program(2, 8, rng_seed=e["rng_seed"]), e)
                         for e in fix["programs"]]
        self.offset = seed % len(self.programs)
        self.sizes = {"s": 2, "coins": 8, "N": p["raw_N"], "M": p["raw_M"],
                      "seeds_per_op": 1 << self.params.seed_bits, "programs": len(self.programs)}

    def make(self, k: int):
        return self.programs[(self.offset + k) % len(self.programs)]

    def run(self, inputs):
        bp, _ = inputs
        return harness.fool_experiment(bp, self.params)

    def work(self, report) -> int:
        return report.seeds_used

    def check(self, inputs, report) -> bool:
        bp, expected = inputs
        return (harness.program_sha256(bp) == expected["sha256"]
                and report.seeds_used == 1 << self.params.seed_bits
                and abs(report.d1 - expected["d1"]) <= TOL)


class FoolSampled:
    """In-regime sampled report: N=36, M=2, 2000 seeds, fresh program and
    sample stream per op so the process-wide row cache never hits."""

    work_unit = "seeds"
    n_seeds = 2000
    n_cross = 4  # seeds per op whose expansion is compared across the three modes

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = inw.inw_params(S=2, T=4, eps=0.5)
        self.sizes = {"s": 2, "coins": 4, "S": 2, "T": 4, "eps": 0.5, "N": self.params.N,
                      "M": self.params.M, "seeds_per_op": self.n_seeds}

    def make(self, k: int):
        bp = harness.random_branching_program(2, 4, rng_seed=derive(self.seed, "program", k))
        return bp, derive(self.seed, "sample", k)

    def run(self, inputs):
        bp, rng_seed = inputs
        return harness.fool_experiment(bp, self.params, n_seeds=self.n_seeds, rng_seed=rng_seed)

    def work(self, report) -> int:
        return report.seeds_used

    def check(self, inputs, report) -> bool:
        _, rng_seed = inputs
        if report.seeds_used != self.n_seeds:
            return False
        if not report.trace_norm <= report.bound + 3 * report.sigma_est:
            return False
        p = self.params
        for s in harness.sample_seeds(p, self.n_cross, rng_seed):
            bits = inw.inw_expand(p, s)
            if inw.collect_stream(p, s) != bits:
                return False
            if any(inw.inw_coord(p, s, j) != (bits >> j) & 1 for j in range(p.T)):
                return False
        return True


_WIDE_KINDS = ("H", "TOF", "RFL", "R")


def fixed_mix_program(s: int, n_steps: int, rng_seed: int) -> qsim.BranchingProgram:
    """Random program in which every branch applies exactly one gate and
    each gate kind fills the same number of branches, so every program
    costs the same number of gate applications per coin string."""
    rng = random.Random(rng_seed)
    kinds = [_WIDE_KINDS[i % len(_WIDE_KINDS)] for i in range(2 * n_steps)]
    rng.shuffle(kinds)
    ops = [qsim.toffoli(*rng.sample(range(1, s + 1), 3)) if kind == "TOF"
           else qsim.GateOp(kind, (rng.randint(1, s),)) for kind in kinds]
    return qsim.BranchingProgram(s, tuple(((ops[2 * i],), (ops[2 * i + 1],)) for i in range(n_steps)))


class FoolWide:
    """Sampled report on a coin-heavy program: s=3, 10 coins, 500 seeds,
    where the 2^10-string uniform average dominates."""

    work_unit = "seeds"
    n_seeds = 500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = inw.inw_params_raw(4, 4, 2)
        self.bp = fixed_mix_program(3, 10, derive(seed, "program"))
        self.sizes = {"s": 3, "coins": 10, "N": 4, "M": 4, "seeds_per_op": self.n_seeds,
                      "gates_per_branch": 1}

    def make(self, k: int):
        return derive(self.seed, "sample", k)

    def run(self, rng_seed):
        return harness.fool_experiment(self.bp, self.params, n_seeds=self.n_seeds, rng_seed=rng_seed)

    def work(self, report) -> int:
        return report.seeds_used

    def check(self, rng_seed, report) -> bool:
        """Recompute the trace norm along another path: the uniform side as
        the composition of the per-step channels (C0 + C1)/2, the generator
        side from an inw_expand histogram."""
        bp, p = self.bp, self.params
        rho0 = qsim.dm_new(bp.s)
        uniform = rho0
        for c0, c1 in bp.steps:
            a, b = uniform, uniform
            for op in c0:
                a = qsim.apply_gate(a, op)
            for op in c1:
                b = qsim.apply_gate(b, op)
            uniform = qsim.DensityMatrix(bp.s, (a.mat + b.mat) * 0.5)
        mask = (1 << len(bp.steps)) - 1
        hist: dict[int, int] = {}
        for s in harness.sample_seeds(p, self.n_seeds, rng_seed):
            r = inw.inw_expand(p, s) & mask
            hist[r] = hist.get(r, 0) + 1
        acc = np.zeros_like(rho0.mat)
        for r, w in hist.items():
            acc += w * qsim.bp_run(bp, rho0, r).mat
        diff = uniform.mat - acc / self.n_seeds
        tn = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0))))
        return report.seeds_used == self.n_seeds and abs(tn - report.trace_norm) <= TOL


class PrgStream:
    """collect_stream of T = 2^13 bits at N=4 on a fresh seed per op."""

    work_unit = "bits"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params = inw.inw_params_raw(4, 13, 2)
        self.sizes = {"N": 4, "M": 13, "T": self.params.T}

    def make(self, k: int) -> int:
        return harness.sample_seeds(self.params, 1, derive(self.seed, "stream", k))[0]

    def run(self, seed: int) -> int:
        return inw.collect_stream(self.params, seed)

    def work(self, bits: int) -> int:
        return self.params.T

    def check(self, seed: int, bits: int) -> bool:
        return bits == inw.inw_expand(self.params, seed)


WORKLOADS = {
    "fool-exhaustive": FoolExhaustive,
    "fool-sampled": FoolSampled,
    "fool-wide": FoolWide,
    "prg-stream": PrgStream,
}
