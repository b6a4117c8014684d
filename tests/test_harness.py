import hashlib
import json
import pathlib
import random
import struct

import numpy as np
import pytest

import qinw
from qinw import harness, qsim
from qinw.harness import (
    classical_fool_experiment,
    fool_experiment,
    level_experiment,
    parity_program,
    program_sha256,
    random_branching_program,
    random_classical_program,
    sample_seeds,
)
from qinw.inw import inw_params, inw_params_raw

RAW = inw_params_raw(4, 3, 2)
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "fooling_fixtures.json"


def test_sample_seeds_deterministic():
    a = sample_seeds(RAW, 32, rng_seed=5)
    b = sample_seeds(RAW, 32, rng_seed=5)
    assert a == b
    assert len(a) == 32 and all(0 <= s < 1 << 16 for s in a)
    assert sample_seeds(RAW, 1, rng_seed=5) == a[:1]


def test_sample_seeds_streams_differ():
    a = sample_seeds(RAW, 64, rng_seed=1)
    b = sample_seeds(RAW, 64, rng_seed=2)
    assert a != b
    with pytest.raises(ValueError):
        sample_seeds(RAW, 0, rng_seed=1)


def test_sample_seeds_wide():
    p = inw_params(S=2, T=4, eps=0.5)
    seeds = sample_seeds(p, 8, rng_seed=3)
    assert all(0 <= s < 1 << p.seed_bits for s in seeds)
    assert max(seeds).bit_length() > 64  # actually spans the wide seed space


def test_sample_seeds_beyond_one_digest():
    """A 540-bit seed spans three SHA-256 digests, concatenated little-endian."""
    p = inw_params(S=4, T=16, eps=0.1)
    assert p.seed_bits == 540
    for k, seed in enumerate(sample_seeds(p, 3, rng_seed=11)):
        digests = b"".join(
            hashlib.sha256(b"qinw-seed" + struct.pack("<QQQ", 11, k, blk)).digest()
            for blk in range(3))
        assert seed == int.from_bytes(digests, "little") % (1 << 540)


def test_fool_coin_insensitive_is_exactly_zero():
    ops = (qinw.hadamard(1), qinw.reset(2))
    bp = qsim.BranchingProgram(2, tuple((ops, ops) for _ in range(8)))
    report = fool_experiment(bp, RAW)
    assert report.d1 == 0.0 and report.trace_norm == 0.0
    assert report.bound is None  # raw parameters carry no guarantee


def test_fool_first_coin_only_is_exactly_zero():
    steps = [((qinw.hadamard(1),), (qinw.hadamard(1), qinw.reflect1(1)))]
    steps += [((), ())] * 7
    bp = qsim.BranchingProgram(2, tuple(steps))
    report = fool_experiment(bp, RAW)
    assert report.d1 == 0.0


def test_fool_exhaustive_is_order_independent():
    bp = random_branching_program(2, 8, rng_seed=4)
    report = fool_experiment(bp, RAW)
    # recompute the generator histogram in a permuted seed order
    rng = random.Random(0)
    seeds = list(range(1 << 16))
    rng.shuffle(seeds)
    weights = {}
    for seed in seeds:
        r = qinw.inw_expand(RAW, seed)
        weights[r] = weights.get(r, 0) + 1
    rho_true = qsim.bp_run_avg(bp, qinw.dm_new(2), "uniform")
    rho_prg = qsim.bp_run_avg(bp, qinw.dm_new(2), weights)
    d1 = qinw.trace_distance(rho_true, rho_prg)
    assert d1 == report.d1


def test_strings_enumerated_counts_distinct_generator_strings():
    """C09 shape: the report counts the coin strings the generator side
    simulated, not the 2^n strings the uniform side never enumerates."""
    bp = random_branching_program(2, 8, rng_seed=4)
    mask = (1 << 8) - 1
    distinct = {qinw.inw_expand(RAW, seed) & mask for seed in range(1 << 16)}
    report = fool_experiment(bp, RAW)
    assert report.strings_enumerated == len(distinct) < 1 << 8
    sampled = fool_experiment(bp, RAW, n_seeds=50, rng_seed=3)
    assert sampled.strings_enumerated == len(
        {qinw.inw_expand(RAW, seed) & mask for seed in sample_seeds(RAW, 50, rng_seed=3)})


def test_fool_sampled_reproducible_bit_for_bit():
    bp = random_branching_program(2, 8, rng_seed=6)
    r1 = fool_experiment(bp, RAW, n_seeds=500, rng_seed=9)
    r2 = fool_experiment(bp, RAW, n_seeds=500, rng_seed=9)
    assert r1.d1 == r2.d1 and r1.sigma_est == r2.sigma_est
    assert r1.mode["stream"] == harness.SEED_STREAM_ID


def test_fool_step_count_validation():
    bp = random_branching_program(2, 9, rng_seed=0)
    with pytest.raises(ValueError):
        fool_experiment(bp, RAW)


def test_regression_fixtures_match():
    fix = json.loads(FIXTURES.read_text())
    p = fix["params"]
    params = inw_params_raw(p["raw_N"], p["raw_M"], p["S"])
    for entry in fix["programs"]:
        bp = random_branching_program(2, 8, rng_seed=entry["rng_seed"])
        assert program_sha256(bp) == entry["sha256"]
        report = fool_experiment(bp, params)
        assert abs(report.d1 - entry["d1"]) <= 1e-12
        assert abs(report.trace_norm - entry["trace_norm"]) <= 1e-12


def test_level_zero_is_exactly_uniform():
    bp = qsim.BranchingProgram(1, (((), qsim.bitflip_ops(1)),))
    tn, bound = level_experiment(bp, RAW, 0)
    assert tn == 0.0 and bound is None


def test_level_one_first_coin_program():
    steps = (((qinw.hadamard(1),), (qinw.hadamard(1), qinw.reflect1(1))), ((), ()))
    bp = qsim.BranchingProgram(1, steps)
    tn, _ = level_experiment(bp, RAW, 1)
    assert tn == 0.0


def test_level_fixture_and_bounds():
    fix = json.loads(FIXTURES.read_text())["level2"]
    bp = random_branching_program(2, 4, rng_seed=fix["rng_seed"])
    assert program_sha256(bp) == fix["sha256"]
    tn, bound = level_experiment(bp, RAW, 2)
    assert abs(tn - fix["trace_norm"]) <= 1e-12
    assert bound is None
    # in-regime parameters attach the per-level bound 3^i * eps / T^2
    p = inw_params(S=2, T=4, eps=0.5)
    small = qsim.BranchingProgram(1, (((), qsim.bitflip_ops(1)),))
    tn, bound = level_experiment(small, p, 1, n_seeds=200, rng_seed=0)
    assert bound == pytest.approx(3 * 0.5 / 16)
    with pytest.raises(ValueError):
        level_experiment(bp, RAW, 1)  # 4 coins > 2^1


def test_in_regime_bound_holds_sampled():
    params = inw_params(S=2, T=4, eps=0.5)
    bp = random_branching_program(2, 4, rng_seed=2026)
    report = fool_experiment(bp, params, n_seeds=1500, rng_seed=1)
    assert report.bound == 0.5
    assert report.sigma_est is not None
    assert report.trace_norm <= report.bound + 3 * report.sigma_est


def test_classical_width_one_is_zero():
    report = classical_fool_experiment(1, 8, RAW)
    assert report.d1 == 0.0
    assert report.extras["width"] == 1


def test_classical_width2_parity_fixture():
    fix = json.loads(FIXTURES.read_text())["classical_width2_parity"]
    pp = parity_program(8)
    assert program_sha256(pp) == fix["sha256"]
    report = fool_experiment(pp, RAW, program_id="parity-8")
    assert abs(report.d1 - fix["d1"]) <= 1e-12


def test_classical_programs_stay_diagonal():
    bp = random_classical_program(4, 6, rng_seed=3)
    rho = qinw.dm_new(bp.s)
    for r in (0, 0b101010, 0b111111):
        cur = rho
        for k, (c0, c1) in enumerate(bp.steps):
            for op in c1 if (r >> k) & 1 else c0:
                cur = qinw.apply_gate(cur, op)
            off = cur.mat - np.diag(np.diag(cur.mat))
            assert np.all(off == 0)


def test_classical_width_capacity():
    assert random_classical_program(1 << 12, 4, rng_seed=0).s == 12
    with pytest.raises(ValueError):
        random_classical_program(1 << 13, 4, rng_seed=0)
    with pytest.raises(ValueError):
        random_classical_program(0, 4, rng_seed=0)


def test_fool_report_dict():
    bp = random_branching_program(2, 8, rng_seed=1)
    d = fool_experiment(bp, RAW).to_dict()
    for key in ("program_id", "d1", "trace_norm", "bound", "mode", "params",
                "runtime_seconds", "strings_enumerated", "seeds_used"):
        assert key in d


def test_bench_smoke():
    rep = harness.bench_stream(t_exponents=(6, 7), repeats=1)
    assert len(rep["ladder"]) == 2 and len(rep["doubling_ratios"]) == 1
    rep = harness.bench("sim")
    assert rep["suite"] == "sim"
    with pytest.raises(ValueError):
        harness.bench("nope")
