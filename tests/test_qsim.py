import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinw import qsim
from qinw.harness import parity_program, random_branching_program, random_quantum_program
from qinw.qsim import (
    BranchingProgram,
    GateOp,
    QuantumProgram,
    apply_gate,
    bp_from_dict,
    bp_run,
    bp_run_avg,
    bp_run_many,
    bp_to_dict,
    compile_measurements,
    dm_new,
    hadamard,
    measure,
    output_distribution,
    partial_trace_last,
    program_from_dict,
    program_to_dict,
    qp_run,
    random_density,
    reflect1,
    reset,
    toffoli,
    trace_distance,
    trace_norm,
)


def plus_state():
    return apply_gate(dm_new(1), hadamard(1))


# --- full-matrix oracle for unitary conjugation ---

def full_unitary(kind, qubits, s, raw=False):
    """The gate's 2^s x 2^s matrix; raw=True leaves the Hadamard as the
    integer butterfly [[1,1],[1,-1]] (no 1/sqrt(2))."""
    if kind == "H":
        u2 = np.array([[1, 1], [1, -1]], dtype=complex) / (1 if raw else math.sqrt(2))
        out = np.array([[1]], dtype=complex)
        for q in range(1, s + 1):
            out = np.kron(out, u2 if q == qubits[0] else np.eye(2))
        return out
    if kind == "RFL":
        u2 = np.diag([-1.0, 1.0]).astype(complex)
        out = np.array([[1]], dtype=complex)
        for q in range(1, s + 1):
            out = np.kron(out, u2 if q == qubits[0] else np.eye(2))
        return out
    assert kind == "TOF"
    dim = 1 << s
    u = np.zeros((dim, dim), dtype=complex)
    b1, b2, b3 = (s - q for q in qubits)
    for i in range(dim):
        j = i ^ ((((i >> b1) & 1) & ((i >> b2) & 1)) << b3)
        u[j, i] = 1.0
    return u


def test_dm_new():
    rho = dm_new(1)
    assert np.array_equal(rho.mat, [[1, 0], [0, 0]])
    assert np.trace(dm_new(3).mat) == 1.0
    rho2 = dm_new(2)
    assert rho2.mat[0, 0] == 1.0 and np.count_nonzero(rho2.mat) == 1
    with pytest.raises(ValueError):
        dm_new(0)
    with pytest.raises(ValueError):
        dm_new(13)


def test_hadamard_example():
    assert np.allclose(plus_state().mat, 0.5 * np.ones((2, 2)))


def test_measure_example():
    assert np.allclose(apply_gate(plus_state(), measure(1)).mat, np.eye(2) / 2)


def test_reset_example():
    mixed = apply_gate(plus_state(), measure(1))
    assert np.allclose(apply_gate(mixed, reset(1)).mat, [[1, 0], [0, 0]])


def all_ops(s):
    """Every operator on every qubit position (ordered triples for TOF)."""
    ops = [GateOp(kind, (q,)) for kind in ("H", "RFL", "M", "R") for q in range(1, s + 1)]
    ops += [toffoli(*t) for t in itertools.permutations(range(1, s + 1), 3)]
    return ops


def test_unitaries_match_full_matrix_oracle():
    rng = np.random.default_rng(0)
    cases = [(op.kind, op.qubits, s) for s in (1, 2, 3, 4) for op in all_ops(s)
             if op.kind in ("H", "RFL", "TOF")]
    for kind, qubits, s in cases:
        rho = random_density(s, rng)
        u = full_unitary(kind, qubits, s)
        expected = u @ rho.mat @ u.conj().T
        got = apply_gate(rho, GateOp(kind, qubits)).mat
        assert np.max(np.abs(got - expected)) < 1e-12


def test_measure_matches_block_formula():
    rng = np.random.default_rng(1)
    for s in (1, 2, 3, 4):
        rho = random_density(s, rng)
        for q in range(1, s + 1):
            got = apply_gate(rho, measure(q)).mat
            expected = rho.mat.copy()
            for i in range(1 << s):
                for j in range(1 << s):
                    if ((i >> (s - q)) & 1) != ((j >> (s - q)) & 1):
                        expected[i, j] = 0
            assert np.array_equal(got, expected)


def test_reset_matches_block_formula():
    rng = np.random.default_rng(2)
    for s in (1, 2, 3, 4):
        rho = random_density(s, rng)
        for q in range(1, s + 1):
            got = apply_gate(rho, reset(q)).mat
            dim = 1 << s
            expected = np.zeros((dim, dim), dtype=complex)
            bit = 1 << (s - q)
            for i in range(dim):
                for j in range(dim):
                    if not (i & bit) and not (j & bit):
                        expected[i, j] = rho.mat[i, j] + rho.mat[i | bit, j | bit]
            assert np.max(np.abs(got - expected)) < 1e-15


def block_oracle(op, s, mat):
    """M and R from their block formulas, entry by entry."""
    bit = 1 << (s - op.qubits[0])
    out = np.zeros_like(mat)
    for i in range(1 << s):
        for j in range(1 << s):
            if op.kind == "M" and bool(i & bit) == bool(j & bit):
                out[i, j] = mat[i, j]
            if op.kind == "R" and not (i & bit) and not (j & bit):
                out[i, j] = mat[i, j] + mat[i | bit, j | bit]
    return out


def test_kernels_exact_on_real_dyadic_states():
    """Every kernel on every qubit position equals its integer oracle bit
    for bit: U rho U^T with integer U (and one *0.5 for H), or the block
    formula for M and R.  States stay real float64."""
    for s in (1, 2, 3, 4):
        plus = dm_new(s)
        assert plus.mat.dtype == np.float64
        for q in range(1, s + 1):
            plus = apply_gate(plus, hadamard(q))
        # an exact 1/16 mixture of 16 random programs' outputs
        runs = [qp_run(random_quantum_program(s, 12, 1, rng_seed=k), plus).mat for k in range(16)]
        rho = qsim.DensityMatrix(s, sum(runs) * 0.0625)
        assert rho.mat.dtype == np.float64 and np.count_nonzero(rho.mat) > 1 << s
        for op in all_ops(s):
            got = apply_gate(rho, op).mat
            if op.kind in ("M", "R"):
                want = block_oracle(op, s, rho.mat)
            else:
                u = full_unitary(op.kind, op.qubits, s, raw=True).real
                want = u @ rho.mat @ u.T * (0.5 if op.kind == "H" else 1.0)
            assert got.dtype == np.float64 and np.array_equal(got, want), (s, op)


def test_complex_input_stays_complex():
    rng = np.random.default_rng(9)
    for s in (1, 3):
        rho = random_density(s, rng)
        assert rho.mat.dtype == np.complex128
        for op in all_ops(s):
            assert apply_gate(rho, op).mat.dtype == np.complex128, op


def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("X", (1,))
    with pytest.raises(ValueError):
        toffoli(1, 1, 2)
    with pytest.raises(ValueError):
        hadamard(0)
    with pytest.raises(ValueError):
        apply_gate(dm_new(2), hadamard(3))


def test_channel_contracts_hold_after_random_ops():
    rng = np.random.default_rng(3)
    rho = dm_new(3)
    kinds = ["H", "RFL", "M", "R", "TOF"]
    for _ in range(1000):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "TOF":
            q = tuple(rng.permutation([1, 2, 3])[:3])
        else:
            q = (int(rng.integers(1, 4)),)
        rho = apply_gate(rho, GateOp(kind, q))
        rho.validate(atol=1e-10)


def test_trace_distance_examples():
    rho = dm_new(2)
    assert trace_distance(rho, rho) == 0.0
    one = apply_gate(apply_gate(dm_new(1), hadamard(1)), measure(1))
    zero = dm_new(1)
    mixed = one  # I/2
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    flipped = apply_gate(apply_gate(apply_gate(zero, hadamard(1)), reflect1(1)), hadamard(1))
    assert trace_distance(zero, flipped) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance(dm_new(1), dm_new(2))


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, c = (random_density(2, rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_data_processing_never_increases_distance():
    rng = np.random.default_rng(5)
    kinds = ["H", "RFL", "M", "R", "TOF"]
    for _ in range(100):
        s = 3
        a, b = random_density(s, rng), random_density(s, rng)
        kind = kinds[rng.integers(len(kinds))]
        if kind == "TOF":
            op = GateOp(kind, tuple(rng.permutation([1, 2, 3])[:3]))
        else:
            op = GateOp(kind, (int(rng.integers(1, s + 1)),))
        before = trace_distance(a, b)
        after = trace_distance(apply_gate(a, op), apply_gate(b, op))
        assert after <= before + 1e-10


def test_variational_characterization_single_qubit():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = random_density(1, rng), random_density(1, rng)
        diff = a.mat - b.mat
        vals, vecs = np.linalg.eigh((diff + diff.conj().T) / 2)
        proj = vecs[:, vals > 0] @ vecs[:, vals > 0].conj().T
        achieved = float(np.real(np.trace(proj @ diff)))
        assert abs(achieved - trace_distance(a, b)) < 1e-10


def test_measurement_is_coin_averaged_reflection():
    rng = np.random.default_rng(7)
    for s in (1, 2, 3):
        for _ in range(10):
            rho = random_density(s, rng)
            for q in range(1, s + 1):
                measured = apply_gate(rho, measure(q)).mat
                reflected = apply_gate(rho, reflect1(q)).mat
                assert trace_norm(measured - 0.5 * (rho.mat + reflected)) < 1e-12


def test_output_distribution():
    assert output_distribution(dm_new(2)) == (1.0, 0.0)
    assert output_distribution(apply_gate(dm_new(1), hadamard(1))) == (0.5, 0.5)
    mixed = apply_gate(apply_gate(dm_new(2), hadamard(1)), measure(1))
    assert output_distribution(mixed) == (0.5, 0.5)


def test_bp_run_examples():
    empty = BranchingProgram(2, ())
    rho0 = dm_new(2)
    assert np.array_equal(bp_run(empty, rho0, 0).mat, rho0.mat)
    same = BranchingProgram(1, (((hadamard(1),), (hadamard(1),)),))
    assert np.array_equal(bp_run(same, dm_new(1), 0).mat, bp_run(same, dm_new(1), 1).mat)
    hb = BranchingProgram(1, (((), (hadamard(1),)),))
    assert np.allclose(bp_run(hb, dm_new(1), 1).mat, 0.5 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        bp_run(hb, dm_new(1), 2)


def test_bp_validation():
    with pytest.raises(ValueError):
        BranchingProgram(1, (((measure(1),), ()),))
    with pytest.raises(ValueError):
        BranchingProgram(1, (((hadamard(2),), ()),))


def test_bp_run_avg_sources():
    flip = qsim.bitflip_ops(1)
    bp = BranchingProgram(1, (((), flip),))
    # coin-insensitive program: average equals any single run
    same = BranchingProgram(1, ((flip, flip),))
    avg = bp_run_avg(same, dm_new(1), "uniform")
    assert np.array_equal(avg.mat, bp_run(same, dm_new(1), 0).mat)
    # copying the coin into qubit 1 yields the mixed marginal
    avg = bp_run_avg(bp, dm_new(1), "uniform")
    assert np.array_equal(avg.mat, np.eye(2) / 2)
    # a degenerate explicit list equals the single run
    avg = bp_run_avg(bp, dm_new(1), [1, 1])
    assert np.array_equal(avg.mat, bp_run(bp, dm_new(1), 1).mat)
    # mapping weights
    avg = bp_run_avg(bp, dm_new(1), {0: 1, 1: 1})
    assert np.array_equal(avg.mat, np.eye(2) / 2)
    with pytest.raises(ValueError):
        bp_run_avg(bp, dm_new(1), [])
    with pytest.raises(ValueError):
        bp_run_avg(bp, dm_new(1), "nonsense")
    with pytest.raises(ValueError):
        bp_run_avg(bp, dm_new(1), {0: 1, 2: 1})


@st.composite
def small_programs(draw):
    """Random branching programs with s <= 3 qubits and n <= 8 coins."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    return random_branching_program(s, n, rng_seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(bp=small_programs())
def test_uniform_average_equals_enumeration(bp):
    """The per-step channel composition equals the literal 2^n-run
    average, summed in ascending order and divided once, bit for bit."""
    rho0 = dm_new(bp.s)
    n = len(bp.steps)
    acc = np.zeros_like(rho0.mat)
    for r in range(1 << n):
        acc += bp_run(bp, rho0, r).mat
    assert np.array_equal(bp_run_avg(bp, rho0, "uniform").mat, acc / (1 << n))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weighted_average_shares_prefixes_exactly(data):
    bp = data.draw(small_programs())
    n = len(bp.steps)
    weights = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(1, 50),
                                        min_size=1))
    rho0 = dm_new(bp.s)
    states = bp_run_many(bp, rho0, weights)
    assert list(states) == sorted(weights)
    for r, rho in states.items():
        assert np.array_equal(rho.mat, bp_run(bp, rho0, r).mat)
    acc = np.zeros_like(rho0.mat)
    for r in sorted(weights):
        acc += weights[r] * bp_run(bp, rho0, r).mat
    assert np.array_equal(bp_run_avg(bp, rho0, weights).mat, acc / sum(weights.values()))


def test_bp_run_many_simulates_a_shared_prefix_once(monkeypatch):
    h = (hadamard(1),)
    bp = BranchingProgram(1, ((h, h), (h, h), (h, h)))
    calls = []
    real = qsim.apply_gate

    def counting(rho, op):
        calls.append(op)
        return real(rho, op)

    monkeypatch.setattr(qsim, "apply_gate", counting)
    bp_run_many(bp, dm_new(1), [0b000, 0b100, 0b100])
    # the first two steps are shared; only the last step branches
    assert len(calls) == 4


def test_uniform_average_is_linear_in_coins():
    """2^20 coin strings, averaged in 20 steps."""
    avg = bp_run_avg(parity_program(20), dm_new(1), "uniform")
    assert np.array_equal(avg.mat, np.eye(2) / 2)


def test_compile_semantic_no_measurements_gives_identical_branches():
    qp = QuantumProgram(2, (hadamard(1), reset(2)))
    bp = compile_measurements(qp)
    assert len(bp.steps) == 2
    for c0, c1 in bp.steps:
        assert c0 == c1


def test_compile_semantic_single_measurement_distribution():
    qp = QuantumProgram(1, (hadamard(1), measure(1)))
    bp = compile_measurements(qp)
    assert len(bp.steps) == 2
    avg = bp_run_avg(bp, dm_new(1), "uniform")
    assert output_distribution(avg) == (0.5, 0.5)
    direct = qp_run(qp, dm_new(1))
    assert trace_norm(avg.mat - direct.mat) < 1e-12


def test_qp_run_examples():
    rho0 = dm_new(2)
    assert np.array_equal(qp_run(QuantumProgram(2, ()), rho0).mat, rho0.mat)
    out = qp_run(QuantumProgram(1, (hadamard(1), measure(1))), dm_new(1))
    assert np.array_equal(out.mat, np.eye(2) / 2)


def test_deferred_measurement_equivalence_random_programs():
    for k in range(20):
        qp = random_quantum_program(3, 7, 5, rng_seed=k)
        direct = qp_run(qp, dm_new(3))
        avg = bp_run_avg(compile_measurements(qp), dm_new(3), "uniform")
        assert trace_norm(direct.mat - avg.mat) < 1e-12, k


def test_gate_level_controlled_reflection_unit():
    """H, TOF, H with a |1> ancilla acts as the coin-controlled reflection."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = int(rng.integers(1, 4))
        q = int(rng.integers(1, s + 1))
        rho = random_density(s, rng)
        for coin in (0, 1):
            ext = dm_new(s + 2)
            anc = np.zeros((4, 4), dtype=complex)
            anc[2 + coin, 2 + coin] = 1.0  # |1, coin>
            ext = qsim.DensityMatrix(s + 2, np.kron(rho.mat, anc))
            out = ext
            for op in (hadamard(q), toffoli(s + 2, s + 1, q), hadamard(q)):
                out = apply_gate(out, op)
            got = partial_trace_last(out, 2)
            want = rho.mat if coin == 0 else apply_gate(rho, reflect1(q)).mat
            assert trace_norm(got.mat - want) < 1e-12


def test_gate_level_compile_matches_semantic():
    for k in range(20):
        qp = random_quantum_program(2, 5, 4, rng_seed=100 + k)
        sem = bp_run_avg(compile_measurements(qp, "semantic"), dm_new(2), "uniform")
        glbp = compile_measurements(qp, "gate-level")
        assert glbp.s == 4 and len(glbp.steps) == len(qp.ops)
        gl = partial_trace_last(bp_run_avg(glbp, dm_new(4), "uniform"), 2)
        assert trace_norm(sem.mat - gl.mat) < 1e-12, k


def test_compile_rejects_unknown_mode():
    with pytest.raises(ValueError):
        compile_measurements(QuantumProgram(1, ()), "magic")


def test_partial_trace():
    rho = dm_new(3)
    rho = apply_gate(rho, hadamard(3))
    red = partial_trace_last(rho, 1)
    assert np.array_equal(red.mat, dm_new(2).mat)
    with pytest.raises(ValueError):
        partial_trace_last(rho, 3)


def test_json_round_trip():
    qp = random_quantum_program(3, 6, 3, rng_seed=1)
    assert program_from_dict(program_to_dict(qp)) == qp
    bp = random_branching_program(3, 5, rng_seed=2)
    assert bp_from_dict(bp_to_dict(bp)) == bp
