"""Dense density-matrix simulation of coin-fed quantum branching programs.

States are exact 2^s x 2^s real float64 matrices: every gate is real,
so dm_new and everything built from it stay real, and complex inputs
(random_density) are accepted and stay complex.  Qubit 1 is the most
significant bit of the basis-state index; "first qubit" conventions
(output, measurement, reset) all refer to qubit 1, and every channel is
generalized to an arbitrary qubit q.

Gate vocabulary (the `kind` strings double as the JSON wire names):

    H    Hadamard on one qubit
    TOF  Toffoli |i,j,k> -> |i,j,k xor i*j| on three distinct qubits
    RFL  reflection about |1> on one qubit, diag(-1, 1); the global
         sign is irrelevant under conjugation
    M    dephasing measurement channel: zero the off-diagonal blocks
    R    reset channel: measure, then move all population to |0>

A quantum program is a plain operator sequence (may contain M).  A
branching program reads one classical coin per step and applies one of
two measurement-free operator lists; coin k of the string is bit k of
the coin int.  Coin averages are exact: the uniform average composes
the per-step channels (C0 + C1)/2 with exact halvings of dyadic states,
and a weighted source sums its strings' states with integer weights in
ascending string order and divides once.  Strings are simulated along
their shared prefixes; every final state is bit-identical to bp_run's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

MAX_QUBITS = 12

_ARITY = {"H": 1, "TOF": 3, "RFL": 1, "M": 1, "R": 1}


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubit(s)")
        if any(q < 1 for q in self.qubits):
            raise ValueError("qubit indices start at 1")
        if self.kind == "TOF" and len(set(self.qubits)) != 3:
            raise ValueError("Toffoli qubits must be pairwise distinct")


def hadamard(q: int) -> GateOp:
    return GateOp("H", (q,))


def toffoli(q1: int, q2: int, q3: int) -> GateOp:
    return GateOp("TOF", (q1, q2, q3))


def reflect1(q: int) -> GateOp:
    return GateOp("RFL", (q,))


def measure(q: int) -> GateOp:
    return GateOp("M", (q,))


def reset(q: int) -> GateOp:
    return GateOp("R", (q,))


def bitflip_ops(q: int) -> tuple[GateOp, ...]:
    """A bit flip on qubit q from the available basis: H . RFL . H = -X."""
    return (hadamard(q), reflect1(q), hadamard(q))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Immutable state: 2^s x 2^s matrix, Hermitian, PSD, trace 1; real
    float64 unless built from a complex matrix."""

    s: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = 1 << self.s
        if self.mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.mat.shape} does not match s={self.s}")
        self.mat.setflags(write=False)

    def validate(self, atol: float = 1e-10) -> None:
        """Check the state invariants; raises ValueError on violation."""
        m = self.mat
        if np.max(np.abs(m - m.conj().T)) > atol:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(m).real - 1.0) > atol or abs(np.trace(m).imag) > atol:
            raise ValueError("state trace is not 1")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -atol:
            raise ValueError("state has a negative eigenvalue")


def _wrap(s: int, mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix(s, np.ascontiguousarray(mat))


def dm_new(s: int) -> DensityMatrix:
    """The all-zeros pure state |0^s><0^s|."""
    if not 1 <= s <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
    mat = np.zeros((1 << s, 1 << s))
    mat[0, 0] = 1.0
    return DensityMatrix(s, mat)


@lru_cache(maxsize=1024)
def _kernel(s: int, op: GateOp):
    """The gate as an exact, dtype-generic function of a 2^s x 2^s state
    matrix.  Only O(2^s) index data is built here, once per (s, op).  The
    Hadamard is the integer butterfly [[1,1],[1,-1]] on rows, then on
    columns, then one exact *0.5, so states reachable from basis states
    keep exactly representable dyadic entries (1/sqrt(2) never appears)."""
    if any(q > s for q in op.qubits):
        raise ValueError(f"{op.kind} on qubit(s) {op.qubits} out of range for s={s}")
    idx = np.arange(1 << s)
    if op.kind == "TOF":
        c1, c2, t = (s - q for q in op.qubits)
        perm = idx ^ (((idx >> c1) & (idx >> c2) & 1) << t)
        return lambda m: m.take(perm, 0).take(perm, 1)
    shift = s - op.qubits[0]
    bit = (idx >> shift) & 1
    if op.kind == "M":
        return lambda m: np.where(bit[:, None] == bit, m, 0.0)
    sign = 1.0 - 2.0 * bit
    col = sign[:, None]
    if op.kind == "RFL":
        # diag(-1, 1) on both sides scales entry (i, j) by sign_i * sign_j
        return lambda m: m * col * sign
    if op.kind == "H":
        i0, i1 = idx & ~(1 << shift), idx | (1 << shift)

        def butterfly(m):
            m = m.take(i0, 0) + col * m.take(i1, 0)
            return (m.take(i0, 1) + m.take(i1, 1) * sign) * 0.5
        return butterfly
    # R: keep the diagonal blocks and fold the |1> block onto |0>
    zero = np.flatnonzero(bit == 0)
    one = zero + (1 << shift)
    block = np.ix_(zero, zero)

    def reset_fold(m):
        out = np.zeros_like(m)
        out[block] = m.take(zero, 0).take(zero, 1) + m.take(one, 0).take(one, 1)
        return out
    return reset_fold


def apply_gate(rho: DensityMatrix, op: GateOp) -> DensityMatrix:
    return _wrap(rho.s, _kernel(rho.s, op)(rho.mat))


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian-symmetrized matrix."""
    sym = (mat + mat.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(sym))))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if rho.s != sigma.s:
        raise ValueError(f"dimension mismatch: {rho.s} vs {sigma.s} qubits")
    return trace_norm(rho.mat - sigma.mat) / 2.0


def output_distribution(rho: DensityMatrix) -> tuple[float, float]:
    """Outcome probabilities of measuring qubit 1 of the state."""
    bit = (np.arange(1 << rho.s) >> (rho.s - 1)) & 1
    diag = np.real(np.diag(rho.mat))
    p1 = float(np.sum(diag[bit == 1]))
    p0 = float(np.sum(diag[bit == 0]))
    return (p0, p1)


def partial_trace_last(rho: DensityMatrix, k: int) -> DensityMatrix:
    """Trace out the last k qubits (the least significant index bits)."""
    if not 0 <= k < rho.s:
        raise ValueError(f"cannot trace out {k} of {rho.s} qubits")
    if k == 0:
        return rho
    keep = 1 << (rho.s - k)
    t = rho.mat.reshape(keep, 1 << k, keep, 1 << k)
    return _wrap(rho.s - k, np.einsum("ajbj->ab", t))


def random_density(s: int, rng: np.random.Generator) -> DensityMatrix:
    """A Haar-ish random mixed state: normalized G G^dagger."""
    dim = 1 << s
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return _wrap(s, mat / np.trace(mat).real)


@dataclass(frozen=True)
class QuantumProgram:
    """An operator sequence over {H, TOF, RFL, M, R}."""

    s: int
    ops: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        if not 1 <= self.s <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        for op in self.ops:
            if any(q > self.s for q in op.qubits):
                raise ValueError(f"{op.kind} on {op.qubits} out of range for s={self.s}")


@dataclass(frozen=True)
class BranchingProgram:
    """Coin-indexed steps (ops_if_0, ops_if_1); measurements excluded."""

    s: int
    steps: tuple[tuple[tuple[GateOp, ...], tuple[GateOp, ...]], ...]

    def __post_init__(self) -> None:
        norm = tuple((tuple(c0), tuple(c1)) for c0, c1 in self.steps)
        object.__setattr__(self, "steps", norm)
        if not 1 <= self.s <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        for c0, c1 in self.steps:
            for op in c0 + c1:
                if op.kind == "M":
                    raise ValueError("measurements are not allowed inside branching-program steps")
                if any(q > self.s for q in op.qubits):
                    raise ValueError(f"{op.kind} on {op.qubits} out of range for s={self.s}")


def qp_run(qp: QuantumProgram, rho0: DensityMatrix) -> DensityMatrix:
    """Apply the operator sequence, measurements included."""
    rho = rho0
    for op in qp.ops:
        rho = apply_gate(rho, op)
    return rho


def bp_run(bp: BranchingProgram, rho0: DensityMatrix, r: int) -> DensityMatrix:
    """Run on one coin string; coin for step k is bit k of r."""
    if not 0 <= r < 1 << len(bp.steps):
        raise ValueError(f"coin string {r:#x} out of range for {len(bp.steps)} steps")
    rho = rho0
    for k, (c0, c1) in enumerate(bp.steps):
        for op in c1 if (r >> k) & 1 else c0:
            rho = apply_gate(rho, op)
    return rho


def bp_run_many(bp: BranchingProgram, rho0: DensityMatrix, strings) -> dict[int, DensityMatrix]:
    """bp_run(bp, rho0, r) for each distinct coin string r, keyed in
    ascending order.  The strings' prefix trie (coin 0 at the root) is
    walked depth first with an explicit stack, so a prefix shared by
    several strings is simulated once; each final state comes from
    bp_run's apply_gate sequence and is bit-identical to it."""
    n = len(bp.steps)
    rs = sorted(set(strings))
    for r in rs:
        if not 0 <= r < 1 << n:
            raise ValueError(f"coin string {r:#x} out of range for {n} steps")
    finals: dict[int, DensityMatrix] = {}
    # (steps done, state after them, the strings sharing those coins)
    stack = [(0, rho0, rs)] if rs else []
    while stack:
        k, rho, group = stack.pop()
        if k == n:
            finals[group[0]] = rho
            continue
        for bit, ops in enumerate(bp.steps[k]):
            sub = [r for r in group if (r >> k) & 1 == bit]
            if sub:
                child = rho
                for op in ops:
                    child = apply_gate(child, op)
                stack.append((k + 1, child, sub))
    return {r: finals[r] for r in rs}


def _coin_weights(source) -> dict[int, int]:
    if isinstance(source, Mapping):
        return {int(r): int(w) for r, w in source.items()}
    if isinstance(source, Sequence):
        return dict(Counter(int(r) for r in source))
    raise ValueError(f"unsupported coin source {source!r}")


def bp_run_avg(bp: BranchingProgram, rho0: DensityMatrix, source) -> DensityMatrix:
    """Exact convex average of bp_run over a coin source.

    Source may be "uniform", an explicit string list (with multiplicity)
    or a {string: weight} mapping.  "uniform" composes the per-step
    channels (C0 + C1)/2 with one exact *0.5 each: 2n branch evaluations,
    not 2^n runs.  Other sources sum bp_run_many's states with integer
    weights in ascending string order and normalize once.
    """
    if isinstance(source, str):
        if source != "uniform":
            raise ValueError(f"unknown source {source!r}")
        rho = rho0
        for c0, c1 in bp.steps:
            a = b = rho
            for op in c0:
                a = apply_gate(a, op)
            for op in c1:
                b = apply_gate(b, op)
            rho = _wrap(bp.s, (a.mat + b.mat) * 0.5)
        return rho
    weights = _coin_weights(source)
    if not weights:
        raise ValueError("empty coin source")
    acc = np.zeros_like(rho0.mat)
    total = 0
    for r, rho in bp_run_many(bp, rho0, weights).items():
        acc += weights[r] * rho.mat
        total += weights[r]
    return _wrap(bp.s, acc / total)


def compile_measurements(qp: QuantumProgram, mode: str = "semantic") -> BranchingProgram:
    """Turn every measurement into a coin step; one coin per program op.

    semantic:   M(q) becomes (c0: identity, c1: RFL(q)); averaging the two
                branches over a fair coin is exactly the measurement
                channel.
    gate-level: the coin-conditioned reflection is realized as
                H(q), TOF(coin, one, q), H(q) with a persistent |1>
                ancilla; the program gains two ancilla qubits, the coin
                ancilla is flipped only on the c1 branch and reset after
                use.  Both branches run the same circuit so the coin
                conditioning lives entirely in the branch structure.

    Ops other than M become steps with identical branches (their coin is
    read and ignored).
    """
    if mode not in ("semantic", "gate-level"):
        raise ValueError(f"unknown compile mode {mode!r}")
    if mode == "semantic":
        steps = []
        for op in qp.ops:
            if op.kind == "M":
                steps.append(((), (reflect1(op.qubits[0]),)))
            else:
                steps.append(((op,), (op,)))
        return BranchingProgram(qp.s, tuple(steps))

    s_ext = qp.s + 2
    if s_ext > MAX_QUBITS:
        raise ValueError(f"gate-level compilation needs {s_ext} qubits, budget is {MAX_QUBITS}")
    one, coin = qp.s + 1, qp.s + 2
    prologue = (reset(one),) + bitflip_ops(one)
    steps = []
    for op in qp.ops:
        if op.kind == "M":
            q = op.qubits[0]
            body = (hadamard(q), toffoli(coin, one, q), hadamard(q), reset(coin))
            steps.append((body, bitflip_ops(coin) + body))
        else:
            steps.append(((op,), (op,)))
    if steps:
        c0, c1 = steps[0]
        steps[0] = (prologue + c0, prologue + c1)
    return BranchingProgram(s_ext, tuple(steps))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def op_to_dict(op: GateOp) -> dict:
    return {"g": op.kind, "q": list(op.qubits)}


def op_from_dict(d: dict) -> GateOp:
    return GateOp(d["g"], tuple(d["q"]))


def program_to_dict(qp: QuantumProgram) -> dict:
    return {"qubits": qp.s, "ops": [op_to_dict(op) for op in qp.ops]}


def program_from_dict(d: dict) -> QuantumProgram:
    return QuantumProgram(d["qubits"], tuple(op_from_dict(o) for o in d["ops"]))


def bp_to_dict(bp: BranchingProgram) -> dict:
    return {
        "qubits": bp.s,
        "steps": [
            {"c0": [op_to_dict(o) for o in c0], "c1": [op_to_dict(o) for o in c1]}
            for c0, c1 in bp.steps
        ],
    }


def bp_from_dict(d: dict) -> BranchingProgram:
    steps = tuple(
        (tuple(op_from_dict(o) for o in st["c0"]), tuple(op_from_dict(o) for o in st["c1"]))
        for st in d["steps"]
    )
    return BranchingProgram(d["qubits"], steps)
