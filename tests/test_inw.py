import random
import warnings

import pytest

from qinw.gf2m import CapacityError, gf_pow
from qinw.inw import (
    InwSeed,
    Label,
    Move,
    collect_stream,
    cost_model,
    dfs_moves,
    inverse_move,
    inw_coord,
    inw_eval_recursive,
    inw_expand,
    inw_params,
    inw_params_raw,
    inw_stream,
    label_step,
    root_label,
)

RAW = inw_params_raw(4, 3, 2)


# --- independent straight-line transcription of the recursion, on bit lists ---

def ref_row(field, n, alpha, beta):
    return [
        (gf_pow(field.el(alpha), j).value & beta).bit_count() & 1
        for j in range(n)
    ]


def ref_ext(params, blocks, i):
    m = params.field.m
    z = [bit for blk in blocks[:i] for bit in blk]
    s_bits = blocks[i]
    alpha = sum(b << k for k, b in enumerate(s_bits[:m]))
    beta = sum(b << k for k, b in enumerate(s_bits[m:]))
    row = ref_row(params.field, i * params.N, alpha, beta)
    z = [zb ^ rb for zb, rb in zip(z, row)]
    return [z[k * params.N:(k + 1) * params.N] for k in range(i)] + blocks[i:]


def ref_eval(params, blocks, i):
    if i == 0:
        return [blocks[0][0]]
    return ref_eval(params, blocks, i - 1) + ref_eval(params, ref_ext(params, blocks, i), i - 1)


def ref_expand(params, seed, i):
    blocks = [
        [(blk >> k) & 1 for k in range(params.N)]
        for blk in params.split_seed(seed)
    ]
    return sum(b << j for j, b in enumerate(ref_eval(params, blocks, i)))


# --- parameter selection ---

def test_params_small_admissible():
    p = inw_params(S=1, T=2, eps=8.0)
    assert (p.N, p.M, p.seed_bits) == (4, 1, 8)
    assert len(p.levels) == 1
    assert p.levels[0].n == 4 and p.levels[0].d == 4 and p.levels[0].t == 3


def test_params_fixed_point_value():
    p = inw_params(S=4, T=16, eps=0.5)
    assert p.N == 108 and p.M == 4 and p.seed_bits == 540
    # oracle: check the admissibility inequality directly at the chosen m
    # and at the next smaller tower
    import math

    def ok(m):
        N = 2 * m
        return m >= 4 / 2 + math.log2(4 * N) + 2 * math.log2(16) + math.log2(2)

    assert ok(54) and not ok(18)
    for i, lvl in enumerate(p.levels, start=1):
        assert lvl.n == i * 108 and lvl.d == 108 and lvl.t == i * 108 - 4
        assert lvl.eps == 0.5 / 16**2


def test_params_capacity_error():
    with pytest.raises(CapacityError):
        inw_params(S=120, T=16, eps=0.5)


def test_params_warns_below_regime():
    with pytest.warns(RuntimeWarning):
        inw_params(S=1, T=16, eps=8.0)


def test_params_no_warning_at_log2_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inw_params(S=4, T=16, eps=0.5)


def test_params_raw():
    assert RAW.seed_bits == 16 and RAW.T == 8 and RAW.eps is None
    g0 = inw_params_raw(4, 0, 1)
    assert g0.seed_bits == 4 and g0.T == 1
    with pytest.raises(ValueError):
        inw_params_raw(6, 2, 2)
    with pytest.raises(ValueError):
        inw_params_raw(5, 2, 2)


def test_seed_split_join_round_trip():
    for seed in (0, 1, 0xBEEF, 0xFFFF):
        s = InwSeed.from_int(RAW, seed)
        assert s.to_int(RAW) == seed
    with pytest.raises(ValueError):
        RAW.split_seed(1 << 16)


# --- evaluation ---

def test_level0_outputs_first_bit():
    for seed in (0b0101, 0b1010, 0b1111):
        g0 = inw_params_raw(4, 0, 1)
        assert inw_eval_recursive(g0, seed, 0) == seed & 1


def test_identity_extractor_repeats_first_bit():
    p = inw_params_raw(4, 1, 1)
    # s_1 with beta = 0 makes the level-1 extractor the identity
    for x in range(16):
        for alpha in range(4):
            seed = x | (alpha << 4)  # beta bits (high half of block 1) zero
            out = inw_eval_recursive(p, seed, 1)
            assert out == (x & 1) * 0b11


def test_recursion_matches_straight_line_reference():
    rng = random.Random(8)
    p12 = inw_params_raw(12, 2, 4)
    for _ in range(50):
        seed = rng.randrange(1 << RAW.seed_bits)
        for i in range(RAW.M + 1):
            assert inw_eval_recursive(RAW, seed, i) == ref_expand(RAW, seed, i)
    for _ in range(10):
        seed = rng.randrange(1 << p12.seed_bits)
        assert inw_eval_recursive(p12, seed, 2) == ref_expand(p12, seed, 2)


def test_expand_truncation():
    full = inw_params_raw(4, 2, 2)
    seed = 0b101101001101
    assert inw_expand(full, seed) == inw_eval_recursive(full, seed, 2)  # T = 2^M
    short = inw_params(S=2, T=3, eps=8.0)  # M = 2, output truncated to 3 bits
    assert short.M == 2 and short.T == 3
    rng = random.Random(9)
    for _ in range(20):
        s = rng.randrange(1 << short.seed_bits)
        assert inw_expand(short, s) == inw_eval_recursive(short, s, 2) & 0b111


def test_prefix_property():
    rng = random.Random(10)
    for _ in range(300):
        seed = rng.randrange(1 << RAW.seed_bits)
        outs = [inw_eval_recursive(RAW, seed, i) for i in range(4)]
        for i in range(3):
            width = 1 << i
            assert outs[i + 1] & ((1 << width) - 1) == outs[i]


def test_first_output_bit_is_exactly_unbiased():
    p = inw_params_raw(4, 1, 1)
    ones = sum(inw_expand(p, seed) & 1 for seed in range(1 << p.seed_bits))
    assert ones * 2 == 1 << p.seed_bits


# --- labels and moves ---

def test_left_child_copies_blocks():
    lab = root_label(RAW, 0xBEEF)
    down = label_step(RAW, lab, Move.LEFT_CHILD)
    assert down.blocks == lab.blocks and down.height == lab.height - 1


def test_right_then_parent_from_right_is_identity():
    for seed in range(0, 1 << 16, 97):
        lab = root_label(RAW, seed)
        for _ in range(RAW.M):
            step = label_step(RAW, lab, Move.RIGHT_CHILD)
            back = label_step(RAW, step, Move.PARENT_FROM_RIGHT)
            assert back == lab
            lab = step


def test_identity_extractor_right_child():
    p = inw_params_raw(4, 1, 1)
    for x in range(16):
        for alpha in range(4):
            lab = root_label(p, x | (alpha << 4))
            right = label_step(p, lab, Move.RIGHT_CHILD)
            assert right.blocks == lab.blocks


def test_illegal_moves_raise():
    lab = root_label(RAW, 0)
    with pytest.raises(ValueError):
        label_step(RAW, lab, Move.PARENT_FROM_LEFT)
    leaf = Label(lab.blocks, 0)
    with pytest.raises(ValueError):
        label_step(RAW, leaf, Move.LEFT_CHILD)
    with pytest.raises(ValueError):
        label_step(RAW, leaf, Move.RIGHT_CHILD)


def test_coord_examples():
    seed = 0b1010_0110_0101_1011
    assert inw_coord(RAW, seed, 0) == seed & 1
    # one right step at the root, then lefts: first bit of Ext_M(x, s_1, s_2)
    lab = label_step(RAW, root_label(RAW, seed), Move.RIGHT_CHILD)
    assert inw_coord(RAW, seed, 1 << (RAW.M - 1)) == lab.blocks[0] & 1
    with pytest.raises(ValueError):
        inw_coord(RAW, seed, RAW.T)


def test_cross_mode_agreement_sampled():
    rng = random.Random(11)
    p12 = inw_params_raw(12, 4, 4)
    for params, rounds in ((RAW, 300), (p12, 30)):
        for _ in range(rounds):
            seed = rng.randrange(1 << params.seed_bits)
            e = inw_expand(params, seed)
            assert collect_stream(params, seed) == e
            for j in range(params.T):
                assert inw_coord(params, seed, j) == (e >> j) & 1


def test_stream_single_bit_at_m0():
    p = inw_params_raw(4, 0, 1)
    assert list(inw_stream(p, 0b1010)) == [0]
    assert list(inw_stream(p, 0b0101)) == [1]


def test_dfs_forward_then_reverse_restores_root():
    rng = random.Random(12)
    moves = dfs_moves(RAW.M)
    for _ in range(100):
        seed = rng.randrange(1 << 16)
        lab = root_label(RAW, seed)
        cur = lab
        for mv in moves:
            cur = label_step(RAW, cur, mv)
        # final label is the rightmost leaf
        rightmost = lab
        for _ in range(RAW.M):
            rightmost = label_step(RAW, rightmost, Move.RIGHT_CHILD)
        assert cur == rightmost
        for mv in reversed(moves):
            cur = label_step(RAW, cur, inverse_move(mv))
        assert cur == lab


def test_stream_is_a_generator_with_independent_instances():
    seed = 0x1234
    s1 = inw_stream(RAW, seed)
    s2 = inw_stream(RAW, seed)
    assert next(s1) == next(s2)
    assert [next(s1) for _ in range(7)] == [next(s2) for _ in range(7)]


# --- cost model ---

def test_cost_model_m0_equals_single_coordinate():
    p = inw_params_raw(4, 0, 1)
    cm = cost_model(p)
    assert cm.total_ops == cm.coord_ops == 1.0
    assert cm.seed_bits == 4


def test_cost_model_coord_ops_formula():
    """One coordinate costs 1 + sum_i N^2 * i * log2(N)^2 over heights 1..M."""
    cm = cost_model(RAW)
    assert cm.coord_ops == 1.0 + 16 * 4 * (1 + 2 + 3) == 385.0
    assert cm.coord_ops == 1.0 + sum(row["per_visit_ops"] for row in cm.step_costs)


def test_cost_model_seed_bits_and_doubling():
    assert cost_model(RAW).seed_bits == 16
    prev = None
    for M in range(2, 8):
        total = cost_model(inw_params_raw(4, M, 2)).total_ops
        if prev is not None:
            assert 1.5 <= total / prev <= 3.0
        prev = total


def test_cost_model_dict_round_trip():
    d = cost_model(RAW).to_dict()
    assert d["seed_bits"] == 16
    assert len(d["step_costs"]) == RAW.M
