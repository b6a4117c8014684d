import random

import numpy as np
import pytest

from qinw.epsbias import BiasedSpaceParams, ExtSeed, biased_vector
from qinw.extractor import (
    ExtParams,
    ext_apply,
    ext_params_for,
    ext_seed_pack,
    ext_seed_unpack,
)
from qinw.gf2m import CapacityError, field_new

F4 = field_new(0)
F64 = field_new(1)


def params(n, field, t=None, eps=None):
    return ExtParams(n=n, d=2 * field.m, field=field, t=n if t is None else t, eps=eps)


def test_apply_examples():
    p = params(8, F4)
    x = 0b10110011
    # beta = 0 gives the all-zero row
    assert ext_apply(p, x, ExtSeed(F4.el(2), F4.el(0))) == x
    seed = ExtSeed(F4.el(2), F4.el(3))
    assert ext_apply(p, 0, seed) == biased_vector(BiasedSpaceParams(8, F4), seed)
    assert ext_apply(p, ext_apply(p, x, seed), seed) == x


def test_apply_validation():
    p = params(8, F4)
    with pytest.raises(ValueError):
        ext_apply(p, 1 << 8, ExtSeed(F4.el(1), F4.el(1)))
    with pytest.raises(ValueError):
        ext_apply(p, 0, ExtSeed(F64.el(1), F64.el(1)))
    with pytest.raises(ValueError):
        ext_apply(p, 0, 1 << p.d)


def test_seed_pack_round_trip_d4():
    p = params(4, F4)
    for bits in range(16):
        seed = ext_seed_unpack(p, bits)
        assert ext_seed_pack(p, seed) == bits
    assert ext_seed_unpack(p, 0) == ExtSeed(F4.el(0), F4.el(0))
    # alpha occupies the low m bits, beta the high m bits
    seed = ext_seed_unpack(p, 0b0110)
    assert (seed.alpha.value, seed.beta.value) == (0b10, 0b01)


def test_params_for_examples():
    p = ext_params_for(4, 4, 1.0)
    assert (p.field.m, p.d) == (2, 4)
    p = ext_params_for(16, 12, 0.25)
    assert (p.field.m, p.d) == (18, 36)
    with pytest.raises(CapacityError):
        ext_params_for(4, 0, 2.0**-60)
    with pytest.raises(ValueError):
        ext_params_for(4, 5, 0.5)
    with pytest.raises(ValueError):
        ext_params_for(4, 4, 1.5)


def test_params_invariants():
    with pytest.raises(ValueError):
        ExtParams(n=8, d=5, field=F4, t=8, eps=None)
    with pytest.raises(ValueError):
        ExtParams(n=8, d=4, field=F4, t=9, eps=None)


def test_one_bit_extractor():
    p = params(1, F4)
    assert p.n == 1
    for bits in range(16):
        seed = ext_seed_unpack(p, bits)
        assert {ext_apply(p, x, seed) for x in (0, 1)} == {0, 1}


def test_every_seed_is_a_bijection():
    p = params(8, F4)
    for bits in range(16):
        seed = ext_seed_unpack(p, bits)
        image = {ext_apply(p, x, seed) for x in range(256)}
        assert image == set(range(256))


def test_self_inverse_random():
    rng = random.Random(5)
    for n, field in ((8, F4), (64, F64)):
        p = params(n, field)
        for _ in range(1000):
            x = rng.randrange(1 << n)
            seed = rng.randrange(1 << p.d)
            assert ext_apply(p, ext_apply(p, x, seed), seed) == x


def test_classical_extraction_distance_within_bound():
    """Exact statistical-distance check against 2-bit classical side
    information: sd((Ext(X,Y), c(X)), U x c(X)) <= delta * 2^((n-t)/2)."""
    n, field = 8, F64
    t = n - 2
    delta = n / 2.0**field.m
    bound = delta * 2.0 ** ((n - t) / 2)
    p = params(n, field, t=t)
    size = 1 << n
    xs = np.arange(size)
    rows = np.array(
        [
            biased_vector(BiasedSpaceParams(n, field), ExtSeed(field.el(a), field.el(b)))
            for a in range(64)
            for b in range(64)
        ],
        dtype=np.int64,
    )
    rng = random.Random(99)
    for _ in range(20):
        c = np.array([rng.randrange(4) for _ in range(size)], dtype=np.int64)
        joint = np.zeros(size * 4, dtype=np.int64)
        for row in rows:
            np.add.at(joint, (row ^ xs) * 4 + c, 1)
        pmat = joint / (size * len(rows))
        marg = np.bincount(c, minlength=4) / size
        qmat = np.tile(marg / size, size)
        sd = 0.5 * float(np.abs(pmat - qmat).sum())
        assert sd <= bound, f"distance {sd} above {bound}"
