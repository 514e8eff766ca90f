import random

import pytest

from packed25519.fe25519 import (
    P, add, cmov, freeze, invert, mul, mul121666, neg, pack, setone, setzero,
    unpack,
)

TWO_P = 2 * P


def le(v):
    return v.to_bytes(32, "little")


def val(b):
    return int.from_bytes(b, "little")


def test_setzero_setone():
    assert val(setzero()) == 0
    assert val(setone()) == 1
    assert len(setzero()) == len(setone()) == 32


def test_freeze_examples():
    assert val(freeze(le(0))) == 0
    assert val(freeze(le(P))) == 0
    assert val(freeze(le(P + 5))) == 5
    assert val(freeze(le(P - 1))) == P - 1
    assert val(freeze(le(TWO_P - 1))) == P - 1


def test_freeze_is_single_conditional_subtraction():
    # below p: untouched; in [p, 2p): one subtraction lands in [0, p)
    rng = random.Random(11)
    for _ in range(300):
        a = rng.randrange(TWO_P)
        f = val(freeze(le(a)))
        assert f == a % P
        assert f < P


def test_cmov():
    a, b = le(123), le(456)
    assert cmov(a, b, 0) == a
    assert cmov(a, b, 1) == b


def test_unpack_masks_top_bit():
    assert val(unpack(le(2**255 + 5))) == 5
    assert val(unpack(le(2**256 - 1))) == 2**255 - 1
    # non-canonical residues below 2^255 are accepted as-is
    assert val(unpack(le(P + 3))) == P + 3


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        unpack(b"\x00" * 31)


def test_pack_requires_canonical():
    assert pack(le(P - 1)) == le(P - 1)
    with pytest.raises(AssertionError):
        pack(le(P))


def test_field_algebra_spot_checks():
    rng = random.Random(14)
    for _ in range(50):
        a, b, c = (le(rng.randrange(P)) for _ in range(3))
        lhs = freeze(mul(add(a, b), c))
        rhs = freeze(add(mul(a, c), mul(b, c)))
        assert lhs == rhs
        assert freeze(add(a, neg(a))) == setzero()
        assert freeze(mul(a, setone())) == freeze(a)


def test_mul121666_is_the_curve_constant():
    from packed25519 import oracle
    assert oracle.C121666 == 121666
    a = le(987654321)
    assert val(freeze(mul121666(a))) == 987654321 * 121666 % P


def test_invert_known_values():
    assert invert(setzero()) == setzero()
    assert freeze(invert(setone())) == setone()
    # 2 * (2^254 - 9) = 2^255 - 18 = p + 1
    assert val(freeze(invert(le(2)))) == 2**254 - 9
    assert pow(2, P - 2, P) == 2**254 - 9


def test_invert_round_trip():
    rng = random.Random(15)
    for _ in range(25):
        x = rng.randrange(1, P)
        prod = freeze(mul(le(x), invert(le(x))))
        assert prod == setone()
        assert val(freeze(invert(le(x)))) == pow(x, P - 2, P)


def test_invert_accepts_unreduced_representatives():
    # p + 2 denotes 2, so its inverse must equal invert(2)
    assert freeze(invert(le(P + 2))) == freeze(invert(le(2)))
