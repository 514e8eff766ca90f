"""Limb-level kernels against big-integer arithmetic.

Expected values come from Python's own integers, which are the independent
oracle for everything in this file; the packed kernels never see them."""

import subprocess
import sys

import pytest

from packed25519 import mp_arith
from packed25519._reduce import red19, red38
from packed25519.mp_arith import P, add_mod, mul256, red512, sqr256, sub_mod, subp, value

TWO_P = 2 * P


def le(v, n=32):
    return v.to_bytes(n, "little")


def test_value_round_trip():
    assert value(le(0)) == 0
    assert value(le(2**256 - 1)) == 2**256 - 1
    assert value(b"\x02" + b"\x00" * 31) == 2


def test_mul256_identities():
    x = le(0xDEADBEEF)
    assert value(mul256(le(0), x)) == 0
    assert value(mul256(le(1), x)) == 0xDEADBEEF
    a = 2**128 - 1
    assert value(mul256(le(a), le(a))) == 2**256 - 2**129 + 1
    top = 2**256 - 1
    assert value(mul256(le(top), le(top))) == top * top


def test_karatsuba_halves_at_their_edges():
    # halves of 0, 1, 2^127 and 2^128 - 1: half sums reach limbs of 510, and
    # the middle block s - lo - hi cancels to 0 in some columns
    halves = [0, 1, 2**127, 2**128 - 1]
    xs = [lo + (hi << 128) for lo in halves for hi in halves]
    for x in xs:
        assert value(sqr256(le(x))) == x * x
        for y in xs:
            assert value(mul256(le(x), le(y))) == x * y


def test_subp_examples():
    d, b = subp(le(P))
    assert (value(d), b) == (0, 0)
    d, b = subp(le(P + 1))
    assert (value(d), b) == (1, 0)
    d, b = subp(le(0))
    assert (value(d), b) == ((0 - P) % 2**256, 1)
    d, b = subp(le(P - 1))
    assert (value(d), b) == ((-1) % 2**256, 1)
    d, b = subp(le(2**256 - 1))
    assert (value(d), b) == (2**256 - 1 - P, 0)


def test_red512_small_values_pass_through():
    for v in (0, 1, 19, 2**255 - 20):
        assert value(red512(le(v, 64))) == v


def test_red512_fold_constants():
    # one bit at position 256 is worth 38; one bit at 255 is worth 19
    assert value(red512(le(2**256, 64))) == 38
    assert value(red512(le(2**255, 64))) == 19
    assert value(red512(le(2**511, 64))) % P == 2**511 % P


def test_red38_column_contract():
    # red38 is linear in 64 integer columns of any sign: for the total V it
    # returns (V mod 2^255) + 19 * (V >> 255), which must lie in [0, 2^256);
    # red19 is the same on 32 columns, as red38 with a zero high half
    assert value(red38((-1,) + (0,) * 63)) == P - 1
    for cols in ((-1,) + (0,) * 31, (0,) * 32, (255,) * 32, (510,) * 32,
                 (121666 * 255,) * 32, mp_arith._FOURP_COLS,
                 tuple(c - 255 for c in mp_arith._FOURP_COLS), (0,) * 31 + (-127,)):
        assert red19(cols) == red38(cols + (0,) * 32), cols
    assert value(red19((-1,) + (0,) * 31)) == P - 1
    for overflow in ((0,) * 31 + (2**300,),
                     (5,) + (0,) * 30 + (-128,)):  # V = -2^255 + 5
        for red, cols in ((red38, overflow + (0,) * 32), (red19, overflow)):
            with pytest.raises(ValueError, match=r"bytes must be in range\(0, 256\)"):
                red(cols)
    # sub_mod's offset columns denote 4p
    assert sum(c << 8 * k for k, c in enumerate(mp_arith._FOURP_COLS)) == 4 * P
    # the callers of red19, at the extremes of their totals
    top = 2**256 - 1
    for got, want in ((mp_arith.mul121666(le(top)), 121666 * top),
                      (add_mod(le(top), le(top)), 2 * top),
                      (sub_mod(le(top), le(0)), top),
                      (sub_mod(le(0), le(top)), -top)):
        assert value(got) % P == want % P
        assert value(got) < TWO_P


def test_red_overflow_is_rejected_under_O():
    # the overflow check is bytes()'s own range check, so -O keeps it
    code = ("from packed25519._reduce import red19, red38\n"
            "for red, pad in ((red19, 0), (red38, 32)):\n"
            "    try:\n        red((0,) * 31 + (2**300,) + (0,) * pad)\n"
            "    except ValueError as e:\n        print(e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "bytes must be in range(0, 256)\n" * 2


def test_wrong_length_is_rejected():
    with pytest.raises(ValueError):
        mul256(b"\x00" * 31, b"\x00" * 32)
    with pytest.raises(ValueError):
        mul256(b"\x00" * 32, b"\x00" * 33)
    with pytest.raises(ValueError):
        sqr256(b"\x00" * 31)
    with pytest.raises(ValueError):
        red512(b"\x00" * 65)
    for n in (31, 33):
        with pytest.raises(ValueError):
            mp_arith.mul121666(b"\x00" * n)
    with pytest.raises(ValueError):
        sqr256(b"\x00" * 33)
    with pytest.raises(ValueError):
        red512(b"\x00" * 32)
    with pytest.raises(ValueError):
        subp(b"")
    with pytest.raises(ValueError):
        add_mod(b"\x00" * 32, b"\x00" * 16)
    with pytest.raises(ValueError):
        sub_mod(b"\x00" * 16, b"\x00" * 32)
