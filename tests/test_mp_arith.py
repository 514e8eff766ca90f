"""Limb-level kernels against big-integer arithmetic.

Expected values come from Python's own integers, which are the independent
oracle for everything in this file; the packed kernels never see them."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from packed25519.mp_arith import add_mod, cmov, mul121666, mul256, red512, sqr256, sub_mod, subp
from packed25519.oracle import P

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "gen_kernels.py"
FOURP = runpy.run_path(str(GENERATOR))["FOURP"]  # sub_mod's 32 columns of 4p


def le(v, n=32):
    return v.to_bytes(n, "little")


def value(limbs):
    return int.from_bytes(bytes(limbs), "little")


def test_red512_small_values_pass_through():
    for v in (0, 1, 19, 2**255 - 20):
        assert value(red512(le(v, 64))) == v


def test_red512_fold_constants():
    # one bit at position 256 is worth 38; one bit at 255 is worth 19
    assert value(red512(le(2**256, 64))) == 38
    assert value(red512(le(2**255, 64))) == 19
    assert value(red512(le(2**511, 64))) % P == 2**511 % P


def test_red512_column_contract():
    # every reduction is linear in integer columns of any sign: for the total
    # V and the top column t it returns W = V - p * (t >> 7), which must lie
    # in [0, 2^256); add_mod and sub_mod are red512 on their own 32 columns
    # with a zero high half, mul121666 on its columns carried once
    with pytest.raises(ValueError, match=r"bytes must be in range\(0, 256\)"):
        red512((-1,) + (0,) * 63)  # t = 0, so W = V = -1
    assert value(red512((0,) * 31 + (-127,) + (0,) * 32)) == 2**248 - 19  # V = -127 * 2^248
    zero, one, top = le(0), le(1), le(2**256 - 1)
    for a, b in ((zero, zero), (top, zero), (top, top), (zero, top), (top, one)):
        assert add_mod(a, b) == red512(tuple(x + y for x, y in zip(a, b)) + (0,) * 32)
        assert sub_mod(a, b) == red512(tuple(x - y + f for x, y, f in zip(a, b, FOURP)) + (0,) * 32)
        v = 121666 * value(a)
        assert mul121666(a) == red512(tuple(le(v % 2**248, 31)) + (v >> 248,) + (0,) * 32)
    assert value(sub_mod(zero, one)) == P - 1
    for overflow in ((0,) * 31 + (2**300,),
                     (5,) + (0,) * 30 + (-128,)):  # V = -2^255 + 5
        for fn, args in ((red512, (overflow + (0,) * 32,)), (add_mod, (overflow, (0,) * 32))):
            with pytest.raises(ValueError, match=r"bytes must be in range\(0, 256\)"):
                fn(*args)
    # sub_mod's offset columns denote 4p
    assert sum(c << 8 * k for k, c in enumerate(FOURP)) == 4 * P


def test_red_overflow_is_rejected_under_O():
    # the overflow check is bytes()'s own range check, so -O keeps it
    code = ("from packed25519.mp_arith import add_mod, red512\n"
            "big = (0,) * 31 + (2**300,)\n"
            "for fn, args in ((add_mod, (big, (0,) * 32)), (red512, (big + (0,) * 32,))):\n"
            "    try:\n        fn(*args)\n"
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
            mul121666(b"\x00" * n)
        for operands in ((b"\x00" * n, b"\x00" * 32), (b"\x00" * 32, b"\x00" * n)):
            with pytest.raises(ValueError):
                cmov(*operands, 0)
    with pytest.raises(ValueError):
        sqr256(b"\x00" * 33)
    with pytest.raises(ValueError):
        red512(b"\x00" * 32)
    for n in (0, 33):
        with pytest.raises(ValueError):
            subp(b"\x00" * n)
    with pytest.raises(ValueError):
        add_mod(b"\x00" * 32, b"\x00" * 16)
    with pytest.raises(ValueError):
        sub_mod(b"\x00" * 16, b"\x00" * 32)
