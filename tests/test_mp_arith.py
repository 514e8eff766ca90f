"""Limb-level kernels against big-integer arithmetic.

Expected values come from Python's own integers, which are the independent
oracle for everything in this file; the packed kernels never see them."""

import subprocess
import sys

import pytest

from packed25519.mp_arith import add_mod, cmov, mul121666, mul256, red512, sqr256, sub_mod, subp


def le(v, n=32):
    return v.to_bytes(n, "little")


def value(limbs):
    return int.from_bytes(bytes(limbs), "little")


def test_red512_column_contract():
    # every reduction returns W = V - p * (t >> 7) for its column total V and
    # its top column t, for integer columns of any sign (tests/_proof.py), and
    # bytes() raises unless W lies in [0, 2^256); mul121666's t is a carry of
    # its own first pass, so here it is red512 on its columns carried once
    with pytest.raises(ValueError, match=r"bytes must be in range\(0, 256\)"):
        red512((-1,) + (0,) * 63)  # t = 0, so W = V = -1
    for a in (le(0), le(2**256 - 1)):
        v = 121666 * value(a)
        assert mul121666(a) == red512(tuple(le(v % 2**248, 31)) + (v >> 248,) + (0,) * 32)
    for overflow in ((0,) * 31 + (2**300,),
                     (5,) + (0,) * 30 + (-128,)):  # V = -2^255 + 5
        for fn, args in ((red512, (overflow + (0,) * 32,)), (add_mod, (overflow, (0,) * 32))):
            with pytest.raises(ValueError, match=r"bytes must be in range\(0, 256\)"):
                fn(*args)


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
