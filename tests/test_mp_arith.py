"""Limb-level kernels against big-integer arithmetic.

Expected values come from Python's own integers, which are the independent
oracle for everything in this file; the packed kernels never see them."""

import subprocess
import sys
from pathlib import Path

import pytest

from packed25519.mp_arith import add_mod, cmov, mul121666, mul256, red512, sqr256, sub_mod, subp


def le(v, n=32):
    return v.to_bytes(n, "little")


def value(limbs):
    return int.from_bytes(bytes(limbs), "little")


# Operands that put each reduction's result W = V - p*(t >> 7) outside
# [0, 2^256), so that its top limb leaves [0, 256): a top column of 2^300 or
# -2^300, and for red512 a total V of -1 or -2^255 + 5.  A two-operand
# reduction takes its other, in-contract operand as a bytes and as a tuple.
BIG, NEG = (0,) * 31 + (2**300,), (0,) * 31 + (-2**300,)


def out_of_contract():
    cases = [(red512, (m,)) for m in (BIG + (0,) * 32, NEG + (0,) * 32, (0,) * 32 + BIG,
                                      (-1,) + (0,) * 63, (5,) + (0,) * 30 + (-128,) + (0,) * 32)]
    cases += [(mul121666, (a,)) for a in (BIG, NEG)]
    for zero in (bytes(32), (0,) * 32):
        for top in (BIG, NEG):
            cases += [(fn, args) for fn in (add_mod, sub_mod) for args in ((top, zero), (zero, top))]
    return cases


def test_red512_column_contract():
    # every reduction returns W = V - p * (t >> 7) for its column total V and
    # its top column t, for integer columns of any sign (tests/_proof.py), and
    # its top-limb check, bytes(), raises in the kernel's own frame unless W
    # lies in [0, 2^256); mul121666's t is a carry of its own first pass, so
    # here it is red512 on its columns carried once
    for a in (le(0), le(2**256 - 1), tuple(le(2**256 - 1))):
        v = 121666 * value(a)
        assert mul121666(a) == red512(tuple(le(v % 2**248, 31)) + (v >> 248,) + (0,) * 32)
    for fn, args in out_of_contract():
        with pytest.raises(ValueError, match=r"^bytes must be in range\(0, 256\)$") as info:
            fn(*args)
        assert info.traceback[-1].name == fn.__name__


def test_red_overflow_is_rejected_under_O():
    # the top-limb check is bytes()'s own range check, so -O keeps it
    code = ("import sys, traceback\nsys.path.insert(0, sys.argv[1])\n"
            "from test_mp_arith import out_of_contract\n"
            "for fn, args in out_of_contract():\n"
            "    try:\n        fn(*args)\n"
            "    except ValueError as e:\n"
            "        print(fn.__name__, traceback.extract_tb(e.__traceback__)[-1].name, e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{fn.__name__} {fn.__name__} bytes must be in range(0, 256)"
                                        for fn, _ in out_of_contract()]


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
