"""Multi-precision kernels over packed 8-bit limbs.

A 256-bit value is 32 little-endian byte limbs (a `bytes` of length 32), a
512-bit value is 64 limbs.  The radix is deliberately 8 bits: every routine
has to do real carry and borrow propagation at byte boundaries, which is
where the interesting bugs live, and it keeps the structure in one-to-one
correspondence with unrolled 8-bit machine code.

Multiplication is product scanning (Comba) over 16-limb blocks with one
level of additive Karatsuba.  Split a = a0 + 2^128 a1 and b likewise; the
straight-line kernel `mul16` gives the 31 column sums of one block product
(column k holds every a[i]*b[j] with i + j = k).  The generated
`_kernels.mul256` unpacks both operands once and makes three of them, a0*b0,
(a0+a1)*(b0+b1) and a1*b1, on tuple displays of the halves and half sums.
It takes the middle block's column k as s[k] - lo[k] - hi[k] =
(a0*b1 + a1*b0)[k] and carries all three, at columns 0, 16 and 32, once
from the bottom up into 64 limbs, in one `bytes` display.  The half sums are
limb sums up to 510, and every column sum is an exact polynomial
coefficient, so the subtraction is never negative and needs no carry or
sign mask.  `mul16` itself does a second additive level over 8-limb
halves: 192 products instead of 256, with inner half sums up to 1020.
Squaring is `_square.sqr256`, one flat body with the same outer level: it
writes each cross product a[i]*a[j] (i < j) once and doubles it, and its
three 16-limb square blocks sit inline (408 products).  The kernels are
emitted by tools/gen_kernels.py.

The kernels are split over modules because of compile memory: no bytecode
cache is written where PYTHONDONTWRITEBYTECODE is set, so every process
parses this source, and the parser's transient peak grows with the source.
One flat 576-product mul256 ran no faster than three mul16 calls (32.1
against 32.4 us on CPython 3.11.7 with 2 shared vCPUs) but raised that peak
from 987 to 1517 KB; tests/test_gen_kernels.py holds every generated module
to a node budget.  Squaring keeps one level because a second one, inside a
16-limb square block, ran slower there (5.39 against 5.25 us): a square
block has fewer products to save.

The paper's AVR code uses subtractive Karatsuba, |a0 - a1| * |b0 - b1| with
a sign mask, which keeps every operand a byte.  Here the operands are
Python integers, so the additive form needs neither the absolute
differences nor the sign: each level turns four block products into three
for the cost of the half sums and a subtraction per middle column.  The
levels are written out inside the generated functions, so they bring back
none of the lists and calls that the paper's recursive tree cost in
CPython.

Reduction mod p = 2^255 - 19 folds the high half in as 38 (2^256 ≡ 38 mod
p) and the remaining top bits as 19.  One generated routine does it: the
straight-line `_reduce.red38` carries m[k] + 38*m[k+32] in one pass, folds
bits 255 and up as 19 and carries a second fixed pass in the same `bytes`
display that ends mul256.  It is linear in its 64 integer columns;
red512 is red38 itself, applied to the product.  `_reduce.red19` is the
same code for 32 columns with no high half: add_mod, sub_mod and mul121666
hand it their 32 column sums.  For the column total V both return
(V mod 2^255) + 19 * (V >> 255): below 2p for every caller, so one
conditional subtraction canonicalizes.  The display leaves the top limb
unmasked, so a total whose result falls outside [0, 2^256) makes `bytes()`
raise ValueError, with or without -O.  This module is the only one that imports `_reduce` and knows
its column contract.  The linear kernels call red19, so red512 counts only
reductions of products.  `subp` keeps the one hand-written carry loop.

mul256, sqr256 and red512 are the generated functions themselves, with no
wrapper frame: their fixed-width unpack raises ValueError on a wrong length,
as red19's does for mul121666.  add_mod, sub_mod and subp check lengths,
because `map` stops silently at the shorter operand.  No function here
holds a test hook: negative-control faults rebind names from outside.

Control flow never depends on limb values: loops have fixed trip counts and
carries and borrows are arithmetic, never branches.  (CPython integers are
not physically constant-time; the discipline here is structural.)
"""

from operator import add, sub
from typing import Sequence, Tuple

# mul256, sqr256 and red512 are re-exported: the kernels themselves.
from ._kernels import mul256
from ._reduce import red19, red38 as red512
from ._square import sqr256

P = 2**255 - 19
P_LIMBS = P.to_bytes(32, "little")
# 4p = 2^257 - 76 as 32 integer columns: one value of the right congruence
# class that is larger than any 256-bit input, so subtraction never goes
# negative.
_FOURP_COLS = (180,) + (255,) * 30 + (511,)


def _check(x: Sequence[int], n: int, what: str) -> None:
    if len(x) != n:
        raise ValueError(f"{what} must have exactly {n} limbs, got {len(x)}")


def value(x: Sequence[int]) -> int:
    """Integer denoted by a little-endian limb sequence."""
    return int.from_bytes(bytes(x), "little")


def subp(a: bytes) -> Tuple[bytes, int]:
    """(a - p) mod 2^256 together with the borrow flag (1 iff a < p).

    A column may be negative: `>> 8` floors, so a borrow is a carry of -1.
    """
    _check(a, 32, "subp operand")
    d = []
    c = 0
    for t in map(sub, a, P_LIMBS):
        c += t
        d.append(c & 255)
        c >>= 8
    return bytes(d), -c


def add_mod(a: bytes, b: bytes) -> bytes:
    """a + b with bits 255+ of the sum folded back as 19; result < 2p."""
    _check(a, 32, "add_mod operand")
    _check(b, 32, "add_mod operand")
    return red19(map(add, a, b))


def sub_mod(a: bytes, b: bytes) -> bytes:
    """a - b computed as a + 4p - b, folded like add_mod; result < 2p.

    4p exceeds every 256-bit input, so a + 4p - b is positive and needs no
    sign-dependent control flow.  The columns a[i] + 4p[i] - b[i] may be
    negative; red19's carry pass floors.
    """
    _check(a, 32, "sub_mod operand")
    _check(b, 32, "sub_mod operand")
    return red19(map(sub, map(add, a, _FOURP_COLS), b))


def mul121666(a: bytes) -> bytes:
    """Multiply by the ladder constant 121666 = (A + 2) / 4; result < 2p."""
    # V = 121666 * a < 2^273, so V >> 255 < 2^18 and red19's result
    # (V mod 2^255) + 19 * (V >> 255) stays below 2p
    return red19([121666 * x for x in a])
