"""Multi-precision kernels over packed 8-bit limbs.

A 256-bit value is 32 little-endian byte limbs (a `bytes` of length 32), a
512-bit value is 64 limbs.  The radix is deliberately 8 bits: every routine
has to do real carry and borrow propagation at byte boundaries, which is
where the interesting bugs live, and it keeps the structure in one-to-one
correspondence with unrolled 8-bit machine code.

Every kernel here is a straight-line function emitted by
tools/gen_kernels.py and re-exported with no wrapper frame: its fixed-width
unpack raises ValueError on a wrong length, in every mode, and each one ends
in the same carry display, a `bytes` of `(c := (c >> 8) + col) & 255`
entries.  No function holds a test hook: negative-control faults rebind
names from outside.

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
writes each cross product a[i]*a[j] (i < j) once, as a[i]*da[j] against the
doubled limb da[j] = a[j] + a[j] computed once, so no column is multiplied
by 2, and its three 16-limb square blocks sit inline (408 products).

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
p) and the top bits as 19 (2^255 ≡ 19).  One template writes every
reduction, in one carry pass: over 32 column expressions with top column t,
it adds 19 * (t >> 7) to column 0 *before* the carry and carries the
columns once, in the same `bytes` display that ends mul256, with t & 127
joining the top limb.  For the column total V each returns
W = V - p * (t >> 7), the same residue.  red512 is `_reduce.red38`, whose
column k is m[k] + 38*m[k+32]; `add_mod` takes a[k] + b[k] and `sub_mod`
a[k] - b[k] + 4p[k] (4p exceeds every 256-bit operand, so the total is
positive).  For byte inputs the carry into the top limb is at most 39, 2
and 5, so W < 2p and one conditional subtraction canonicalizes.
`mul121666`'s columns 121666*a[k] reach 2^25, so it carries
them once first and then applies the template to the carried limbs.  The
display leaves the top limb unmasked, so a total whose W falls outside
[0, 2^256) makes `bytes()` raise ValueError, with or without -O.  The
linear kernels do not call red512, so red512 counts only reductions of
products.
`subp` is one carry display over a[k] - p[k] with every limb masked, and
`cmov` a masked move per limb; both are in `_linear` with `mul121666`.

tests/_proof.py proves these claims for all byte inputs: exact products,
the reductions' congruence below 2p with those top carries, subp's
d = a - p + 2^256*borrow, and cmov's move: every limb of its text is
a ^ ((a ^ b) & m), which is right in all 256*256*2 cases.

Control flow never depends on limb values: the generated code has no branch
or loop, and carries and borrows are arithmetic.  (CPython integers are not
physically constant-time; the discipline here is structural.)
"""

from typing import Sequence

# The kernels themselves, re-exported.
from ._kernels import mul256
from ._linear import cmov, mul121666, subp
from ._reduce import add_mod, red38 as red512, sub_mod
from ._square import sqr256

P = 2**255 - 19


def value(x: Sequence[int]) -> int:
    """Integer denoted by a little-endian limb sequence."""
    return int.from_bytes(bytes(x), "little")
