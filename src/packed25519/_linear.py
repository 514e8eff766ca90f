"""Straight-line linear kernels: mul121666, subp and cmov.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul121666 carries the columns 121666*a[k] once and then applies the
reduction of _reduce.py to the carried limbs: its columns reach 2^25, too
large for one pass to leave the top limb a byte.  subp
carries a[k] - p[k] in one display with every limb masked and returns the
borrow -(c >> 8) beside it: `>> 8` floors, so a borrow is a carry of -1.
cmov moves b into a under the mask -c & 255, limb by limb.  mp_arith
re-exports all three, and fe25519.cmov is cmov itself.  They live apart
from _reduce.py because the parser's transient peak is per module.
"""


def mul121666(a):
    """Multiply by the ladder constant 121666 = (A + 2) / 4; result < 2p."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    c = 121666*a0
    r0 = c & 255
    c = (c >> 8) + 121666*a1
    r1 = c & 255
    c = (c >> 8) + 121666*a2
    r2 = c & 255
    c = (c >> 8) + 121666*a3
    r3 = c & 255
    c = (c >> 8) + 121666*a4
    r4 = c & 255
    c = (c >> 8) + 121666*a5
    r5 = c & 255
    c = (c >> 8) + 121666*a6
    r6 = c & 255
    c = (c >> 8) + 121666*a7
    r7 = c & 255
    c = (c >> 8) + 121666*a8
    r8 = c & 255
    c = (c >> 8) + 121666*a9
    r9 = c & 255
    c = (c >> 8) + 121666*a10
    r10 = c & 255
    c = (c >> 8) + 121666*a11
    r11 = c & 255
    c = (c >> 8) + 121666*a12
    r12 = c & 255
    c = (c >> 8) + 121666*a13
    r13 = c & 255
    c = (c >> 8) + 121666*a14
    r14 = c & 255
    c = (c >> 8) + 121666*a15
    r15 = c & 255
    c = (c >> 8) + 121666*a16
    r16 = c & 255
    c = (c >> 8) + 121666*a17
    r17 = c & 255
    c = (c >> 8) + 121666*a18
    r18 = c & 255
    c = (c >> 8) + 121666*a19
    r19 = c & 255
    c = (c >> 8) + 121666*a20
    r20 = c & 255
    c = (c >> 8) + 121666*a21
    r21 = c & 255
    c = (c >> 8) + 121666*a22
    r22 = c & 255
    c = (c >> 8) + 121666*a23
    r23 = c & 255
    c = (c >> 8) + 121666*a24
    r24 = c & 255
    c = (c >> 8) + 121666*a25
    r25 = c & 255
    c = (c >> 8) + 121666*a26
    r26 = c & 255
    c = (c >> 8) + 121666*a27
    r27 = c & 255
    c = (c >> 8) + 121666*a28
    r28 = c & 255
    c = (c >> 8) + 121666*a29
    r29 = c & 255
    c = (c >> 8) + 121666*a30
    r30 = c & 255
    t = (c >> 8) + 121666*a31
    return bytes((
        (c := r0 + 19*(t >> 7)) & 255,
        (c := (c >> 8) + r1) & 255,
        (c := (c >> 8) + r2) & 255,
        (c := (c >> 8) + r3) & 255,
        (c := (c >> 8) + r4) & 255,
        (c := (c >> 8) + r5) & 255,
        (c := (c >> 8) + r6) & 255,
        (c := (c >> 8) + r7) & 255,
        (c := (c >> 8) + r8) & 255,
        (c := (c >> 8) + r9) & 255,
        (c := (c >> 8) + r10) & 255,
        (c := (c >> 8) + r11) & 255,
        (c := (c >> 8) + r12) & 255,
        (c := (c >> 8) + r13) & 255,
        (c := (c >> 8) + r14) & 255,
        (c := (c >> 8) + r15) & 255,
        (c := (c >> 8) + r16) & 255,
        (c := (c >> 8) + r17) & 255,
        (c := (c >> 8) + r18) & 255,
        (c := (c >> 8) + r19) & 255,
        (c := (c >> 8) + r20) & 255,
        (c := (c >> 8) + r21) & 255,
        (c := (c >> 8) + r22) & 255,
        (c := (c >> 8) + r23) & 255,
        (c := (c >> 8) + r24) & 255,
        (c := (c >> 8) + r25) & 255,
        (c := (c >> 8) + r26) & 255,
        (c := (c >> 8) + r27) & 255,
        (c := (c >> 8) + r28) & 255,
        (c := (c >> 8) + r29) & 255,
        (c := (c >> 8) + r30) & 255,
        (c >> 8) + (t & 127),
    ))


def subp(a):
    """(a - p) mod 2^256 together with the borrow flag (1 iff a < p)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    return bytes((
        (c := a0 - 237) & 255,
        (c := (c >> 8) + a1 - 255) & 255,
        (c := (c >> 8) + a2 - 255) & 255,
        (c := (c >> 8) + a3 - 255) & 255,
        (c := (c >> 8) + a4 - 255) & 255,
        (c := (c >> 8) + a5 - 255) & 255,
        (c := (c >> 8) + a6 - 255) & 255,
        (c := (c >> 8) + a7 - 255) & 255,
        (c := (c >> 8) + a8 - 255) & 255,
        (c := (c >> 8) + a9 - 255) & 255,
        (c := (c >> 8) + a10 - 255) & 255,
        (c := (c >> 8) + a11 - 255) & 255,
        (c := (c >> 8) + a12 - 255) & 255,
        (c := (c >> 8) + a13 - 255) & 255,
        (c := (c >> 8) + a14 - 255) & 255,
        (c := (c >> 8) + a15 - 255) & 255,
        (c := (c >> 8) + a16 - 255) & 255,
        (c := (c >> 8) + a17 - 255) & 255,
        (c := (c >> 8) + a18 - 255) & 255,
        (c := (c >> 8) + a19 - 255) & 255,
        (c := (c >> 8) + a20 - 255) & 255,
        (c := (c >> 8) + a21 - 255) & 255,
        (c := (c >> 8) + a22 - 255) & 255,
        (c := (c >> 8) + a23 - 255) & 255,
        (c := (c >> 8) + a24 - 255) & 255,
        (c := (c >> 8) + a25 - 255) & 255,
        (c := (c >> 8) + a26 - 255) & 255,
        (c := (c >> 8) + a27 - 255) & 255,
        (c := (c >> 8) + a28 - 255) & 255,
        (c := (c >> 8) + a29 - 255) & 255,
        (c := (c >> 8) + a30 - 255) & 255,
        (c := (c >> 8) + a31 - 127) & 255,
    )), -(c >> 8)


def cmov(a, b, c):
    """a when c = 0, b when c = 1, via masked moves (no branch on c)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, b16, b17, b18, b19, b20, b21, b22, b23, b24, b25, b26, b27, b28, b29, b30, b31 = b
    m = -c & 255
    return bytes((
        a0 ^ ((a0 ^ b0) & m),
        a1 ^ ((a1 ^ b1) & m),
        a2 ^ ((a2 ^ b2) & m),
        a3 ^ ((a3 ^ b3) & m),
        a4 ^ ((a4 ^ b4) & m),
        a5 ^ ((a5 ^ b5) & m),
        a6 ^ ((a6 ^ b6) & m),
        a7 ^ ((a7 ^ b7) & m),
        a8 ^ ((a8 ^ b8) & m),
        a9 ^ ((a9 ^ b9) & m),
        a10 ^ ((a10 ^ b10) & m),
        a11 ^ ((a11 ^ b11) & m),
        a12 ^ ((a12 ^ b12) & m),
        a13 ^ ((a13 ^ b13) & m),
        a14 ^ ((a14 ^ b14) & m),
        a15 ^ ((a15 ^ b15) & m),
        a16 ^ ((a16 ^ b16) & m),
        a17 ^ ((a17 ^ b17) & m),
        a18 ^ ((a18 ^ b18) & m),
        a19 ^ ((a19 ^ b19) & m),
        a20 ^ ((a20 ^ b20) & m),
        a21 ^ ((a21 ^ b21) & m),
        a22 ^ ((a22 ^ b22) & m),
        a23 ^ ((a23 ^ b23) & m),
        a24 ^ ((a24 ^ b24) & m),
        a25 ^ ((a25 ^ b25) & m),
        a26 ^ ((a26 ^ b26) & m),
        a27 ^ ((a27 ^ b27) & m),
        a28 ^ ((a28 ^ b28) & m),
        a29 ^ ((a29 ^ b29) & m),
        a30 ^ ((a30 ^ b30) & m),
        a31 ^ ((a31 ^ b31) & m),
    ))
