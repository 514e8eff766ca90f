"""Straight-line reductions mod p = 2^255 - 19: red38, add_mod and sub_mod.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

Each function takes its top column t, folds bits 7 and up of t into
column 0 as 19 (2^255 = 19 mod p) and carries the 32 integer columns once,
written as one bytes display whose top limb is (c >> 8) + (t & 127).
Columns may be negative or exceed a byte: for the column total V the result
is W = V - p*(t >> 7) as 32 limbs.  The top limb is left unmasked, so
bytes() raises ValueError, with or without -O, when W falls outside
[0, 2^256).  red38's column k is m[k] + 38*m[k+32] (2^256 = 38 mod p),
add_mod's a[k] + b[k] and sub_mod's a[k] - b[k] + 4p[k].  For byte inputs
the carry into the top limb is at most 39, 2 and 5, so W < 2p.
mp_arith.red512 is red38 itself; add_mod and sub_mod are mp_arith's own.
"""


def red38(m):
    """Reduce 64 columns mod p into 32 limbs; below 2p for a 512-bit product."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15, m16, m17, m18, m19, m20, m21, m22, m23, m24, m25, m26, m27, m28, m29, m30, m31, m32, m33, m34, m35, m36, m37, m38, m39, m40, m41, m42, m43, m44, m45, m46, m47, m48, m49, m50, m51, m52, m53, m54, m55, m56, m57, m58, m59, m60, m61, m62, m63 = m
    t = m31 + 38*m63
    return bytes((
        (c := m0 + 38*m32 + 19*(t >> 7)) & 255,
        (c := (c >> 8) + m1 + 38*m33) & 255,
        (c := (c >> 8) + m2 + 38*m34) & 255,
        (c := (c >> 8) + m3 + 38*m35) & 255,
        (c := (c >> 8) + m4 + 38*m36) & 255,
        (c := (c >> 8) + m5 + 38*m37) & 255,
        (c := (c >> 8) + m6 + 38*m38) & 255,
        (c := (c >> 8) + m7 + 38*m39) & 255,
        (c := (c >> 8) + m8 + 38*m40) & 255,
        (c := (c >> 8) + m9 + 38*m41) & 255,
        (c := (c >> 8) + m10 + 38*m42) & 255,
        (c := (c >> 8) + m11 + 38*m43) & 255,
        (c := (c >> 8) + m12 + 38*m44) & 255,
        (c := (c >> 8) + m13 + 38*m45) & 255,
        (c := (c >> 8) + m14 + 38*m46) & 255,
        (c := (c >> 8) + m15 + 38*m47) & 255,
        (c := (c >> 8) + m16 + 38*m48) & 255,
        (c := (c >> 8) + m17 + 38*m49) & 255,
        (c := (c >> 8) + m18 + 38*m50) & 255,
        (c := (c >> 8) + m19 + 38*m51) & 255,
        (c := (c >> 8) + m20 + 38*m52) & 255,
        (c := (c >> 8) + m21 + 38*m53) & 255,
        (c := (c >> 8) + m22 + 38*m54) & 255,
        (c := (c >> 8) + m23 + 38*m55) & 255,
        (c := (c >> 8) + m24 + 38*m56) & 255,
        (c := (c >> 8) + m25 + 38*m57) & 255,
        (c := (c >> 8) + m26 + 38*m58) & 255,
        (c := (c >> 8) + m27 + 38*m59) & 255,
        (c := (c >> 8) + m28 + 38*m60) & 255,
        (c := (c >> 8) + m29 + 38*m61) & 255,
        (c := (c >> 8) + m30 + 38*m62) & 255,
        (c >> 8) + (t & 127),
    ))


def add_mod(a, b):
    """a + b with bits 255+ of the sum folded back as 19; result < 2p."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, b16, b17, b18, b19, b20, b21, b22, b23, b24, b25, b26, b27, b28, b29, b30, b31 = b
    t = a31 + b31
    return bytes((
        (c := a0 + b0 + 19*(t >> 7)) & 255,
        (c := (c >> 8) + a1 + b1) & 255,
        (c := (c >> 8) + a2 + b2) & 255,
        (c := (c >> 8) + a3 + b3) & 255,
        (c := (c >> 8) + a4 + b4) & 255,
        (c := (c >> 8) + a5 + b5) & 255,
        (c := (c >> 8) + a6 + b6) & 255,
        (c := (c >> 8) + a7 + b7) & 255,
        (c := (c >> 8) + a8 + b8) & 255,
        (c := (c >> 8) + a9 + b9) & 255,
        (c := (c >> 8) + a10 + b10) & 255,
        (c := (c >> 8) + a11 + b11) & 255,
        (c := (c >> 8) + a12 + b12) & 255,
        (c := (c >> 8) + a13 + b13) & 255,
        (c := (c >> 8) + a14 + b14) & 255,
        (c := (c >> 8) + a15 + b15) & 255,
        (c := (c >> 8) + a16 + b16) & 255,
        (c := (c >> 8) + a17 + b17) & 255,
        (c := (c >> 8) + a18 + b18) & 255,
        (c := (c >> 8) + a19 + b19) & 255,
        (c := (c >> 8) + a20 + b20) & 255,
        (c := (c >> 8) + a21 + b21) & 255,
        (c := (c >> 8) + a22 + b22) & 255,
        (c := (c >> 8) + a23 + b23) & 255,
        (c := (c >> 8) + a24 + b24) & 255,
        (c := (c >> 8) + a25 + b25) & 255,
        (c := (c >> 8) + a26 + b26) & 255,
        (c := (c >> 8) + a27 + b27) & 255,
        (c := (c >> 8) + a28 + b28) & 255,
        (c := (c >> 8) + a29 + b29) & 255,
        (c := (c >> 8) + a30 + b30) & 255,
        (c >> 8) + (t & 127),
    ))


def sub_mod(a, b):
    """a - b computed as a + 4p - b, folded like add_mod; result < 2p."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, b16, b17, b18, b19, b20, b21, b22, b23, b24, b25, b26, b27, b28, b29, b30, b31 = b
    t = a31 - b31 + 508
    return bytes((
        (c := a0 - b0 + 948 + 19*(t >> 7)) & 255,
        (c := (c >> 8) + a1 - b1 + 1020) & 255,
        (c := (c >> 8) + a2 - b2 + 1020) & 255,
        (c := (c >> 8) + a3 - b3 + 1020) & 255,
        (c := (c >> 8) + a4 - b4 + 1020) & 255,
        (c := (c >> 8) + a5 - b5 + 1020) & 255,
        (c := (c >> 8) + a6 - b6 + 1020) & 255,
        (c := (c >> 8) + a7 - b7 + 1020) & 255,
        (c := (c >> 8) + a8 - b8 + 1020) & 255,
        (c := (c >> 8) + a9 - b9 + 1020) & 255,
        (c := (c >> 8) + a10 - b10 + 1020) & 255,
        (c := (c >> 8) + a11 - b11 + 1020) & 255,
        (c := (c >> 8) + a12 - b12 + 1020) & 255,
        (c := (c >> 8) + a13 - b13 + 1020) & 255,
        (c := (c >> 8) + a14 - b14 + 1020) & 255,
        (c := (c >> 8) + a15 - b15 + 1020) & 255,
        (c := (c >> 8) + a16 - b16 + 1020) & 255,
        (c := (c >> 8) + a17 - b17 + 1020) & 255,
        (c := (c >> 8) + a18 - b18 + 1020) & 255,
        (c := (c >> 8) + a19 - b19 + 1020) & 255,
        (c := (c >> 8) + a20 - b20 + 1020) & 255,
        (c := (c >> 8) + a21 - b21 + 1020) & 255,
        (c := (c >> 8) + a22 - b22 + 1020) & 255,
        (c := (c >> 8) + a23 - b23 + 1020) & 255,
        (c := (c >> 8) + a24 - b24 + 1020) & 255,
        (c := (c >> 8) + a25 - b25 + 1020) & 255,
        (c := (c >> 8) + a26 - b26 + 1020) & 255,
        (c := (c >> 8) + a27 - b27 + 1020) & 255,
        (c := (c >> 8) + a28 - b28 + 1020) & 255,
        (c := (c >> 8) + a29 - b29 + 1020) & 255,
        (c := (c >> 8) + a30 - b30 + 1020) & 255,
        (c >> 8) + (t & 127),
    ))
