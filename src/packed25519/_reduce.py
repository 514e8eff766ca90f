"""Straight-line reduction mod p = 2^255 - 19 for the whole field layer.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

red38 folds the high 32 columns in as 38 (2^256 = 38 mod p) in one carry
pass, then bits 255 and up as 19 (2^255 = 19 mod p) in a second fixed pass,
written as one bytes display.  It is linear in its 64 integer columns, which
may be negative or exceed a byte: for V = sum (m[k] + 38*m[k+32])*2^(8k) it
returns (V mod 2^255) + 19*(V >> 255) as 32 limbs.  The top limb is left
unmasked, so bytes() raises ValueError, with or without -O, when that value
falls outside [0, 2^256).  red19 is the same for 32 columns, as if the high
half were zero.  mp_arith.red512 is red38 itself, applied to a 512-bit
product; mp_arith.add_mod, sub_mod and mul121666 call red19.
"""


def red38(m):
    """Reduce 64 columns mod p into 32 limbs; below 2p for a 512-bit product."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15, m16, m17, m18, m19, m20, m21, m22, m23, m24, m25, m26, m27, m28, m29, m30, m31, m32, m33, m34, m35, m36, m37, m38, m39, m40, m41, m42, m43, m44, m45, m46, m47, m48, m49, m50, m51, m52, m53, m54, m55, m56, m57, m58, m59, m60, m61, m62, m63 = m
    c = m0 + 38*m32
    r0 = c & 255
    c = (c >> 8) + m1 + 38*m33
    r1 = c & 255
    c = (c >> 8) + m2 + 38*m34
    r2 = c & 255
    c = (c >> 8) + m3 + 38*m35
    r3 = c & 255
    c = (c >> 8) + m4 + 38*m36
    r4 = c & 255
    c = (c >> 8) + m5 + 38*m37
    r5 = c & 255
    c = (c >> 8) + m6 + 38*m38
    r6 = c & 255
    c = (c >> 8) + m7 + 38*m39
    r7 = c & 255
    c = (c >> 8) + m8 + 38*m40
    r8 = c & 255
    c = (c >> 8) + m9 + 38*m41
    r9 = c & 255
    c = (c >> 8) + m10 + 38*m42
    r10 = c & 255
    c = (c >> 8) + m11 + 38*m43
    r11 = c & 255
    c = (c >> 8) + m12 + 38*m44
    r12 = c & 255
    c = (c >> 8) + m13 + 38*m45
    r13 = c & 255
    c = (c >> 8) + m14 + 38*m46
    r14 = c & 255
    c = (c >> 8) + m15 + 38*m47
    r15 = c & 255
    c = (c >> 8) + m16 + 38*m48
    r16 = c & 255
    c = (c >> 8) + m17 + 38*m49
    r17 = c & 255
    c = (c >> 8) + m18 + 38*m50
    r18 = c & 255
    c = (c >> 8) + m19 + 38*m51
    r19 = c & 255
    c = (c >> 8) + m20 + 38*m52
    r20 = c & 255
    c = (c >> 8) + m21 + 38*m53
    r21 = c & 255
    c = (c >> 8) + m22 + 38*m54
    r22 = c & 255
    c = (c >> 8) + m23 + 38*m55
    r23 = c & 255
    c = (c >> 8) + m24 + 38*m56
    r24 = c & 255
    c = (c >> 8) + m25 + 38*m57
    r25 = c & 255
    c = (c >> 8) + m26 + 38*m58
    r26 = c & 255
    c = (c >> 8) + m27 + 38*m59
    r27 = c & 255
    c = (c >> 8) + m28 + 38*m60
    r28 = c & 255
    c = (c >> 8) + m29 + 38*m61
    r29 = c & 255
    c = (c >> 8) + m30 + 38*m62
    r30 = c & 255
    c = (c >> 8) + m31 + 38*m63
    r31 = c & 127
    return bytes((
        (c := r0 + 19*(c >> 7)) & 255,
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
        (c >> 8) + r31,
    ))


def red19(m):
    """red38 for 32 columns, as if the high half were zero."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15, m16, m17, m18, m19, m20, m21, m22, m23, m24, m25, m26, m27, m28, m29, m30, m31 = m
    c = m0
    r0 = c & 255
    c = (c >> 8) + m1
    r1 = c & 255
    c = (c >> 8) + m2
    r2 = c & 255
    c = (c >> 8) + m3
    r3 = c & 255
    c = (c >> 8) + m4
    r4 = c & 255
    c = (c >> 8) + m5
    r5 = c & 255
    c = (c >> 8) + m6
    r6 = c & 255
    c = (c >> 8) + m7
    r7 = c & 255
    c = (c >> 8) + m8
    r8 = c & 255
    c = (c >> 8) + m9
    r9 = c & 255
    c = (c >> 8) + m10
    r10 = c & 255
    c = (c >> 8) + m11
    r11 = c & 255
    c = (c >> 8) + m12
    r12 = c & 255
    c = (c >> 8) + m13
    r13 = c & 255
    c = (c >> 8) + m14
    r14 = c & 255
    c = (c >> 8) + m15
    r15 = c & 255
    c = (c >> 8) + m16
    r16 = c & 255
    c = (c >> 8) + m17
    r17 = c & 255
    c = (c >> 8) + m18
    r18 = c & 255
    c = (c >> 8) + m19
    r19 = c & 255
    c = (c >> 8) + m20
    r20 = c & 255
    c = (c >> 8) + m21
    r21 = c & 255
    c = (c >> 8) + m22
    r22 = c & 255
    c = (c >> 8) + m23
    r23 = c & 255
    c = (c >> 8) + m24
    r24 = c & 255
    c = (c >> 8) + m25
    r25 = c & 255
    c = (c >> 8) + m26
    r26 = c & 255
    c = (c >> 8) + m27
    r27 = c & 255
    c = (c >> 8) + m28
    r28 = c & 255
    c = (c >> 8) + m29
    r29 = c & 255
    c = (c >> 8) + m30
    r30 = c & 255
    c = (c >> 8) + m31
    r31 = c & 127
    return bytes((
        (c := r0 + 19*(c >> 7)) & 255,
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
        (c >> 8) + r31,
    ))
