"""Straight-line 16-limb product kernels for mp_arith.mul256 and sqr256.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul16 and sqr16 return the 31 column sums of a 16x16-limb product (column
k holds every a[i]*b[j] with i + j = k).  Their operands are byte limbs or
sums of two byte limbs, up to 510, so a column sum stays below 2^22.
join(lo, s, hi) carries three such blocks into the 64 limbs of a 512-bit
product: lo at column 0, hi at column 32, and at column 16 the one-level
Karatsuba middle s - lo - hi, where s is the product of the half sums.
Each column sum is an exact polynomial coefficient, so s[k] - lo[k] - hi[k]
is never negative and needs no carry of its own.
"""


def mul16(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    return (
        a0*b0,
        a0*b1 + a1*b0,
        a0*b2 + a1*b1 + a2*b0,
        a0*b3 + a1*b2 + a2*b1 + a3*b0,
        a0*b4 + a1*b3 + a2*b2 + a3*b1 + a4*b0,
        a0*b5 + a1*b4 + a2*b3 + a3*b2 + a4*b1 + a5*b0,
        a0*b6 + a1*b5 + a2*b4 + a3*b3 + a4*b2 + a5*b1 + a6*b0,
        a0*b7 + a1*b6 + a2*b5 + a3*b4 + a4*b3 + a5*b2 + a6*b1 + a7*b0,
        a0*b8 + a1*b7 + a2*b6 + a3*b5 + a4*b4 + a5*b3 + a6*b2 + a7*b1 + a8*b0,
        a0*b9 + a1*b8 + a2*b7 + a3*b6 + a4*b5 + a5*b4 + a6*b3 + a7*b2 + a8*b1 + a9*b0,
        a0*b10 + a1*b9 + a2*b8 + a3*b7 + a4*b6 + a5*b5 + a6*b4 + a7*b3 + a8*b2 + a9*b1 + a10*b0,
        a0*b11 + a1*b10 + a2*b9 + a3*b8 + a4*b7 + a5*b6 + a6*b5 + a7*b4 + a8*b3 + a9*b2 + a10*b1 + a11*b0,
        a0*b12 + a1*b11 + a2*b10 + a3*b9 + a4*b8 + a5*b7 + a6*b6 + a7*b5 + a8*b4 + a9*b3 + a10*b2 + a11*b1 + a12*b0,
        a0*b13 + a1*b12 + a2*b11 + a3*b10 + a4*b9 + a5*b8 + a6*b7 + a7*b6 + a8*b5 + a9*b4 + a10*b3 + a11*b2 + a12*b1 + a13*b0,
        a0*b14 + a1*b13 + a2*b12 + a3*b11 + a4*b10 + a5*b9 + a6*b8 + a7*b7 + a8*b6 + a9*b5 + a10*b4 + a11*b3 + a12*b2 + a13*b1 + a14*b0,
        a0*b15 + a1*b14 + a2*b13 + a3*b12 + a4*b11 + a5*b10 + a6*b9 + a7*b8 + a8*b7 + a9*b6 + a10*b5 + a11*b4 + a12*b3 + a13*b2 + a14*b1 + a15*b0,
        a1*b15 + a2*b14 + a3*b13 + a4*b12 + a5*b11 + a6*b10 + a7*b9 + a8*b8 + a9*b7 + a10*b6 + a11*b5 + a12*b4 + a13*b3 + a14*b2 + a15*b1,
        a2*b15 + a3*b14 + a4*b13 + a5*b12 + a6*b11 + a7*b10 + a8*b9 + a9*b8 + a10*b7 + a11*b6 + a12*b5 + a13*b4 + a14*b3 + a15*b2,
        a3*b15 + a4*b14 + a5*b13 + a6*b12 + a7*b11 + a8*b10 + a9*b9 + a10*b8 + a11*b7 + a12*b6 + a13*b5 + a14*b4 + a15*b3,
        a4*b15 + a5*b14 + a6*b13 + a7*b12 + a8*b11 + a9*b10 + a10*b9 + a11*b8 + a12*b7 + a13*b6 + a14*b5 + a15*b4,
        a5*b15 + a6*b14 + a7*b13 + a8*b12 + a9*b11 + a10*b10 + a11*b9 + a12*b8 + a13*b7 + a14*b6 + a15*b5,
        a6*b15 + a7*b14 + a8*b13 + a9*b12 + a10*b11 + a11*b10 + a12*b9 + a13*b8 + a14*b7 + a15*b6,
        a7*b15 + a8*b14 + a9*b13 + a10*b12 + a11*b11 + a12*b10 + a13*b9 + a14*b8 + a15*b7,
        a8*b15 + a9*b14 + a10*b13 + a11*b12 + a12*b11 + a13*b10 + a14*b9 + a15*b8,
        a9*b15 + a10*b14 + a11*b13 + a12*b12 + a13*b11 + a14*b10 + a15*b9,
        a10*b15 + a11*b14 + a12*b13 + a13*b12 + a14*b11 + a15*b10,
        a11*b15 + a12*b14 + a13*b13 + a14*b12 + a15*b11,
        a12*b15 + a13*b14 + a14*b13 + a15*b12,
        a13*b15 + a14*b14 + a15*b13,
        a14*b15 + a15*b14,
        a15*b15,
    )


def sqr16(a):
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    return (
        a0*a0,
        2*(a0*a1),
        2*(a0*a2) + a1*a1,
        2*(a0*a3 + a1*a2),
        2*(a0*a4 + a1*a3) + a2*a2,
        2*(a0*a5 + a1*a4 + a2*a3),
        2*(a0*a6 + a1*a5 + a2*a4) + a3*a3,
        2*(a0*a7 + a1*a6 + a2*a5 + a3*a4),
        2*(a0*a8 + a1*a7 + a2*a6 + a3*a5) + a4*a4,
        2*(a0*a9 + a1*a8 + a2*a7 + a3*a6 + a4*a5),
        2*(a0*a10 + a1*a9 + a2*a8 + a3*a7 + a4*a6) + a5*a5,
        2*(a0*a11 + a1*a10 + a2*a9 + a3*a8 + a4*a7 + a5*a6),
        2*(a0*a12 + a1*a11 + a2*a10 + a3*a9 + a4*a8 + a5*a7) + a6*a6,
        2*(a0*a13 + a1*a12 + a2*a11 + a3*a10 + a4*a9 + a5*a8 + a6*a7),
        2*(a0*a14 + a1*a13 + a2*a12 + a3*a11 + a4*a10 + a5*a9 + a6*a8) + a7*a7,
        2*(a0*a15 + a1*a14 + a2*a13 + a3*a12 + a4*a11 + a5*a10 + a6*a9 + a7*a8),
        2*(a1*a15 + a2*a14 + a3*a13 + a4*a12 + a5*a11 + a6*a10 + a7*a9) + a8*a8,
        2*(a2*a15 + a3*a14 + a4*a13 + a5*a12 + a6*a11 + a7*a10 + a8*a9),
        2*(a3*a15 + a4*a14 + a5*a13 + a6*a12 + a7*a11 + a8*a10) + a9*a9,
        2*(a4*a15 + a5*a14 + a6*a13 + a7*a12 + a8*a11 + a9*a10),
        2*(a5*a15 + a6*a14 + a7*a13 + a8*a12 + a9*a11) + a10*a10,
        2*(a6*a15 + a7*a14 + a8*a13 + a9*a12 + a10*a11),
        2*(a7*a15 + a8*a14 + a9*a13 + a10*a12) + a11*a11,
        2*(a8*a15 + a9*a14 + a10*a13 + a11*a12),
        2*(a9*a15 + a10*a14 + a11*a13) + a12*a12,
        2*(a10*a15 + a11*a14 + a12*a13),
        2*(a11*a15 + a12*a14) + a13*a13,
        2*(a12*a15 + a13*a14),
        2*(a13*a15) + a14*a14,
        2*(a14*a15),
        a15*a15,
    )


def join(lo, s, hi):
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14, l15, l16, l17, l18, l19, l20, l21, l22, l23, l24, l25, l26, l27, l28, l29, l30 = lo
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15, s16, s17, s18, s19, s20, s21, s22, s23, s24, s25, s26, s27, s28, s29, s30 = s
    h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10, h11, h12, h13, h14, h15, h16, h17, h18, h19, h20, h21, h22, h23, h24, h25, h26, h27, h28, h29, h30 = hi
    c = l0
    r0 = c & 255
    c = (c >> 8) + l1
    r1 = c & 255
    c = (c >> 8) + l2
    r2 = c & 255
    c = (c >> 8) + l3
    r3 = c & 255
    c = (c >> 8) + l4
    r4 = c & 255
    c = (c >> 8) + l5
    r5 = c & 255
    c = (c >> 8) + l6
    r6 = c & 255
    c = (c >> 8) + l7
    r7 = c & 255
    c = (c >> 8) + l8
    r8 = c & 255
    c = (c >> 8) + l9
    r9 = c & 255
    c = (c >> 8) + l10
    r10 = c & 255
    c = (c >> 8) + l11
    r11 = c & 255
    c = (c >> 8) + l12
    r12 = c & 255
    c = (c >> 8) + l13
    r13 = c & 255
    c = (c >> 8) + l14
    r14 = c & 255
    c = (c >> 8) + l15
    r15 = c & 255
    c = (c >> 8) + l16 + s0 - l0 - h0
    r16 = c & 255
    c = (c >> 8) + l17 + s1 - l1 - h1
    r17 = c & 255
    c = (c >> 8) + l18 + s2 - l2 - h2
    r18 = c & 255
    c = (c >> 8) + l19 + s3 - l3 - h3
    r19 = c & 255
    c = (c >> 8) + l20 + s4 - l4 - h4
    r20 = c & 255
    c = (c >> 8) + l21 + s5 - l5 - h5
    r21 = c & 255
    c = (c >> 8) + l22 + s6 - l6 - h6
    r22 = c & 255
    c = (c >> 8) + l23 + s7 - l7 - h7
    r23 = c & 255
    c = (c >> 8) + l24 + s8 - l8 - h8
    r24 = c & 255
    c = (c >> 8) + l25 + s9 - l9 - h9
    r25 = c & 255
    c = (c >> 8) + l26 + s10 - l10 - h10
    r26 = c & 255
    c = (c >> 8) + l27 + s11 - l11 - h11
    r27 = c & 255
    c = (c >> 8) + l28 + s12 - l12 - h12
    r28 = c & 255
    c = (c >> 8) + l29 + s13 - l13 - h13
    r29 = c & 255
    c = (c >> 8) + l30 + s14 - l14 - h14
    r30 = c & 255
    c = (c >> 8) + s15 - l15 - h15
    r31 = c & 255
    c = (c >> 8) + s16 - l16 - h16 + h0
    r32 = c & 255
    c = (c >> 8) + s17 - l17 - h17 + h1
    r33 = c & 255
    c = (c >> 8) + s18 - l18 - h18 + h2
    r34 = c & 255
    c = (c >> 8) + s19 - l19 - h19 + h3
    r35 = c & 255
    c = (c >> 8) + s20 - l20 - h20 + h4
    r36 = c & 255
    c = (c >> 8) + s21 - l21 - h21 + h5
    r37 = c & 255
    c = (c >> 8) + s22 - l22 - h22 + h6
    r38 = c & 255
    c = (c >> 8) + s23 - l23 - h23 + h7
    r39 = c & 255
    c = (c >> 8) + s24 - l24 - h24 + h8
    r40 = c & 255
    c = (c >> 8) + s25 - l25 - h25 + h9
    r41 = c & 255
    c = (c >> 8) + s26 - l26 - h26 + h10
    r42 = c & 255
    c = (c >> 8) + s27 - l27 - h27 + h11
    r43 = c & 255
    c = (c >> 8) + s28 - l28 - h28 + h12
    r44 = c & 255
    c = (c >> 8) + s29 - l29 - h29 + h13
    r45 = c & 255
    c = (c >> 8) + s30 - l30 - h30 + h14
    r46 = c & 255
    c = (c >> 8) + h15
    r47 = c & 255
    c = (c >> 8) + h16
    r48 = c & 255
    c = (c >> 8) + h17
    r49 = c & 255
    c = (c >> 8) + h18
    r50 = c & 255
    c = (c >> 8) + h19
    r51 = c & 255
    c = (c >> 8) + h20
    r52 = c & 255
    c = (c >> 8) + h21
    r53 = c & 255
    c = (c >> 8) + h22
    r54 = c & 255
    c = (c >> 8) + h23
    r55 = c & 255
    c = (c >> 8) + h24
    r56 = c & 255
    c = (c >> 8) + h25
    r57 = c & 255
    c = (c >> 8) + h26
    r58 = c & 255
    c = (c >> 8) + h27
    r59 = c & 255
    c = (c >> 8) + h28
    r60 = c & 255
    c = (c >> 8) + h29
    r61 = c & 255
    c = (c >> 8) + h30
    r62 = c & 255
    return bytes((r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31, r32, r33, r34, r35, r36, r37, r38, r39, r40, r41, r42, r43, r44, r45, r46, r47, r48, r49, r50, r51, r52, r53, r54, r55, r56, r57, r58, r59, r60, r61, r62, c >> 8))
