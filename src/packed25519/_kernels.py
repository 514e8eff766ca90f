"""Straight-line product kernels; mul256 is mp_arith.mul256 itself.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul16 returns the 31 column sums of a 16x16-limb product (column k holds
every a[i]*b[j] with i + j = k).  Its operands are byte limbs or sums of two
byte limbs, up to 510.  It does one additive Karatsuba level over 8-limb
halves: the inner half sums reach 1020, every inner block column stays below
2^23 and every returned column below 2^22.

mul256 unpacks its two 32-limb operands once, makes three mul16 blocks, l of
the low halves, s of the half sums and h of the high halves, and carries
them into the 64 limbs of a 512-bit product in one display: l at column 0, h
at column 32, and at column 16 the Karatsuba middle s - l - h.  Each column
sum is an exact polynomial coefficient, so a middle column is never
negative and needs no carry of its own.
"""


def mul16(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    u0 = a0 + a8
    u1 = a1 + a9
    u2 = a2 + a10
    u3 = a3 + a11
    u4 = a4 + a12
    u5 = a5 + a13
    u6 = a6 + a14
    u7 = a7 + a15
    v0 = b0 + b8
    v1 = b1 + b9
    v2 = b2 + b10
    v3 = b3 + b11
    v4 = b4 + b12
    v5 = b5 + b13
    v6 = b6 + b14
    v7 = b7 + b15
    l0 = a0*b0
    l1 = a0*b1 + a1*b0
    l2 = a0*b2 + a1*b1 + a2*b0
    l3 = a0*b3 + a1*b2 + a2*b1 + a3*b0
    l4 = a0*b4 + a1*b3 + a2*b2 + a3*b1 + a4*b0
    l5 = a0*b5 + a1*b4 + a2*b3 + a3*b2 + a4*b1 + a5*b0
    l6 = a0*b6 + a1*b5 + a2*b4 + a3*b3 + a4*b2 + a5*b1 + a6*b0
    l7 = a0*b7 + a1*b6 + a2*b5 + a3*b4 + a4*b3 + a5*b2 + a6*b1 + a7*b0
    l8 = a1*b7 + a2*b6 + a3*b5 + a4*b4 + a5*b3 + a6*b2 + a7*b1
    l9 = a2*b7 + a3*b6 + a4*b5 + a5*b4 + a6*b3 + a7*b2
    l10 = a3*b7 + a4*b6 + a5*b5 + a6*b4 + a7*b3
    l11 = a4*b7 + a5*b6 + a6*b5 + a7*b4
    l12 = a5*b7 + a6*b6 + a7*b5
    l13 = a6*b7 + a7*b6
    l14 = a7*b7
    h0 = a8*b8
    h1 = a8*b9 + a9*b8
    h2 = a8*b10 + a9*b9 + a10*b8
    h3 = a8*b11 + a9*b10 + a10*b9 + a11*b8
    h4 = a8*b12 + a9*b11 + a10*b10 + a11*b9 + a12*b8
    h5 = a8*b13 + a9*b12 + a10*b11 + a11*b10 + a12*b9 + a13*b8
    h6 = a8*b14 + a9*b13 + a10*b12 + a11*b11 + a12*b10 + a13*b9 + a14*b8
    h7 = a8*b15 + a9*b14 + a10*b13 + a11*b12 + a12*b11 + a13*b10 + a14*b9 + a15*b8
    h8 = a9*b15 + a10*b14 + a11*b13 + a12*b12 + a13*b11 + a14*b10 + a15*b9
    h9 = a10*b15 + a11*b14 + a12*b13 + a13*b12 + a14*b11 + a15*b10
    h10 = a11*b15 + a12*b14 + a13*b13 + a14*b12 + a15*b11
    h11 = a12*b15 + a13*b14 + a14*b13 + a15*b12
    h12 = a13*b15 + a14*b14 + a15*b13
    h13 = a14*b15 + a15*b14
    h14 = a15*b15
    return (
        l0,
        l1,
        l2,
        l3,
        l4,
        l5,
        l6,
        l7,
        l8 + u0*v0 - l0 - h0,
        l9 + u0*v1 + u1*v0 - l1 - h1,
        l10 + u0*v2 + u1*v1 + u2*v0 - l2 - h2,
        l11 + u0*v3 + u1*v2 + u2*v1 + u3*v0 - l3 - h3,
        l12 + u0*v4 + u1*v3 + u2*v2 + u3*v1 + u4*v0 - l4 - h4,
        l13 + u0*v5 + u1*v4 + u2*v3 + u3*v2 + u4*v1 + u5*v0 - l5 - h5,
        l14 + u0*v6 + u1*v5 + u2*v4 + u3*v3 + u4*v2 + u5*v1 + u6*v0 - l6 - h6,
        u0*v7 + u1*v6 + u2*v5 + u3*v4 + u4*v3 + u5*v2 + u6*v1 + u7*v0 - l7 - h7,
        u1*v7 + u2*v6 + u3*v5 + u4*v4 + u5*v3 + u6*v2 + u7*v1 - l8 - h8 + h0,
        u2*v7 + u3*v6 + u4*v5 + u5*v4 + u6*v3 + u7*v2 - l9 - h9 + h1,
        u3*v7 + u4*v6 + u5*v5 + u6*v4 + u7*v3 - l10 - h10 + h2,
        u4*v7 + u5*v6 + u6*v5 + u7*v4 - l11 - h11 + h3,
        u5*v7 + u6*v6 + u7*v5 - l12 - h12 + h4,
        u6*v7 + u7*v6 - l13 - h13 + h5,
        u7*v7 - l14 - h14 + h6,
        h7,
        h8,
        h9,
        h10,
        h11,
        h12,
        h13,
        h14,
    )


def mul256(a, b):
    """256x256->512-bit product of packed little-endian limbs."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, b16, b17, b18, b19, b20, b21, b22, b23, b24, b25, b26, b27, b28, b29, b30, b31 = b
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14, l15, l16, l17, l18, l19, l20, l21, l22, l23, l24, l25, l26, l27, l28, l29, l30 = mul16((a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15), (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15))
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15, s16, s17, s18, s19, s20, s21, s22, s23, s24, s25, s26, s27, s28, s29, s30 = mul16((a0 + a16, a1 + a17, a2 + a18, a3 + a19, a4 + a20, a5 + a21, a6 + a22, a7 + a23, a8 + a24, a9 + a25, a10 + a26, a11 + a27, a12 + a28, a13 + a29, a14 + a30, a15 + a31), (b0 + b16, b1 + b17, b2 + b18, b3 + b19, b4 + b20, b5 + b21, b6 + b22, b7 + b23, b8 + b24, b9 + b25, b10 + b26, b11 + b27, b12 + b28, b13 + b29, b14 + b30, b15 + b31))
    h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10, h11, h12, h13, h14, h15, h16, h17, h18, h19, h20, h21, h22, h23, h24, h25, h26, h27, h28, h29, h30 = mul16((a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31), (b16, b17, b18, b19, b20, b21, b22, b23, b24, b25, b26, b27, b28, b29, b30, b31))
    return bytes((
        (c := l0) & 255,
        (c := (c >> 8) + l1) & 255,
        (c := (c >> 8) + l2) & 255,
        (c := (c >> 8) + l3) & 255,
        (c := (c >> 8) + l4) & 255,
        (c := (c >> 8) + l5) & 255,
        (c := (c >> 8) + l6) & 255,
        (c := (c >> 8) + l7) & 255,
        (c := (c >> 8) + l8) & 255,
        (c := (c >> 8) + l9) & 255,
        (c := (c >> 8) + l10) & 255,
        (c := (c >> 8) + l11) & 255,
        (c := (c >> 8) + l12) & 255,
        (c := (c >> 8) + l13) & 255,
        (c := (c >> 8) + l14) & 255,
        (c := (c >> 8) + l15) & 255,
        (c := (c >> 8) + l16 + s0 - l0 - h0) & 255,
        (c := (c >> 8) + l17 + s1 - l1 - h1) & 255,
        (c := (c >> 8) + l18 + s2 - l2 - h2) & 255,
        (c := (c >> 8) + l19 + s3 - l3 - h3) & 255,
        (c := (c >> 8) + l20 + s4 - l4 - h4) & 255,
        (c := (c >> 8) + l21 + s5 - l5 - h5) & 255,
        (c := (c >> 8) + l22 + s6 - l6 - h6) & 255,
        (c := (c >> 8) + l23 + s7 - l7 - h7) & 255,
        (c := (c >> 8) + l24 + s8 - l8 - h8) & 255,
        (c := (c >> 8) + l25 + s9 - l9 - h9) & 255,
        (c := (c >> 8) + l26 + s10 - l10 - h10) & 255,
        (c := (c >> 8) + l27 + s11 - l11 - h11) & 255,
        (c := (c >> 8) + l28 + s12 - l12 - h12) & 255,
        (c := (c >> 8) + l29 + s13 - l13 - h13) & 255,
        (c := (c >> 8) + l30 + s14 - l14 - h14) & 255,
        (c := (c >> 8) + s15 - l15 - h15) & 255,
        (c := (c >> 8) + s16 - l16 - h16 + h0) & 255,
        (c := (c >> 8) + s17 - l17 - h17 + h1) & 255,
        (c := (c >> 8) + s18 - l18 - h18 + h2) & 255,
        (c := (c >> 8) + s19 - l19 - h19 + h3) & 255,
        (c := (c >> 8) + s20 - l20 - h20 + h4) & 255,
        (c := (c >> 8) + s21 - l21 - h21 + h5) & 255,
        (c := (c >> 8) + s22 - l22 - h22 + h6) & 255,
        (c := (c >> 8) + s23 - l23 - h23 + h7) & 255,
        (c := (c >> 8) + s24 - l24 - h24 + h8) & 255,
        (c := (c >> 8) + s25 - l25 - h25 + h9) & 255,
        (c := (c >> 8) + s26 - l26 - h26 + h10) & 255,
        (c := (c >> 8) + s27 - l27 - h27 + h11) & 255,
        (c := (c >> 8) + s28 - l28 - h28 + h12) & 255,
        (c := (c >> 8) + s29 - l29 - h29 + h13) & 255,
        (c := (c >> 8) + s30 - l30 - h30 + h14) & 255,
        (c := (c >> 8) + h15) & 255,
        (c := (c >> 8) + h16) & 255,
        (c := (c >> 8) + h17) & 255,
        (c := (c >> 8) + h18) & 255,
        (c := (c >> 8) + h19) & 255,
        (c := (c >> 8) + h20) & 255,
        (c := (c >> 8) + h21) & 255,
        (c := (c >> 8) + h22) & 255,
        (c := (c >> 8) + h23) & 255,
        (c := (c >> 8) + h24) & 255,
        (c := (c >> 8) + h25) & 255,
        (c := (c >> 8) + h26) & 255,
        (c := (c >> 8) + h27) & 255,
        (c := (c >> 8) + h28) & 255,
        (c := (c >> 8) + h29) & 255,
        (c := (c >> 8) + h30) & 255,
        c >> 8,
    ))
