"""Straight-line squaring kernel; sqr256 is mp_arith.sqr256 itself.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

sqr256 is mul256's one-level Karatsuba with the three 16-limb square blocks
written inline: l of the low half and h of the high half as locals, the
middle block of the half sums t inside the carry display.  Each cross
product a[i]*a[j] (i < j) is written once, as a[i]*da[j] against the doubled
limb da[j] = a[j] + a[j] (and t[i]*dt[j] in the middle block), so no column
is multiplied by 2.  It lives apart from mul256 because the parser's
transient peak is per module.
"""


def sqr256(a):
    """256-bit squaring; same value as mul256(a, a), each cross product once."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31 = a
    t0 = a0 + a16
    t1 = a1 + a17
    t2 = a2 + a18
    t3 = a3 + a19
    t4 = a4 + a20
    t5 = a5 + a21
    t6 = a6 + a22
    t7 = a7 + a23
    t8 = a8 + a24
    t9 = a9 + a25
    t10 = a10 + a26
    t11 = a11 + a27
    t12 = a12 + a28
    t13 = a13 + a29
    t14 = a14 + a30
    t15 = a15 + a31
    da1 = a1 + a1
    da2 = a2 + a2
    da3 = a3 + a3
    da4 = a4 + a4
    da5 = a5 + a5
    da6 = a6 + a6
    da7 = a7 + a7
    da8 = a8 + a8
    da9 = a9 + a9
    da10 = a10 + a10
    da11 = a11 + a11
    da12 = a12 + a12
    da13 = a13 + a13
    da14 = a14 + a14
    da15 = a15 + a15
    da17 = a17 + a17
    da18 = a18 + a18
    da19 = a19 + a19
    da20 = a20 + a20
    da21 = a21 + a21
    da22 = a22 + a22
    da23 = a23 + a23
    da24 = a24 + a24
    da25 = a25 + a25
    da26 = a26 + a26
    da27 = a27 + a27
    da28 = a28 + a28
    da29 = a29 + a29
    da30 = a30 + a30
    da31 = a31 + a31
    dt1 = t1 + t1
    dt2 = t2 + t2
    dt3 = t3 + t3
    dt4 = t4 + t4
    dt5 = t5 + t5
    dt6 = t6 + t6
    dt7 = t7 + t7
    dt8 = t8 + t8
    dt9 = t9 + t9
    dt10 = t10 + t10
    dt11 = t11 + t11
    dt12 = t12 + t12
    dt13 = t13 + t13
    dt14 = t14 + t14
    dt15 = t15 + t15
    l0 = a0*a0
    l1 = a0*da1
    l2 = a0*da2 + a1*a1
    l3 = a0*da3 + a1*da2
    l4 = a0*da4 + a1*da3 + a2*a2
    l5 = a0*da5 + a1*da4 + a2*da3
    l6 = a0*da6 + a1*da5 + a2*da4 + a3*a3
    l7 = a0*da7 + a1*da6 + a2*da5 + a3*da4
    l8 = a0*da8 + a1*da7 + a2*da6 + a3*da5 + a4*a4
    l9 = a0*da9 + a1*da8 + a2*da7 + a3*da6 + a4*da5
    l10 = a0*da10 + a1*da9 + a2*da8 + a3*da7 + a4*da6 + a5*a5
    l11 = a0*da11 + a1*da10 + a2*da9 + a3*da8 + a4*da7 + a5*da6
    l12 = a0*da12 + a1*da11 + a2*da10 + a3*da9 + a4*da8 + a5*da7 + a6*a6
    l13 = a0*da13 + a1*da12 + a2*da11 + a3*da10 + a4*da9 + a5*da8 + a6*da7
    l14 = a0*da14 + a1*da13 + a2*da12 + a3*da11 + a4*da10 + a5*da9 + a6*da8 + a7*a7
    l15 = a0*da15 + a1*da14 + a2*da13 + a3*da12 + a4*da11 + a5*da10 + a6*da9 + a7*da8
    l16 = a1*da15 + a2*da14 + a3*da13 + a4*da12 + a5*da11 + a6*da10 + a7*da9 + a8*a8
    l17 = a2*da15 + a3*da14 + a4*da13 + a5*da12 + a6*da11 + a7*da10 + a8*da9
    l18 = a3*da15 + a4*da14 + a5*da13 + a6*da12 + a7*da11 + a8*da10 + a9*a9
    l19 = a4*da15 + a5*da14 + a6*da13 + a7*da12 + a8*da11 + a9*da10
    l20 = a5*da15 + a6*da14 + a7*da13 + a8*da12 + a9*da11 + a10*a10
    l21 = a6*da15 + a7*da14 + a8*da13 + a9*da12 + a10*da11
    l22 = a7*da15 + a8*da14 + a9*da13 + a10*da12 + a11*a11
    l23 = a8*da15 + a9*da14 + a10*da13 + a11*da12
    l24 = a9*da15 + a10*da14 + a11*da13 + a12*a12
    l25 = a10*da15 + a11*da14 + a12*da13
    l26 = a11*da15 + a12*da14 + a13*a13
    l27 = a12*da15 + a13*da14
    l28 = a13*da15 + a14*a14
    l29 = a14*da15
    l30 = a15*a15
    h0 = a16*a16
    h1 = a16*da17
    h2 = a16*da18 + a17*a17
    h3 = a16*da19 + a17*da18
    h4 = a16*da20 + a17*da19 + a18*a18
    h5 = a16*da21 + a17*da20 + a18*da19
    h6 = a16*da22 + a17*da21 + a18*da20 + a19*a19
    h7 = a16*da23 + a17*da22 + a18*da21 + a19*da20
    h8 = a16*da24 + a17*da23 + a18*da22 + a19*da21 + a20*a20
    h9 = a16*da25 + a17*da24 + a18*da23 + a19*da22 + a20*da21
    h10 = a16*da26 + a17*da25 + a18*da24 + a19*da23 + a20*da22 + a21*a21
    h11 = a16*da27 + a17*da26 + a18*da25 + a19*da24 + a20*da23 + a21*da22
    h12 = a16*da28 + a17*da27 + a18*da26 + a19*da25 + a20*da24 + a21*da23 + a22*a22
    h13 = a16*da29 + a17*da28 + a18*da27 + a19*da26 + a20*da25 + a21*da24 + a22*da23
    h14 = a16*da30 + a17*da29 + a18*da28 + a19*da27 + a20*da26 + a21*da25 + a22*da24 + a23*a23
    h15 = a16*da31 + a17*da30 + a18*da29 + a19*da28 + a20*da27 + a21*da26 + a22*da25 + a23*da24
    h16 = a17*da31 + a18*da30 + a19*da29 + a20*da28 + a21*da27 + a22*da26 + a23*da25 + a24*a24
    h17 = a18*da31 + a19*da30 + a20*da29 + a21*da28 + a22*da27 + a23*da26 + a24*da25
    h18 = a19*da31 + a20*da30 + a21*da29 + a22*da28 + a23*da27 + a24*da26 + a25*a25
    h19 = a20*da31 + a21*da30 + a22*da29 + a23*da28 + a24*da27 + a25*da26
    h20 = a21*da31 + a22*da30 + a23*da29 + a24*da28 + a25*da27 + a26*a26
    h21 = a22*da31 + a23*da30 + a24*da29 + a25*da28 + a26*da27
    h22 = a23*da31 + a24*da30 + a25*da29 + a26*da28 + a27*a27
    h23 = a24*da31 + a25*da30 + a26*da29 + a27*da28
    h24 = a25*da31 + a26*da30 + a27*da29 + a28*a28
    h25 = a26*da31 + a27*da30 + a28*da29
    h26 = a27*da31 + a28*da30 + a29*a29
    h27 = a28*da31 + a29*da30
    h28 = a29*da31 + a30*a30
    h29 = a30*da31
    h30 = a31*a31
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
        (c := (c >> 8) + l16 + t0*t0 - l0 - h0) & 255,
        (c := (c >> 8) + l17 + t0*dt1 - l1 - h1) & 255,
        (c := (c >> 8) + l18 + t0*dt2 + t1*t1 - l2 - h2) & 255,
        (c := (c >> 8) + l19 + t0*dt3 + t1*dt2 - l3 - h3) & 255,
        (c := (c >> 8) + l20 + t0*dt4 + t1*dt3 + t2*t2 - l4 - h4) & 255,
        (c := (c >> 8) + l21 + t0*dt5 + t1*dt4 + t2*dt3 - l5 - h5) & 255,
        (c := (c >> 8) + l22 + t0*dt6 + t1*dt5 + t2*dt4 + t3*t3 - l6 - h6) & 255,
        (c := (c >> 8) + l23 + t0*dt7 + t1*dt6 + t2*dt5 + t3*dt4 - l7 - h7) & 255,
        (c := (c >> 8) + l24 + t0*dt8 + t1*dt7 + t2*dt6 + t3*dt5 + t4*t4 - l8 - h8) & 255,
        (c := (c >> 8) + l25 + t0*dt9 + t1*dt8 + t2*dt7 + t3*dt6 + t4*dt5 - l9 - h9) & 255,
        (c := (c >> 8) + l26 + t0*dt10 + t1*dt9 + t2*dt8 + t3*dt7 + t4*dt6 + t5*t5 - l10 - h10) & 255,
        (c := (c >> 8) + l27 + t0*dt11 + t1*dt10 + t2*dt9 + t3*dt8 + t4*dt7 + t5*dt6 - l11 - h11) & 255,
        (c := (c >> 8) + l28 + t0*dt12 + t1*dt11 + t2*dt10 + t3*dt9 + t4*dt8 + t5*dt7 + t6*t6 - l12 - h12) & 255,
        (c := (c >> 8) + l29 + t0*dt13 + t1*dt12 + t2*dt11 + t3*dt10 + t4*dt9 + t5*dt8 + t6*dt7 - l13 - h13) & 255,
        (c := (c >> 8) + l30 + t0*dt14 + t1*dt13 + t2*dt12 + t3*dt11 + t4*dt10 + t5*dt9 + t6*dt8 + t7*t7 - l14 - h14) & 255,
        (c := (c >> 8) + t0*dt15 + t1*dt14 + t2*dt13 + t3*dt12 + t4*dt11 + t5*dt10 + t6*dt9 + t7*dt8 - l15 - h15) & 255,
        (c := (c >> 8) + t1*dt15 + t2*dt14 + t3*dt13 + t4*dt12 + t5*dt11 + t6*dt10 + t7*dt9 + t8*t8 - l16 - h16 + h0) & 255,
        (c := (c >> 8) + t2*dt15 + t3*dt14 + t4*dt13 + t5*dt12 + t6*dt11 + t7*dt10 + t8*dt9 - l17 - h17 + h1) & 255,
        (c := (c >> 8) + t3*dt15 + t4*dt14 + t5*dt13 + t6*dt12 + t7*dt11 + t8*dt10 + t9*t9 - l18 - h18 + h2) & 255,
        (c := (c >> 8) + t4*dt15 + t5*dt14 + t6*dt13 + t7*dt12 + t8*dt11 + t9*dt10 - l19 - h19 + h3) & 255,
        (c := (c >> 8) + t5*dt15 + t6*dt14 + t7*dt13 + t8*dt12 + t9*dt11 + t10*t10 - l20 - h20 + h4) & 255,
        (c := (c >> 8) + t6*dt15 + t7*dt14 + t8*dt13 + t9*dt12 + t10*dt11 - l21 - h21 + h5) & 255,
        (c := (c >> 8) + t7*dt15 + t8*dt14 + t9*dt13 + t10*dt12 + t11*t11 - l22 - h22 + h6) & 255,
        (c := (c >> 8) + t8*dt15 + t9*dt14 + t10*dt13 + t11*dt12 - l23 - h23 + h7) & 255,
        (c := (c >> 8) + t9*dt15 + t10*dt14 + t11*dt13 + t12*t12 - l24 - h24 + h8) & 255,
        (c := (c >> 8) + t10*dt15 + t11*dt14 + t12*dt13 - l25 - h25 + h9) & 255,
        (c := (c >> 8) + t11*dt15 + t12*dt14 + t13*t13 - l26 - h26 + h10) & 255,
        (c := (c >> 8) + t12*dt15 + t13*dt14 - l27 - h27 + h11) & 255,
        (c := (c >> 8) + t13*dt15 + t14*t14 - l28 - h28 + h12) & 255,
        (c := (c >> 8) + t14*dt15 - l29 - h29 + h13) & 255,
        (c := (c >> 8) + t15*t15 - l30 - h30 + h14) & 255,
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
