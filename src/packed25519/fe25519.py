"""Field arithmetic mod 2^255 - 19 on packed 32-limb elements.

A field element is a tuple of 32 little-endian byte limbs, the kernels'
own container: bytes appear only in unpack's argument and pack's result.
Elements are kept only *partially* reduced — every operation returns a
representative below 2p — and are canonicalized exactly once, before pack,
by `freeze`.  Because the representative bound is 2p, freeze needs a
single conditional subtraction of p: one subp plus one selection, no loop.

Selection (`cmov`) is a*(1 - c) + b*c; nothing branches on data or asserts.
"""

# add, sub, mul121666 and cmov are the mp_arith kernels themselves, with no
# wrapper frame.
from .mp_arith import cmov, mul121666, mul256, red512, sqr256, subp
from .mp_arith import add_mod as add, sub_mod as sub

FieldElem = tuple

_ZERO = (0,) * 32
_ONE = (1,) + (0,) * 31


def setzero() -> FieldElem:
    return _ZERO


def setone() -> FieldElem:
    return _ONE


def mul(a: FieldElem, b: FieldElem) -> FieldElem:
    return red512(mul256(a, b))


def square(a: FieldElem) -> FieldElem:
    return red512(sqr256(a))


def freeze(a: FieldElem) -> FieldElem:
    """Canonical representative in [0, p) of an element below 2p.

    Exactly one trial subtraction of p suffices because every arithmetic
    routine here keeps its result below 2p; cmov keeps the original when
    the subtraction borrowed (a < p).
    """
    d, borrow = subp(a)
    return cmov(d, a, borrow)


def unpack(raw: bytes) -> FieldElem:
    """Field element from a 32-byte string, ignoring the top bit.

    Values in [p, 2^255) are accepted as the non-canonical residues they
    denote, per RFC 7748's decoding rule.
    """
    if len(raw) != 32:
        raise ValueError(f"unpack expects 32 bytes, got {len(raw)}")
    return tuple(raw[:31]) + (raw[31] & 0x7F,)


def pack(a: FieldElem) -> bytes:
    """32-byte string of a canonical element; callers freeze first.  bytes()
    checks all 32 limbs; for a >= p subp's borrow is 0, the top limb gains
    256 and bytes() raises."""
    return bytes(a[:31] + (a[31] + 256 * (1 - subp(a)[1]),))


def invert(a: FieldElem) -> FieldElem:
    """a^(p-2), i.e. the multiplicative inverse for a ≢ 0, and 0 for a ≡ 0.

    Fixed square-and-multiply chain for the public exponent
    2^255 - 21: 254 squarings and 11 multiplications.
    """
    z2 = square(a)                       # 2
    t = square(square(z2))               # 8
    z9 = mul(t, a)                       # 9
    z11 = mul(z9, z2)                    # 11
    z2_5_0 = mul(square(z11), z9)        # 2^5 - 1
    z2_10_0 = mul(_nsquare(z2_5_0, 5), z2_5_0)       # 2^10 - 1
    z2_20_0 = mul(_nsquare(z2_10_0, 10), z2_10_0)    # 2^20 - 1
    z2_40_0 = mul(_nsquare(z2_20_0, 20), z2_20_0)    # 2^40 - 1
    z2_50_0 = mul(_nsquare(z2_40_0, 10), z2_10_0)    # 2^50 - 1
    z2_100_0 = mul(_nsquare(z2_50_0, 50), z2_50_0)   # 2^100 - 1
    z2_200_0 = mul(_nsquare(z2_100_0, 100), z2_100_0)  # 2^200 - 1
    z2_250_0 = mul(_nsquare(z2_200_0, 50), z2_50_0)  # 2^250 - 1
    return mul(_nsquare(z2_250_0, 5), z11)           # 2^255 - 21


def _nsquare(a: FieldElem, n: int) -> FieldElem:
    for _ in range(n):
        a = square(a)
    return a
