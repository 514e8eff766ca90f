"""Montgomery ladder and the X25519 scalar-multiplication pipeline.

The ladder works on projective x-coordinate pairs (X : Z) of packed field
elements and never materializes y.  Scalar bits drive only masked swaps
(`cswap`); every run executes the identical fixed sequence of 255 ladder
steps over bits 254..0.

Scalars are clamped before laddering: a multiple of 8 with bit 254 set and
bit 255 clear.  Evenness means no un-swap is needed after the last
iteration, and the fixed top bit means the very first step never doubles
the point at infinity.
"""

from typing import Tuple

from . import fe25519
from .fe25519 import FieldElem, add, cmov, freeze, invert, mul, mul121666, pack, square, sub, unpack

Ratio = Tuple[FieldElem, FieldElem]

# Affine x = 9, the standard base point, as a 32-byte string.
BASE_POINT_U = (9).to_bytes(32, "little")


def clamp(s: bytes) -> int:
    """Clamped scalar: (s mod 2^254) + 2^254 - (s mod 8).

    Equivalently: clear bits 0..2 and 255, set bit 254.  The image is
    exactly {2^254 + 8k : 0 <= k < 2^251}.
    """
    if len(s) != 32:
        raise ValueError(f"scalar must be 32 bytes, got {len(s)}")
    x = int.from_bytes(s, "little")
    return x % 2**254 + 2**254 - x % 8


def cswap(r0: Ratio, r1: Ratio, swap: int) -> Tuple[Ratio, Ratio]:
    """Swap both ratios when swap = 1, via masked moves only."""
    x0, z0 = r0
    x1, z1 = r1
    return (
        (cmov(x0, x1, swap), cmov(z0, z1, swap)),
        (cmov(x1, x0, swap), cmov(z1, z0, swap)),
    )


def ladderstep(xp: FieldElem, r0: Ratio, r1: Ratio) -> Tuple[Ratio, Ratio]:
    """One x-only ladder iteration: (r0, r1) -> (2*r0, r0 + r1).

    The fixed 18-operation sequence (4 add, 4 sub, 5 mul, 4 square, one
    multiply by 121666); xp is the x-coordinate of the difference r1 - r0,
    which stays invariant across the whole ladder.
    """
    x1, z1 = r0
    x2, z2 = r1
    t1 = add(x2, z2)
    x2 = sub(x2, z2)
    z2 = add(x1, z1)
    x1 = sub(x1, z1)
    t1 = mul(t1, x1)
    x2 = mul(x2, z2)
    z2 = square(z2)
    x1 = square(x1)
    t2 = sub(z2, x1)
    z1 = mul121666(t2)
    z1 = add(z1, x1)
    z1 = mul(t2, z1)
    x1 = mul(z2, x1)
    z2 = sub(t1, x2)
    z2 = square(z2)
    z2 = mul(z2, xp)
    x2 = add(t1, x2)
    x2 = square(x2)
    return (x1, z1), (x2, z2)


def mladder(n: int, xp: FieldElem) -> Ratio:
    """Ratio for x(n * P) where P has x-coordinate xp, for clamped n.

    Iterates bits 254..0 (the first byte round starts at bit 6, all later
    rounds at bit 7, for 255 steps total).  Instead of swapping back after
    every step, each iteration swaps by bit XOR previous-bit; since clamped
    scalars are even, no final un-swap is needed.

    Callers must clamp first: n even, bit 254 set, bit 255 clear.  An odd n
    is not rejected but leaves the registers un-swapped, so the returned
    ratio is x((n+1)P) rather than x(nP) — the regression tests pin this
    down.  Bit 254 is checked because it fixes the iteration count and
    keeps the first step from doubling the point at infinity.
    """
    if n >> 254 != 1:
        raise ValueError("mladder requires bit 254 set and bit 255 clear")
    r0: Ratio = (fe25519.setone(), fe25519.setzero())
    r1: Ratio = (xp, fe25519.setone())
    prev = 0
    j = 6
    for i in range(31, -1, -1):
        while j >= 0:
            bit = (n >> (8 * i + j)) & 1
            swap = bit ^ prev
            prev = bit
            r0, r1 = cswap(r0, r1, swap)
            r0, r1 = ladderstep(xp, r0, r1)
            j -= 1
        j = 7
    return r0


def scalarmult(s: bytes, u: bytes) -> bytes:
    """X25519: clamp s, decode u (top bit masked), ladder, normalize.

    The output is the canonical 32-byte encoding of x(n * P); inputs whose
    ladder result is the point at infinity (or the degenerate x = 0 orbit)
    come out as all zeros, because invert maps 0 to 0.  s and u must be
    bytes or bytearray; anything else raises TypeError.
    """
    if not isinstance(s, (bytes, bytearray)) or not isinstance(u, (bytes, bytearray)):
        raise TypeError(f"scalarmult takes bytes or bytearray, got "
                        f"{type(s).__name__} and {type(u).__name__}")
    xp = unpack(u)
    n = clamp(s)
    x, z = mladder(n, xp)
    return pack(freeze(mul(x, invert(z))))


def iterate(count: int) -> bytes:
    """Repeated self-application from the base point: k, u = X25519(k, u), k.

    Starts with k = u = 9; the value of k after `count` rounds is the
    chain's running output.
    """
    if count < 0:
        raise ValueError("iteration count must be non-negative")
    k = u = BASE_POINT_U
    for _ in range(count):
        k, u = scalarmult(k, u), k
    return k
