"""Multi-precision kernels over packed 8-bit limbs.

A 256-bit value is 32 little-endian byte limbs (a `bytes` of length 32), a
512-bit value is 64 limbs.  The radix is deliberately 8 bits: every routine
has to do real carry and borrow propagation at byte boundaries, which is
where the interesting bugs live, and it keeps the structure in one-to-one
correspondence with unrolled 8-bit machine code.

Multiplication sums columns: every byte product a[i]*b[j] is added into
column i+j, and one carry pass then turns the 63
column sums into 64 limbs.  Squaring uses the same columns but computes each
cross product a[i]*a[j] (i < j) once and doubles it.  The paper's AVR code
uses subtractive Karatsuba instead; it saves byte multiplies, which is what
costs time on AVR, but in CPython its sub-products, absolute differences and
recombination cost more in list building and calls than the multiplies it
saves, so the flat loops are both shorter and faster here.  Reduction mod
p = 2^255 - 19 folds the high half in as 38 (2^256 ≡ 38 mod p) and the
remaining top bits as 19 (`fold19`, shared with add_mod, sub_mod and
fe25519.mul121666), and guarantees a result below 2p so one conditional
subtraction canonicalizes.

Control flow never depends on limb values: loops have fixed trip counts and
carries and borrows are arithmetic, never branches.  (CPython integers are
not physically constant-time; the discipline here is structural.)
"""

from typing import List, Sequence, Tuple

from . import faults

P = 2**255 - 19
P_LIMBS = P.to_bytes(32, "little")
# 4p = 2^257 - 76: one value of the right congruence class that is larger
# than any 256-bit input, so subtraction never goes negative.
_FOURP_LIMBS = (4 * P).to_bytes(33, "little")


def _check(x: Sequence[int], n: int, what: str) -> None:
    if len(x) != n:
        raise ValueError(f"{what} must have exactly {n} limbs, got {len(x)}")


def value(x: Sequence[int]) -> int:
    """Integer denoted by a little-endian limb sequence."""
    return int.from_bytes(bytes(x), "little")


def _carry(r: List[int]) -> bytes:
    """64 byte limbs from 63 column sums, carried once from the bottom up."""
    out = []
    push = out.append
    c = 0
    for v in r:
        c += v
        push(c & 255)
        c >>= 8
    push(c)
    return bytes(out)


def mul256(a: bytes, b: bytes) -> bytes:
    """256x256->512-bit product of packed little-endian limbs."""
    _check(a, 32, "mul256 operand")
    _check(b, 32, "mul256 operand")
    r = [0] * 63
    for i, x in enumerate(a):
        k = i
        for y in b:
            r[k] += x * y
            k += 1
    out = _carry(r)
    if faults.ACTIVE:
        out = bytes(faults.corrupt("mul256", out))
    return out


def sqr256(a: bytes) -> bytes:
    """256-bit squaring; same value as mul256(a, a), each cross product once."""
    _check(a, 32, "sqr256 operand")
    r = [0] * 63
    for i, x in enumerate(a):
        r[2 * i] += x * x
        x += x
        k = 2 * i + 1
        for y in a[i + 1:]:
            r[k] += x * y
            k += 1
    return _carry(r)


def subp(a: bytes) -> Tuple[bytes, int]:
    """(a - p) mod 2^256 together with the borrow flag (1 iff a < p)."""
    _check(a, 32, "subp operand")
    out = [0] * 32
    borrow = 0
    for i in range(32):
        t = a[i] - P_LIMBS[i] - borrow
        out[i] = t & 255
        borrow = (t >> 8) & 1
    return bytes(out), borrow


def fold19(x: List[int], top: int) -> bytes:
    """x + 2^256 * top with bits 255 and up folded back in as 19 (2^255 ≡ 19).

    x is 32 limbs and is overwritten.  The result is congruent mod p and
    below 2^255 + 19 * (2 * top + 1), which must fit in 32 limbs.
    """
    c = 19 * ((top << 1) | (x[31] >> 7))
    x[31] &= 0x7F
    for i in range(32):
        t = x[i] + c
        x[i] = t & 255
        c = t >> 8
    assert c == 0, "fold overflow"
    return bytes(x)


def red512(m: bytes) -> bytes:
    """Reduce a 512-bit value mod p into [0, 2p).

    The high 256 bits fold in as 38 (2^256 ≡ 38 mod p); the bits at 255 and
    above of that sum fold once more as 19 (2^255 ≡ 19).  The result is
    below 2^255 + 19*78, comfortably below 2p, so a single conditional
    subtraction of p canonicalizes it later.
    """
    _check(m, 64, "red512 operand")
    # t = lo + 38*hi, at most 39 * 2^256: 32 limbs and a carry below 39.
    t = [0] * 32
    c = 0
    for i in range(32):
        v = m[i] + 38 * m[32 + i] + c
        t[i] = v & 255
        c = v >> 8
    out = fold19(t, c)
    if faults.ACTIVE:
        out = bytes(faults.corrupt("red512", out))
    return out


def add_mod(a: bytes, b: bytes) -> bytes:
    """a + b with bits 255+ of the sum folded back as 19; result < 2p."""
    _check(a, 32, "add_mod operand")
    _check(b, 32, "add_mod operand")
    s = [0] * 32
    c = 0
    for i in range(32):
        t = a[i] + b[i] + c
        s[i] = t & 255
        c = t >> 8
    return fold19(s, c)


def sub_mod(a: bytes, b: bytes) -> bytes:
    """a - b computed as a + (4p - b), folded like add_mod; result < 2p.

    4p exceeds every 256-bit input, so 4p - b never borrows and the sum
    stays positive without any sign-dependent control flow.
    """
    _check(a, 32, "sub_mod operand")
    _check(b, 32, "sub_mod operand")
    d = [0] * 32
    borrow = 0
    for i in range(32):
        t = _FOURP_LIMBS[i] - b[i] - borrow
        d[i] = t & 255
        borrow = (t >> 8) & 1
    top = _FOURP_LIMBS[32] - borrow
    c = 0
    for i in range(32):
        t = d[i] + a[i] + c
        d[i] = t & 255
        c = t >> 8
    return fold19(d, top + c)
