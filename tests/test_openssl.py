"""scalarmult against the integer oracle on every small-order and
non-canonical encoding, and against an independent X25519: OpenSSL, through
`cryptography`.

`cryptography` is optional; without it only the oracle comparisons run.
OpenSSL refuses to return an all-zero shared secret (RFC 7748 section 6.1)
and raises ValueError instead, which is compared here as 32 zero bytes.
"""

import random

import pytest

from packed25519 import oracle
from packed25519.ladder import scalarmult

try:
    from cryptography.hazmat.primitives.asymmetric import x25519
except ImportError:
    x25519 = None

P = oracle.P

# Every u whose point has order dividing 8, on the curve or its twist: 0
# (order 2), 1 (order 4, curve), p - 1 (order 4, twist) and the two
# order-8 x-coordinates of the curve.
SMALL_ORDER_U = [
    0,
    1,
    P - 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
]
# Every u in [p, 2^255): the non-canonical encodings of 0 to 18, which RFC
# 7748 reduces mod p.
NON_CANONICAL_U = list(range(P, 2**255))


def le(v):
    return v.to_bytes(32, "little")


def openssl(s, u):
    key = x25519.X25519PrivateKey.from_private_bytes(s)
    peer = x25519.X25519PublicKey.from_public_bytes(u)
    try:
        return key.exchange(peer)
    except ValueError:  # an all-zero result
        return bytes(32)


@pytest.mark.parametrize("u", SMALL_ORDER_U)
def test_small_order_u_reaches_infinity_after_8(u):
    assert oracle.affine(oracle.scale(8, u)) is None


def test_scalarmult_agrees_with_openssl():
    if x25519 is None:
        pytest.skip("cryptography is not installed")
    rng = random.Random(7748)
    for s, u in [(rng.randbytes(32), rng.randbytes(32)) for _ in range(12)]:
        assert scalarmult(s, u) == openssl(s, u), (s.hex(), u.hex())


def test_every_small_order_and_non_canonical_encoding():
    """All 48: each u above, with bit 255 clear and set."""
    rng = random.Random(25519)
    for u in [u + top for u in NON_CANONICAL_U + SMALL_ORDER_U for top in (0, 2**255)]:
        s = rng.randbytes(32)
        got = scalarmult(s, le(u))
        assert got == le(oracle.x25519(int.from_bytes(s, "little"), u)), (s.hex(), hex(u))
        if u % 2**255 % P in SMALL_ORDER_U:
            assert got == bytes(32)
        if x25519 is not None:
            assert got == openssl(s, le(u)), (s.hex(), hex(u))
