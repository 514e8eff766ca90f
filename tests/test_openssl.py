"""scalarmult against an independent X25519: OpenSSL, through `cryptography`.

The module is optional; the test is skipped when it is absent.  OpenSSL
refuses to return an all-zero shared secret (RFC 7748 section 6.1) and
raises ValueError instead, which is compared here as 32 zero bytes.
"""

import random

import pytest

from packed25519 import oracle
from packed25519.ladder import scalarmult

x25519 = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x25519")

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
# Non-canonical encodings of 1, 9 and 18, which RFC 7748 reduces mod p.
NON_CANONICAL_U = [P + 1, P + 9, 2**255 - 1]


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
    rng = random.Random(7748)
    cases = [(rng.randbytes(32), rng.randbytes(32)) for _ in range(12)]
    cases += [(rng.randbytes(32), le(u)) for u in NON_CANONICAL_U + SMALL_ORDER_U]
    for s, u in cases:
        assert scalarmult(s, u) == openssl(s, u), (s.hex(), u.hex())
    for s, u in cases[-len(SMALL_ORDER_U):]:
        assert scalarmult(s, u) == bytes(32)
