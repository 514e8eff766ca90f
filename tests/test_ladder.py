import subprocess
import sys

import pytest

from packed25519 import oracle
from packed25519.ladder import BASE_POINT_U, clamp, mladder, scalarmult

P = oracle.P


def le(v):
    return v.to_bytes(32, "little")


def val(b):
    return int.from_bytes(b, "little")


# ----------------------------------------------------------------- clamp

def test_clamp_rejects_wrong_length():
    with pytest.raises(ValueError):
        clamp(b"\x00" * 16)


# ---------------------------------------------------------------- mladder

def test_mladder_requires_bit_254():
    with pytest.raises(ValueError):
        mladder(12345, le(9))
    with pytest.raises(ValueError):
        mladder(2**255, le(9))


def test_mladder_requires_bit_254_under_O():
    code = ("from packed25519.ladder import mladder\n"
            "try:\n    mladder(5, bytes(32))\n"
            "except ValueError:\n    print('rejected')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"


def test_scalarmult_takes_only_bytes():
    s = bytes(range(32))
    want = scalarmult(s, BASE_POINT_U)
    assert scalarmult(bytearray(s), bytearray(BASE_POINT_U)) == want
    for bad in ((list(s), BASE_POINT_U), (s, list(BASE_POINT_U)), (s.hex(), BASE_POINT_U)):
        with pytest.raises(TypeError):
            scalarmult(*bad)


def test_scalarmult_takes_only_bytes_under_O():
    code = ("from packed25519.ladder import BASE_POINT_U, scalarmult\n"
            "try:\n    scalarmult(list(range(32)), BASE_POINT_U)\n"
            "except TypeError:\n    print('rejected')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"


def test_mladder_odd_scalar_lands_on_the_wrong_slot():
    """Regression: without the final swap that evenness makes unnecessary,
    an odd scalar returns x((n+1)P) instead of x(nP)."""
    for n in (2**254 + 1, 2**254 + 12345, 2**254 + 2**123 + 77):
        X, Z = mladder(n, le(9))
        got = oracle.Ratio(val(X) % P, val(Z) % P)
        want_n, want_n1 = oracle.ladder(n, oracle.Ratio(9, 1))
        assert not oracle.equiv(got, want_n)
        assert got == want_n1


# ------------------------------------------------------------- scalarmult

class TestRfc7748:
    def test_diffie_hellman_example(self):
        a_priv = bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
        b_priv = bytes.fromhex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
        a_pub = scalarmult(a_priv, BASE_POINT_U)
        b_pub = scalarmult(b_priv, BASE_POINT_U)
        assert a_pub.hex() == \
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        assert b_pub.hex() == \
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        shared = scalarmult(a_priv, b_pub)
        assert shared == scalarmult(b_priv, a_pub)
        assert shared.hex() == \
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"


def test_scalarmult_base_point_constant():
    assert val(BASE_POINT_U) == 9
    assert BASE_POINT_U.hex() == "09" + "00" * 31


def test_scalarmult_accepts_non_canonical_u():
    # u in [p, 2^255) denotes u - p
    s = le(0xABCDEF)
    assert scalarmult(s, le(P + 3)) == scalarmult(s, le(3))


def test_scalarmult_zero_u_gives_zero():
    # x = 0 is the order-2 orbit; the ladder collapses and the pipeline
    # normalizes it to all-zero output
    for s in (le(0), le(1), le(2**256 - 1)):
        assert scalarmult(s, le(0)) == le(0)
        assert scalarmult(s, le(P)) == le(0)
