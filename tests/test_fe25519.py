import pytest

from packed25519.fe25519 import pack, setone, setzero, unpack
from packed25519.oracle import P


def le(v):
    return v.to_bytes(32, "little")


def val(b):
    return int.from_bytes(b, "little")


def test_setzero_setone():
    assert val(setzero()) == 0
    assert val(setone()) == 1
    assert len(setzero()) == len(setone()) == 32


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        unpack(b"\x00" * 31)


def test_pack_requires_canonical():
    assert pack(le(P - 1)) == le(P - 1)
    with pytest.raises(AssertionError):
        pack(le(P))
