import pytest

from packed25519.fe25519 import setone, setzero, unpack


def val(b):
    return int.from_bytes(b, "little")


def test_setzero_setone():
    assert val(setzero()) == 0
    assert val(setone()) == 1
    assert len(setzero()) == len(setone()) == 32


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        unpack(b"\x00" * 31)
