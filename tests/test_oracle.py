"""The integer reference must stand on its own feet before it can judge
the limb implementation, so it gets checked against hand-computed values,
its own defining recursion, and the public RFC 7748 vectors."""

import pytest

from packed25519 import oracle
from packed25519.oracle import INFTY, Ratio, add, affine, double, equiv, ladder, scale

P = oracle.P


def test_constants():
    assert P == 2**255 - 19
    assert oracle.A == 486662
    assert oracle.B == 1


def test_prime_is_prime():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(P)


def test_congruent():
    assert oracle.congruent(P, 0)
    assert oracle.congruent(-1, P - 1)
    assert not oracle.congruent(1, 2)


def test_equiv_is_cross_multiplication():
    assert equiv(Ratio(9, 1), Ratio(18, 2))
    assert equiv(Ratio(9, 1), Ratio(9 * 12345 % P, 12345))
    assert not equiv(Ratio(9, 1), Ratio(10, 1))
    assert equiv(INFTY, Ratio(5, 0))
    assert not equiv(INFTY, Ratio(5, 1))


def test_degenerate_zero_ratio_compares_equal_to_everything():
    # (0, 0) is why equivalence here is not transitive; callers must treat
    # it as "no information"
    assert equiv(Ratio(0, 0), INFTY)
    assert equiv(Ratio(0, 0), Ratio(9, 1))


def test_double_worked_example():
    assert double(Ratio(9, 1)) == Ratio(6400, 157681440)
    # 157681440 = 4*9*(81 + 486662*9 + 1)
    assert 157681440 == 4 * 9 * (81 + 486662 * 9 + 1)


def test_double_infinity_stays_infinity():
    assert double(INFTY) == Ratio(1, 0)


def test_add_worked_example():
    assert add(Ratio(9, 1), INFTY, Ratio(9, 1)) == Ratio(324, 36)
    assert equiv(Ratio(9, 1), Ratio(324, 36))


def test_ladder_base_cases():
    p = Ratio(9, 1)
    assert ladder(0, p) == (INFTY, p)
    assert ladder(1, p) == (Ratio(324, 36), Ratio(6400, 157681440))


def test_ladder_rejects_negative():
    with pytest.raises(ValueError):
        ladder(-1, Ratio(9, 1))


def test_ladder_satisfies_its_recursion():
    p = Ratio(9, 1)
    for n in range(1, 65):
        r0, r1 = ladder(n, p)
        half0, half1 = ladder(n // 2, p)
        if n % 2 == 0:
            want0, want1 = double(half0), add(half1, half0, p)
        else:
            want0, want1 = add(half1, half0, p), double(half1)
        assert r0 == Ratio(want0.x % P, want0.z % P)
        assert r1 == Ratio(want1.x % P, want1.z % P)


def test_ladder_pair_coupling():
    # the second component of ladder(n) denotes (n+1)P
    p = Ratio(9, 1)
    for n in range(0, 40):
        assert equiv(ladder(n, p)[1], ladder(n + 1, p)[0])


def test_affine():
    assert affine(INFTY) is None
    assert affine(Ratio(0, 0)) is None
    assert affine(Ratio(18, 2)) == 9
    assert affine(Ratio(9, 1 + P)) == 9
    k = 0x1234567890ABCDEF
    assert affine(Ratio(9 * k % P, k)) == 9


def test_scale_small_orders():
    assert equiv(Ratio(scale(1, 9).x, scale(1, 9).z), Ratio(9, 1))
    assert affine(scale(1, 9)) == 9
    assert affine(scale(2, 9)) == affine(double(Ratio(9, 1)))


def test_scale_is_additive_on_x():
    # x((a+b)P) from the difference-aware formulas: check that doubling a
    # scaled point matches scaling by twice the factor
    for n in (3, 7, 12, 100, 2**20 + 5):
        d = double(scale(n, 9))
        assert equiv(Ratio(d.x % P, d.z % P), scale(2 * n, 9))


class TestKnownVectors:
    """The oracle reproduces RFC 7748's X25519 outputs on its own."""

    def test_rfc7748_diffie_hellman_public_keys(self):
        for secret, public in (
                ("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
                 "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"),
                ("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
                 "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")):
            s = int.from_bytes(bytes.fromhex(secret), "little")
            assert oracle.x25519(s, 9).to_bytes(32, "little").hex() == public
