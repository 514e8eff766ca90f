"""Reference x-coordinate scalar multiplication over unbounded integers.

This module is the ground truth for differential testing of the packed-limb
implementation: projective x-coordinate ratios, Montgomery's doubling and
differential-addition formulas for Curve25519, and the recursive
double-and-add ladder, all written against plain Python integers so that
every step is independent of the limb-level code under test.

Deliberately variable-time.  Never use it for real key material.
"""

from typing import NamedTuple, Optional, Tuple

# The field prime 2^255 - 19.  Its primality is an assumption of everything
# here (it makes `affine` a true inverse via Fermat), and
# tests/test_oracle.py::test_prime_is_prime checks it where sympy is installed.
P = 2**255 - 19

# Curve coefficients of B*y^2 = x^3 + A*x^2 + x.  B never appears in x-only
# formulas; it is kept for documentation.  The ladder constant 121666
# satisfies A = 4*121666 - 2.
A = 486662
B = 1


class Ratio(NamedTuple):
    """Projective x-coordinate X:Z, denoting X * Z^-1 mod P when Z != 0.

    Z == 0 with X != 0 is the point at infinity.  (0, 0) is degenerate: it
    compares `equiv` to everything, and the x-only formulas collapse to it
    when fed the exceptional orbit of x = 0 (the order-2 point).  The
    scalar-multiplication contract maps both cases to output 0.
    """

    x: int
    z: int


INFTY = Ratio(1, 0)


def congruent(a: int, b: int) -> bool:
    """a == b in the field, i.e. modulo P."""
    return (a - b) % P == 0


def equiv(r: Ratio, q: Ratio) -> bool:
    """Projective equality of two ratios by cross-multiplication mod P."""
    return congruent(r.x * q.z, q.x * r.z)


def double(n: Ratio) -> Ratio:
    """x(2N) from x(N): Montgomery's doubling formula, raw integers.

    X' = (X^2 - Z^2)^2
    Z' = 4XZ * (X^2 + A*XZ + Z^2)
    """
    xx = n.x * n.x
    zz = n.z * n.z
    xz = n.x * n.z
    return Ratio((xx - zz) ** 2, 4 * xz * (xx + A * xz + zz))


def add(m: Ratio, n: Ratio, mn: Ratio) -> Ratio:
    """x(M+N) from x(M), x(N) and the difference x(M-N), raw integers.

    X' = 4 * Z(M-N) * (X_M * X_N - Z_M * Z_N)^2
    Z' = 4 * X(M-N) * (X_M * Z_N - Z_M * X_N)^2
    """
    return Ratio(
        4 * mn.z * (m.x * n.x - m.z * n.z) ** 2,
        4 * mn.x * (m.x * n.z - m.z * n.x) ** 2,
    )


def _reduced(r: Ratio) -> Ratio:
    return Ratio(r.x % P, r.z % P)


def ladder(n: int, p: Ratio) -> Tuple[Ratio, Ratio]:
    """Recursive Montgomery ladder: ratios for (n*P, (n+1)*P).

    ladder(0)      = (infinity, P)
    ladder(2k), k>0 = (double(r0), add(r1, r0, P))   where r0, r1 = ladder(k)
    ladder(2k+1)   = (add(r1, r0, P), double(r1))    where r0, r1 = ladder(k)

    Components are reduced mod P after every formula application so the
    integers stay bounded; reduction preserves every `equiv` judgment.
    """
    if n < 0:
        raise ValueError("ladder index must be a natural number")
    if n == 0:
        return INFTY, p
    r0, r1 = ladder(n // 2, p)
    if n % 2 == 0:
        return _reduced(double(r0)), _reduced(add(r1, r0, p))
    return _reduced(add(r1, r0, p)), _reduced(double(r1))


def scale(n: int, m: int) -> Ratio:
    """Ratio for the x-coordinate of n times the point with affine x = m."""
    return ladder(n, Ratio(m, 1))[0]


def affine(r: Ratio) -> Optional[int]:
    """Affine x-coordinate of r, or None for the point at infinity.

    The inverse is Z^(P-2) mod P; for Z ≡ 0 (which includes the degenerate
    (0, 0)) there is no affine coordinate and None is returned.
    """
    if r.z % P == 0:
        return None
    return r.x * pow(r.z, P - 2, P) % P


def x25519(s: int, u: int) -> int:
    """RFC 7748's X25519 on integers: the affine x of clamp(s) times the
    point with x = u mod 2^255, and 0 for the point at infinity."""
    n = s % 2**254 + 2**254 - s % 8
    x = affine(scale(n, u % 2**255))
    return 0 if x is None else x
