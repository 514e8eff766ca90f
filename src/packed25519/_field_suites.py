"""The differential checks below the ladder, and the edge-value corpus:

  mp          mul256/sqr256/subp/add_mod/sub_mod vs. big integers
  fe          mul/square/mul121666 congruences and ranges, freeze/cmov/pack/unpack/invert
  findings    red512 lands below 2p and one conditional subtraction freezes

Each suite is `<name>_edges(t)` and `<name>_trial(t, st, k)`, and every check
goes to `t.check`; `difftest` holds the engine that runs them and the ladder
layer's checks, and sets `t.at`, the tag a message starts with.  Unary checks
run once per edge value, and pair checks on every pair.
"""

from typing import Sequence

from . import fe25519, mp_arith, oracle

P = oracle.P
TWO_P = 2 * P

# Values sitting on the boundaries the kernels have to get right.  The
# 256-bit edges walk the reduction boundaries 0, p and 2p (note that
# 2p + 37 = 2^256 - 1, the largest representable value) plus the bit-255
# edge.
EDGES_256 = (0, 1, 2, P - 2, P - 1, P, P + 1, 2 * P - 1, 2 * P, 2 * P + 37,
             2**255 - 1, 2**255, 2**256 - 1)
EDGES_512 = tuple(dict.fromkeys(
    EDGES_256
    + tuple(v << 256 for v in EDGES_256)
    + ((P - 1) ** 2, P * P, P * (P + 1), (2**256 - 1) ** 2, 2**511, 2**512 - 1)
))


def _le(v: int, n: int = 32) -> bytes:
    return v.to_bytes(n, "little")


def _int(limbs: Sequence[int]) -> float:
    """The value of byte limbs.  A result with a limb outside [0, 256) has
    NaN, which no check's value equals, so the check that reads it fails and
    prints the limbs instead of ending its suite."""
    try:
        return int.from_bytes(limbs, "little")
    except ValueError:
        return float("nan")


def _hex(limbs: Sequence[int]) -> str:
    """Limbs as a counterexample prints them, whatever their container: hex
    bytes, or the limbs in decimal when one is not a byte."""
    try:
        return bytes(limbs).hex()
    except ValueError:
        return f"({','.join(map(str, limbs))})"


def _cong(t, name: str, got: Sequence[int], want: int, **operands: bytes) -> Sequence[int]:
    g = _int(got)
    t.check(g % P == want % P and g < TWO_P,
            lambda: f"{t.at} {name} {' '.join(f'{k}={_hex(v)}' for k, v in operands.items())} "
                    f"got={_hex(got)}")
    return got


# ---------------------------------------------------------------- mp suite

def _check_mp_pair(t, a: bytes, b: bytes) -> None:
    ia, ib = _int(a), _int(b)
    got = mp_arith.mul256(a, b)
    t.check(_int(got) == ia * ib,
            lambda: f"{t.at} mul256 a={_hex(a)} b={_hex(b)} got={_hex(got)}")
    _cong(t, "add_mod", mp_arith.add_mod(a, b), ia + ib, a=a, b=b)
    _cong(t, "sub_mod", mp_arith.sub_mod(a, b), ia - ib, a=a, b=b)


def _check_mp_unary(t, a: bytes) -> None:
    ia = _int(a)
    gsq = mp_arith.sqr256(a)
    t.check(_int(gsq) == ia * ia,
            lambda: f"{t.at} sqr256 a={_hex(a)} got={_hex(gsq)}")
    d, borrow = mp_arith.subp(a)
    t.check(_int(d) == (ia - P) % 2**256 and borrow == (1 if ia < P else 0),
            lambda: f"{t.at} subp a={_hex(a)} got={_hex(d)} borrow={borrow}")


def mp_edges(t) -> None:
    for x in EDGES_256:
        for y in EDGES_256:
            _check_mp_pair(t, _le(x), _le(y))
        _check_mp_unary(t, _le(x))


def mp_trial(t, st, k: int) -> None:
    a = st.u256()
    _check_mp_pair(t, a, st.u256())
    _check_mp_unary(t, a)


# ---------------------------------------------------------------- fe suite

# fe25519.add and sub are mp_arith.add_mod and sub_mod, which the mp suite
# checks in every trial and on every pair of EDGES_256, a superset of
# fe_edges' pairs; this suite checks what the field layer adds.
def _check_fe_pair(t, a: bytes, b: bytes) -> None:
    ia, ib = _int(a), _int(b)
    r = _cong(t, "mul", fe25519.mul(a, b), ia * ib, a=a, b=b)
    f = fe25519.freeze(r)
    t.check(_int(f) == _int(r) % P,
            lambda: f"{t.at} freeze r={_hex(r)} got={_hex(f)}")
    t.check(fe25519.freeze(f) == f,
            lambda: f"{t.at} freeze not idempotent f={_hex(f)}")
    t.check(_int(fe25519.cmov(a, b, 0)) == ia and _int(fe25519.cmov(a, b, 1)) == ib,
            lambda: f"{t.at} cmov a={_hex(a)} b={_hex(b)}")
    t.check(fe25519.unpack(fe25519.pack(f)) == f,
            lambda: f"{t.at} pack/unpack roundtrip f={_hex(f)}")


def _check_fe_unary(t, a: bytes) -> None:
    _cong(t, "square", fe25519.square(a), _int(a) ** 2, a=a)
    _cong(t, "mul121666", fe25519.mul121666(a), _int(a) * 121666, a=a)


def fe_edges(t) -> None:
    for x in EDGES_256:
        for y in (0, 1, P - 1, P, 2 * P - 1, 2**256 - 1):
            _check_fe_pair(t, _le(x), _le(y))
        _check_fe_unary(t, _le(x))
    zero = fe25519.setzero()
    t.check(fe25519.invert(zero) == zero, lambda: "invert(0) != 0")
    inv2 = fe25519.freeze(fe25519.invert(_le(2)))
    t.check(_int(inv2) == 2**254 - 9,
            lambda: f"invert(2) got={_hex(inv2)}")


def fe_trial(t, st, k: int) -> None:
    a, b = st.u256(), st.u256()
    _check_fe_pair(t, a, b)
    _check_fe_unary(t, a)
    if k % 10 == 0:
        # costly, so only every tenth trial: a nonzero element times its
        # inverse is 1
        one = fe25519.setone()
        x = fe25519.freeze(a) if _int(a) % P else one
        prod = fe25519.freeze(fe25519.mul(x, fe25519.invert(x)))
        t.check(prod == one,
                lambda: f"{t.at} invert x={_hex(x)} x*inv(x)={_hex(prod)}")


# ----------------------------------------------------------- findings suite

def _check_finding(t, m: bytes) -> None:
    r = _cong(t, "red512", mp_arith.red512(m), _int(m), m=m)
    f = fe25519.freeze(r)
    t.check(_int(f) == _int(r) % P,
            lambda: f"{t.at} single-subtraction freeze r={_hex(r)} got={_hex(f)}")


def findings_edges(t) -> None:
    for v in EDGES_512:
        _check_finding(t, _le(v, 64))


def findings_trial(t, st, k: int) -> None:
    _check_finding(t, st.u512())
