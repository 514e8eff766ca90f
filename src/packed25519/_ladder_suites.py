"""The differential checks of the ladder layer, and the RFC 7748 vectors:

  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers

Each suite is `<name>_edges(t)` and `<name>_trial(t, st, k)`, as in
`_field_suites`; `difftest` runs them.  They are a module of their own
because the parser's transient peak is per module.
"""

from typing import Tuple

from . import fe25519, ladder, mp_arith, oracle
from ._field_suites import P, TWO_P, _int, _le

# RFC 7748 section 5.2 test vectors (scalar, u, expected output), little-endian hex.
RFC7748_VECTORS = (
    ("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
     "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
     "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
    ("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
     "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
     "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
)


# -------------------------------------------------------- ladderstep suite

def _check_ladderstep(t, xp: bytes, r0: Tuple[bytes, bytes], r1: Tuple[bytes, bytes]) -> None:
    (gx1, gz1), (gx2, gz2) = ladder.ladderstep(xp, r0, r1)
    o0 = oracle.double(oracle.Ratio(_int(r0[0]), _int(r0[1])))
    o1 = oracle.add(oracle.Ratio(_int(r1[0]), _int(r1[1])),
                    oracle.Ratio(_int(r0[0]), _int(r0[1])),
                    oracle.Ratio(_int(xp), 1))
    ok = (_int(gx1) % P == o0.x % P and _int(gz1) % P == o0.z % P
          and _int(gx2) % P == o1.x % P and _int(gz2) % P == o1.z % P)
    below = all(_int(v) < TWO_P for v in (gx1, gz1, gx2, gz2))
    t.check(ok and below,
            lambda: f"{t.at} ladderstep xp={xp.hex()} r0=({r0[0].hex()},{r0[1].hex()}) "
                    f"r1=({r1[0].hex()},{r1[1].hex()}) got=(({gx1.hex()},{gz1.hex()}),"
                    f"({gx2.hex()},{gz2.hex()}))")


_WORKED_LADDERSTEPS = (
    # (xp, r0, r1) -> ((X1', Z1'), (X2', Z2')): doubling the first operand,
    # differential-adding the second.
    (9, (1, 0), (9, 1), ((1, 0), (324, 36))),
    (9, (9, 1), (1, 0), ((6400, 157681440), (324, 36))),
    (2, (1, 0), (2, 1), ((1, 0), (16, 8))),
)


def ladderstep_edges(t) -> None:
    for xp, r0, r1, want in _WORKED_LADDERSTEPS:
        (gx1, gz1), (gx2, gz2) = ladder.ladderstep(
            _le(xp), (_le(r0[0]), _le(r0[1])), (_le(r1[0]), _le(r1[1])))
        got = ((_int(gx1) % P, _int(gz1) % P), (_int(gx2) % P, _int(gz2) % P))
        t.check(got == want,
                lambda: f"worked example xp={xp} r0={r0} r1={r1} got={got} want={want}")
    for xp in (9, 2):
        for r0 in ((1, 0), (0, 1), (7, 7)):
            for r1 in ((1, 0), (0, 1), (5, 5)):
                _check_ladderstep(t, _le(xp), (_le(r0[0]), _le(r0[1])),
                                  (_le(r1[0]), _le(r1[1])))


def ladderstep_trial(t, st, k: int) -> None:
    # add_mod(x, 0) maps an arbitrary 256-bit draw into [0, 2p), the
    # representative range ladder state actually lives in
    zero = fe25519.setzero()
    draw = lambda: mp_arith.add_mod(st.u256(), zero)
    _check_ladderstep(t, draw(), (draw(), draw()), (draw(), draw()))


# ----------------------------------------------------------- mladder suite

def _check_mladder(t, n: int, xp_int: int) -> None:
    X, Z = ladder.mladder(n, _le(xp_int))
    want, _ = oracle.ladder(n, oracle.Ratio(xp_int, 1))
    ok = (_int(X) % P == want.x % P and _int(Z) % P == want.z % P
          and _int(X) < TWO_P and _int(Z) < TWO_P)
    t.check(ok, lambda: f"{t.at} mladder n={n:#x} xp={xp_int:#x} "
                        f"got=({X.hex()},{Z.hex()}) want=({want.x:#x},{want.z:#x})")


def mladder_edges(t) -> None:
    _check_mladder(t, 2**254, 9)
    _check_mladder(t, 2**254, 0)
    _check_mladder(t, 2**254 + 8, 9)


def mladder_trial(t, st, k: int) -> None:
    n = ladder.clamp(st.u256())
    _check_mladder(t, n, _int(st.u256()) % P)


# -------------------------------------------------------- scalarmult suite

def _check_scalarmult(t, s: bytes, u: bytes) -> None:
    got = ladder.scalarmult(s, u)
    want = oracle.x25519(_int(s), _int(u))
    t.check(_int(got) == want and _int(got) < P,
            lambda: f"{t.at} scalarmult s={s.hex()} u={u.hex()} "
                    f"got={got.hex()} want={_le(want).hex()}")


def scalarmult_edges(t) -> None:
    for s_hex, u_hex, out_hex in RFC7748_VECTORS:
        got = ladder.scalarmult(bytes.fromhex(s_hex), bytes.fromhex(u_hex))
        t.check(got.hex() == out_hex,
                lambda: f"rfc7748 s={s_hex} u={u_hex} got={got.hex()} want={out_hex}")
    # x = 0 (and its alias p) is the order-2 orbit: output must be zero
    for u in (_le(0), _le(P)):
        _check_scalarmult(t, b"\x01" + bytes(31), u)


def scalarmult_trial(t, st, k: int) -> None:
    _check_scalarmult(t, st.u256(), st.u256())
