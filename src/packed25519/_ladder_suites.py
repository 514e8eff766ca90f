"""The differential suites of the ladder layer:

  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers

`difftest` runs them.
"""

from typing import Tuple

from . import fe25519, ladder, mp_arith, oracle
from ._field_suites import (P, RFC7748_VECTORS, TWO_P, SuiteResult, TrialConfig, _int, _le,
                            _Stream)


# -------------------------------------------------------- ladderstep suite

def _check_ladderstep(t: SuiteResult, tag: str, xp: bytes, r0: Tuple[bytes, bytes],
                      r1: Tuple[bytes, bytes]) -> None:
    t.at = tag
    (gx1, gz1), (gx2, gz2) = ladder.ladderstep(xp, r0, r1)
    o0 = oracle.double(oracle.Ratio(_int(r0[0]), _int(r0[1])))
    o1 = oracle.add(oracle.Ratio(_int(r1[0]), _int(r1[1])),
                    oracle.Ratio(_int(r0[0]), _int(r0[1])),
                    oracle.Ratio(_int(xp), 1))
    ok = (_int(gx1) % P == o0.x % P and _int(gz1) % P == o0.z % P
          and _int(gx2) % P == o1.x % P and _int(gz2) % P == o1.z % P)
    below = all(_int(v) < TWO_P for v in (gx1, gz1, gx2, gz2))
    t.check(ok and below,
            lambda: f"{tag} ladderstep xp={xp.hex()} r0=({r0[0].hex()},{r0[1].hex()}) "
                    f"r1=({r1[0].hex()},{r1[1].hex()}) got=(({gx1.hex()},{gz1.hex()}),"
                    f"({gx2.hex()},{gz2.hex()}))")


_WORKED_LADDERSTEPS = (
    # (xp, r0, r1) -> ((X1', Z1'), (X2', Z2')): doubling the first operand,
    # differential-adding the second.
    (9, (1, 0), (9, 1), ((1, 0), (324, 36))),
    (9, (9, 1), (1, 0), ((6400, 157681440), (324, 36))),
    (2, (1, 0), (2, 1), ((1, 0), (16, 8))),
)


def _suite_ladderstep(cfg: TrialConfig, t: SuiteResult) -> None:
    t.at = "edge"
    for xp, r0, r1, want in _WORKED_LADDERSTEPS:
        (gx1, gz1), (gx2, gz2) = ladder.ladderstep(
            _le(xp), (_le(r0[0]), _le(r0[1])), (_le(r1[0]), _le(r1[1])))
        got = ((_int(gx1) % P, _int(gz1) % P), (_int(gx2) % P, _int(gz2) % P))
        t.check(got == want,
                lambda: f"worked example xp={xp} r0={r0} r1={r1} got={got} want={want}")
    for xp in (9, 2):
        for r0 in ((1, 0), (0, 1), (7, 7)):
            for r1 in ((1, 0), (0, 1), (5, 5)):
                _check_ladderstep(t, "edge", _le(xp),
                                  (_le(r0[0]), _le(r0[1])),
                                  (_le(r1[0]), _le(r1[1])))
    zero = fe25519.setzero()
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "ladderstep", k)
        # add_mod(x, 0) maps an arbitrary 256-bit draw into [0, 2p), the
        # representative range ladder state actually lives in
        draw = lambda: mp_arith.add_mod(st.u256(), zero)
        _check_ladderstep(t, f"trial={k}", draw(), (draw(), draw()),
                          (draw(), draw()))


# ----------------------------------------------------------- mladder suite

def _check_mladder(t: SuiteResult, tag: str, n: int, xp_int: int) -> None:
    t.at = tag
    X, Z = ladder.mladder(n, _le(xp_int))
    want, _ = oracle.ladder(n, oracle.Ratio(xp_int, 1))
    ok = (_int(X) % P == want.x % P and _int(Z) % P == want.z % P
          and _int(X) < TWO_P and _int(Z) < TWO_P)
    t.check(ok, lambda: f"{tag} mladder n={n:#x} xp={xp_int:#x} "
                        f"got=({X.hex()},{Z.hex()}) want=({want.x:#x},{want.z:#x})")


def _suite_mladder(cfg: TrialConfig, t: SuiteResult) -> None:
    _check_mladder(t, "edge", 2**254, 9)
    _check_mladder(t, "edge", 2**254, 0)
    _check_mladder(t, "edge", 2**254 + 8, 9)
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "mladder", k)
        n = ladder.clamp(st.u256())
        _check_mladder(t, f"trial={k}", n, _int(st.u256()) % P)


# -------------------------------------------------------- scalarmult suite

def _check_scalarmult(t: SuiteResult, tag: str, s: bytes, u: bytes) -> None:
    t.at = tag
    got = ladder.scalarmult(s, u)
    want = oracle.x25519(_int(s), _int(u))
    t.check(_int(got) == want and _int(got) < P,
            lambda: f"{tag} scalarmult s={s.hex()} u={u.hex()} "
                    f"got={got.hex()} want={_le(want).hex()}")


def _suite_scalarmult(cfg: TrialConfig, t: SuiteResult) -> None:
    t.at = "edge"
    for s_hex, u_hex, out_hex in RFC7748_VECTORS:
        got = ladder.scalarmult(bytes.fromhex(s_hex), bytes.fromhex(u_hex))
        t.check(got.hex() == out_hex,
                lambda: f"rfc7748 s={s_hex} u={u_hex} got={got.hex()} want={out_hex}")
    # x = 0 (and its alias p) is the order-2 orbit: output must be zero
    for u in (_le(0), _le(P)):
        _check_scalarmult(t, "edge", b"\x01" + bytes(31), u)
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "scalarmult", k)
        _check_scalarmult(t, f"trial={k}", st.u256(), st.u256())
