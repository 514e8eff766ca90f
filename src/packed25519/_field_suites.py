"""The differential checks below the ladder, and the edge-value corpus:

  mp          mul256/sqr256/subp/red512/add_mod/sub_mod vs. big integers
  fe          field-layer congruences, ranges, freeze/cmov/pack/unpack/invert
  findings    red512 lands below 2p and one conditional subtraction freezes

Each suite is `<name>_edges(t)` and `<name>_trial(t, st, k)`, and every check
goes to `t.check`; `difftest` holds the engine that runs them and the ladder
layer's checks, and sets `t.at`, the tag a message starts with.
"""

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


def _int(b: bytes) -> int:
    return int.from_bytes(b, "little")


def _check_red512(t, m: bytes) -> bytes:
    r = mp_arith.red512(m)
    ir = _int(r)
    t.check(ir % P == _int(m) % P and ir < TWO_P,
            lambda: f"{t.at} red512 m={m.hex()} got={r.hex()}")
    return r


# ---------------------------------------------------------------- mp suite

def _check_mp_pair(t, a: bytes, b: bytes, m: bytes) -> None:
    ia, ib = _int(a), _int(b)
    got = mp_arith.mul256(a, b)
    t.check(_int(got) == ia * ib,
            lambda: f"{t.at} mul256 a={a.hex()} b={b.hex()} got={got.hex()}")
    gsq = mp_arith.sqr256(a)
    t.check(_int(gsq) == ia * ia and gsq == mp_arith.mul256(a, a),
            lambda: f"{t.at} sqr256 a={a.hex()} got={gsq.hex()}")
    d, borrow = mp_arith.subp(a)
    t.check(_int(d) == (ia - P) % 2**256 and borrow == (1 if ia < P else 0),
            lambda: f"{t.at} subp a={a.hex()} got={d.hex()} borrow={borrow}")
    _check_red512(t, m)
    s = mp_arith.add_mod(a, b)
    t.check(_int(s) % P == (ia + ib) % P and _int(s) < TWO_P,
            lambda: f"{t.at} add_mod a={a.hex()} b={b.hex()} got={s.hex()}")
    w = mp_arith.sub_mod(a, b)
    t.check(_int(w) % P == (ia - ib) % P and _int(w) < TWO_P,
            lambda: f"{t.at} sub_mod a={a.hex()} b={b.hex()} got={w.hex()}")


def mp_edges(t) -> None:
    for x in EDGES_256:
        for y in EDGES_256:
            a, b = _le(x), _le(y)
            _check_mp_pair(t, a, b, _le(x, 64))


def mp_trial(t, st, k: int) -> None:
    _check_mp_pair(t, st.u256(), st.u256(), st.u512())


# ---------------------------------------------------------------- fe suite

def _check_fe_pair(t, a: bytes, b: bytes) -> None:
    ia, ib = _int(a), _int(b)

    def cong(name: str, got: bytes, want: int) -> None:
        g = _int(got)
        t.check(g % P == want % P and g < TWO_P,
                lambda: f"{t.at} {name} a={a.hex()} b={b.hex()} got={got.hex()}")

    cong("add", fe25519.add(a, b), ia + ib)
    cong("sub", fe25519.sub(a, b), ia - ib)
    r = fe25519.mul(a, b)
    cong("mul", r, ia * ib)
    cong("square", fe25519.square(a), ia * ia)
    cong("mul121666", fe25519.mul121666(a), ia * 121666)
    cong("neg", fe25519.neg(a), -ia)

    f = fe25519.freeze(r)
    t.check(_int(f) == _int(r) % P,
            lambda: f"{t.at} freeze r={r.hex()} got={f.hex()}")
    t.check(fe25519.freeze(f) == f,
            lambda: f"{t.at} freeze not idempotent f={f.hex()}")
    t.check(fe25519.cmov(a, b, 0) == a and fe25519.cmov(a, b, 1) == b,
            lambda: f"{t.at} cmov a={a.hex()} b={b.hex()}")
    t.check(fe25519.unpack(fe25519.pack(f)) == f,
            lambda: f"{t.at} pack/unpack roundtrip f={f.hex()}")


def fe_edges(t) -> None:
    for x in EDGES_256:
        for y in (0, 1, P - 1, P, 2 * P - 1, 2**256 - 1):
            _check_fe_pair(t, _le(x), _le(y))
    zero, one = fe25519.setzero(), fe25519.setone()
    t.check(fe25519.invert(zero) == zero, lambda: "invert(0) != 0")
    inv2 = fe25519.freeze(fe25519.invert(_le(2)))
    t.check(_int(inv2) == 2**254 - 9,
            lambda: f"invert(2) got={inv2.hex()}")
    t.check(fe25519.freeze(one) == one, lambda: "freeze(1) != 1")


def fe_trial(t, st, k: int) -> None:
    a, b = st.u256(), st.u256()
    _check_fe_pair(t, a, b)
    if k % 10 == 0:
        # costly, so only every tenth trial: a nonzero element times its
        # inverse is 1
        one = fe25519.setone()
        x = fe25519.freeze(a) if _int(a) % P else one
        prod = fe25519.freeze(fe25519.mul(x, fe25519.invert(x)))
        t.check(prod == one,
                lambda: f"{t.at} invert x={x.hex()} x*inv(x)={prod.hex()}")


# ----------------------------------------------------------- findings suite

def _check_finding(t, m: bytes) -> None:
    r = _check_red512(t, m)
    f = fe25519.freeze(r)
    t.check(_int(f) == _int(r) % P,
            lambda: f"{t.at} single-subtraction freeze r={r.hex()} got={f.hex()}")


def findings_edges(t) -> None:
    for v in EDGES_512:
        _check_finding(t, _le(v, 64))


def findings_trial(t, st, k: int) -> None:
    _check_finding(t, st.u512())
