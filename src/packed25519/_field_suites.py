"""What every differential suite shares, and the suites below the ladder.

Shared: the run's configuration, a suite's tally, the counter-mode trial
stream, the edge-value corpus and the RFC 7748 vectors.  The suites:

  mp          mul256/sqr256/subp/red512/add_mod/sub_mod vs. big integers
  fe          field-layer congruences, ranges, freeze/cmov/pack/unpack/invert
  findings    red512 lands below 2p and one conditional subtraction freezes

`difftest` runs them and re-exports the shared names.
"""

import hashlib
from typing import Callable, NamedTuple, Optional, Tuple

from . import fe25519, mp_arith, oracle

P = oracle.P

SUITE_NAMES: Tuple[str, ...] = (
    "mp", "fe", "ladderstep", "mladder", "scalarmult", "findings",
)

# RFC 7748 section 5.2 test vectors (scalar, u, expected output), little-endian hex.
RFC7748_VECTORS = (
    ("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
     "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
     "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
    ("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
     "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
     "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
)


class EdgeCorpus(NamedTuple):
    """Adversarial fixed inputs, as integers."""

    u256: Tuple[int, ...]
    u512: Tuple[int, ...]


def edge_corpus() -> EdgeCorpus:
    """Values sitting on the boundaries the kernels have to get right.

    The 256-bit list walks the reduction boundaries 0, p and 2p (note that
    2p + 37 = 2^256 - 1, the largest representable value) plus the bit-255
    edge.
    """
    p = P
    u256 = (0, 1, 2, p - 2, p - 1, p, p + 1, 2 * p - 1, 2 * p, 2 * p + 37,
            2**255 - 1, 2**255, 2**256 - 1)
    u512 = tuple(dict.fromkeys(
        u256
        + tuple(v << 256 for v in u256)
        + ((p - 1) ** 2, p * p, p * (p + 1), (2**256 - 1) ** 2,
           2**511, 2**512 - 1)
    ))
    return EdgeCorpus(u256, u512)


class TrialConfig(NamedTuple):
    seed: int = 1
    trials: int = 20
    suites: Tuple[str, ...] = SUITE_NAMES


class SuiteResult:
    """A suite's tally: checks run, failures, the first failure's text, the
    suite's wall time and the tag (`edge` or `trial=K`) of the check in
    progress."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures = 0
        self.counterexample: Optional[str] = None
        self.elapsed_s = 0.0
        self.at = "edge"

    @property
    def checks_per_s(self) -> float:
        return self.cases / self.elapsed_s if self.elapsed_s else 0.0

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = describe()



class _Stream:
    """Counter-mode SHA-256: block i = H(seed | suite | trial | i)."""

    def __init__(self, seed: int, suite: str, trial: int):
        self._prefix = (seed.to_bytes(8, "little") + suite.encode("ascii")
                        + b"|" + trial.to_bytes(8, "little"))
        self._ctr = 0

    def u256(self) -> bytes:
        block = hashlib.sha256(
            self._prefix + self._ctr.to_bytes(8, "little")).digest()
        self._ctr += 1
        return block

    def u512(self) -> bytes:
        return self.u256() + self.u256()


def _le(v: int, n: int = 32) -> bytes:
    return v.to_bytes(n, "little")


def _int(b: bytes) -> int:
    return int.from_bytes(b, "little")


TWO_P = 2 * P


# ---------------------------------------------------------------- mp suite

def _check_mp_pair(t: SuiteResult, tag: str, a: bytes, b: bytes, m: bytes) -> None:
    t.at = tag
    ia, ib = _int(a), _int(b)
    got = mp_arith.mul256(a, b)
    t.check(_int(got) == ia * ib,
            lambda: f"{tag} mul256 a={a.hex()} b={b.hex()} got={got.hex()}")
    gsq = mp_arith.sqr256(a)
    t.check(_int(gsq) == ia * ia and gsq == mp_arith.mul256(a, a),
            lambda: f"{tag} sqr256 a={a.hex()} got={gsq.hex()}")
    d, borrow = mp_arith.subp(a)
    t.check(_int(d) == (ia - P) % 2**256 and borrow == (1 if ia < P else 0),
            lambda: f"{tag} subp a={a.hex()} got={d.hex()} borrow={borrow}")
    r = mp_arith.red512(m)
    ir, im = _int(r), _int(m)
    t.check(ir % P == im % P and ir < TWO_P,
            lambda: f"{tag} red512 m={m.hex()} got={r.hex()}")
    s = mp_arith.add_mod(a, b)
    t.check(_int(s) % P == (ia + ib) % P and _int(s) < TWO_P,
            lambda: f"{tag} add_mod a={a.hex()} b={b.hex()} got={s.hex()}")
    w = mp_arith.sub_mod(a, b)
    t.check(_int(w) % P == (ia - ib) % P and _int(w) < TWO_P,
            lambda: f"{tag} sub_mod a={a.hex()} b={b.hex()} got={w.hex()}")


def _suite_mp(cfg: TrialConfig, t: SuiteResult) -> None:
    corpus = edge_corpus()
    for x in corpus.u256:
        for y in corpus.u256:
            a, b = _le(x), _le(y)
            _check_mp_pair(t, "edge", a, b, _le(x, 64))
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "mp", k)
        _check_mp_pair(t, f"trial={k}", st.u256(), st.u256(), st.u512())


# ---------------------------------------------------------------- fe suite

def _check_fe_pair(t: SuiteResult, tag: str, a: bytes, b: bytes) -> None:
    t.at = tag
    ia, ib = _int(a), _int(b)

    def cong(name: str, got: bytes, want: int) -> None:
        g = _int(got)
        t.check(g % P == want % P and g < TWO_P,
                lambda: f"{tag} {name} a={a.hex()} b={b.hex()} got={got.hex()}")

    cong("add", fe25519.add(a, b), ia + ib)
    cong("sub", fe25519.sub(a, b), ia - ib)
    r = fe25519.mul(a, b)
    cong("mul", r, ia * ib)
    cong("square", fe25519.square(a), ia * ia)
    cong("mul121666", fe25519.mul121666(a), ia * 121666)
    cong("neg", fe25519.neg(a), -ia)

    f = fe25519.freeze(r)
    t.check(_int(f) == _int(r) % P,
            lambda: f"{tag} freeze r={r.hex()} got={f.hex()}")
    t.check(fe25519.freeze(f) == f,
            lambda: f"{tag} freeze not idempotent f={f.hex()}")
    t.check(fe25519.cmov(a, b, 0) == a and fe25519.cmov(a, b, 1) == b,
            lambda: f"{tag} cmov a={a.hex()} b={b.hex()}")
    t.check(fe25519.unpack(fe25519.pack(f)) == f,
            lambda: f"{tag} pack/unpack roundtrip f={f.hex()}")


def _suite_fe(cfg: TrialConfig, t: SuiteResult) -> None:
    corpus = edge_corpus()
    for x in corpus.u256:
        for y in (0, 1, P - 1, P, 2 * P - 1, 2**256 - 1):
            _check_fe_pair(t, "edge", _le(x), _le(y))
    t.at = "edge"
    zero, one = fe25519.setzero(), fe25519.setone()
    t.check(fe25519.invert(zero) == zero, lambda: "invert(0) != 0")
    inv2 = fe25519.freeze(fe25519.invert(_le(2)))
    t.check(_int(inv2) == 2**254 - 9,
            lambda: f"invert(2) got={inv2.hex()}")
    t.check(fe25519.freeze(one) == one, lambda: "freeze(1) != 1")
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "fe", k)
        a, b = st.u256(), st.u256()
        _check_fe_pair(t, f"trial={k}", a, b)
        if k % 10 == 0:
            # costly, so only every tenth trial: a nonzero element times its
            # inverse is 1
            x = fe25519.freeze(a) if _int(a) % P else one
            prod = fe25519.freeze(fe25519.mul(x, fe25519.invert(x)))
            t.check(prod == one,
                    lambda: f"trial={k} invert x={x.hex()} x*inv(x)={prod.hex()}")



# ----------------------------------------------------------- findings suite

def _check_finding(t: SuiteResult, tag: str, m: bytes) -> None:
    t.at = tag
    r = mp_arith.red512(m)
    ir = _int(r)
    t.check(ir % P == _int(m) % P and ir < TWO_P,
            lambda: f"{tag} red512 m={m.hex()} got={r.hex()}")
    f = fe25519.freeze(r)
    t.check(_int(f) == ir % P,
            lambda: f"{tag} single-subtraction freeze r={r.hex()} got={f.hex()}")


def _suite_findings(cfg: TrialConfig, t: SuiteResult) -> None:
    for v in edge_corpus().u512:
        _check_finding(t, "edge", _le(v, 64))
    for k in range(cfg.trials):
        st = _Stream(cfg.seed, "findings", k)
        _check_finding(t, f"trial={k}", st.u512())
