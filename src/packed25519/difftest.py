"""Differential testing of the packed-limb kernels against the integer oracle.

Six suites, each a list of checks driven by a deterministic byte stream:

  mp          mul256/sqr256/subp/red512/add_mod/sub_mod vs. big integers
  fe          field-layer congruences, ranges, freeze/cmov/pack/unpack/invert
  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers
  findings    red512 lands below 2p and one conditional subtraction freezes

Every random draw comes from a counter-mode SHA-256 stream keyed by
(seed, suite name, trial index, block counter), so a trial's inputs depend
on nothing but those four values: runs are reproducible byte-for-byte, and
trials could run in any order or in parallel without changing the report
(we run them in order, so the recorded counterexample is the one with the
lowest trial index).  Fixed edge-case checks run before trial 0.

A report with failures == 0 is a pass; the first failing check per suite is
captured as a hex counterexample string.  An exception raised inside a suite
counts as one failing check and ends that suite.
"""

import hashlib
import json
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from . import fe25519, ladder, mp_arith, oracle

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


class TrialReport(NamedTuple):
    seed: int
    trials: int
    suites: Dict[str, SuiteResult]
    elapsed_s: float

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.suites.values())

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "suites": {
                name: {
                    "cases": s.cases,
                    "failures": s.failures,
                    "counterexample": s.counterexample,
                    "elapsed_s": s.elapsed_s,
                    "checks_per_s": s.checks_per_s,
                }
                for name, s in self.suites.items()
            },
            "failures": self.failures,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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


_SUITES: Dict[str, Callable[[TrialConfig, SuiteResult], None]] = {
    "mp": _suite_mp,
    "fe": _suite_fe,
    "ladderstep": _suite_ladderstep,
    "mladder": _suite_mladder,
    "scalarmult": _suite_scalarmult,
    "findings": _suite_findings,
}


def run_suite(cfg: TrialConfig) -> TrialReport:
    """Run the configured suites and return the full report.

    Configuration problems (a bad trial count or seed, an unknown or empty
    suite list) raise ValueError before anything runs.  An exception raised
    by the code under test is one failed check of its suite, whose
    counterexample names the suite, the exception, the function that raised
    it and the check in progress (`edge` or `trial=K`); that suite stops
    there, and the others still run.
    """
    if not isinstance(cfg.trials, int) or cfg.trials < 1:
        raise ValueError(f"trials must be a positive integer, got {cfg.trials!r}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {cfg.seed!r}")
    if not cfg.suites:
        raise ValueError("no suites selected")
    unknown = [s for s in cfg.suites if s not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite name(s): {unknown}; known: {list(SUITE_NAMES)}")

    started = time.perf_counter()
    results: Dict[str, SuiteResult] = {}
    for name in SUITE_NAMES:
        if name not in cfg.suites:
            continue
        res = results[name] = SuiteResult(name)
        t0 = time.perf_counter()
        try:
            _SUITES[name](cfg, res)
        except Exception as exc:
            import traceback  # here, so that only a run that raises loads it
            fn = traceback.extract_tb(exc.__traceback__)[-1].name
            res.check(False, lambda: f"{name} raised {type(exc).__name__}: {exc} "
                                     f"(in {fn}) at {res.at}")
        res.elapsed_s = time.perf_counter() - t0
    return TrialReport(cfg.seed, cfg.trials, results,
                       time.perf_counter() - started)
