"""Differential testing of the packed-limb kernels against the integer oracle.

Six suites, each a pair of check functions driven by `run_suite`:

  mp          mul256/sqr256/subp/add_mod/sub_mod vs. big integers
  fe          mul/square/mul121666 congruences and ranges, freeze/cmov/pack/unpack/invert
  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers
  findings    red512 lands below 2p and one conditional subtraction freezes

A suite is `<name>_edges(t)`, its fixed checks, and `<name>_trial(t, st, k)`,
the checks of trial k on that trial's stream `st`; both report only through
`t.check`.  This module holds the ladder layer's three suites, with the
RFC 7748 vectors, and the engine: the configuration, a suite's tally, the
trial stream, the one loop over trials and the report.  The mp, fe and
findings suites, and the edge values, are in `_field_suites`.

Every random draw comes from a counter-mode SHA-256 stream keyed by
(seed, suite name, trial index, block counter), so a trial's inputs depend
on nothing but those four values: runs are reproducible byte-for-byte, and
trials could run in any order or in parallel without changing the report
(we run them in order, so the recorded counterexample is the one with the
lowest trial index).  Fixed edge-case checks run before trial 0.

A report with failures == 0 is a pass; the first failing check per suite is
captured as a hex counterexample string.  An exception raised inside a suite
counts as one failing check and ends that suite, which records where it
stopped.
"""

import hashlib
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from . import _field_suites, fe25519, ladder, mp_arith, oracle
from ._field_suites import EDGES_256, EDGES_512, P, TWO_P, _hex, _int, _le  # edges re-exported for callers

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
            lambda: f"{t.at} ladderstep xp={_hex(xp)} r0=({_hex(r0[0])},{_hex(r0[1])}) "
                    f"r1=({_hex(r1[0])},{_hex(r1[1])}) got=(({_hex(gx1)},{_hex(gz1)}),"
                    f"({_hex(gx2)},{_hex(gz2)}))")


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
                        f"got=({_hex(X)},{_hex(Z)}) want=({want.x:#x},{want.z:#x})")


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


SUITES = {
    "mp": (_field_suites.mp_edges, _field_suites.mp_trial),
    "fe": (_field_suites.fe_edges, _field_suites.fe_trial),
    "ladderstep": (ladderstep_edges, ladderstep_trial),
    "mladder": (mladder_edges, mladder_trial),
    "scalarmult": (scalarmult_edges, scalarmult_trial),
    "findings": (_field_suites.findings_edges, _field_suites.findings_trial),
}
SUITE_NAMES: Tuple[str, ...] = tuple(SUITES)


class TrialConfig(NamedTuple):
    seed: int = 1
    trials: int = 20
    suites: Tuple[str, ...] = SUITE_NAMES


class SuiteResult:
    """A suite's tally: checks run, failures, the first failure's text, the
    text of the exception that stopped the suite, if one did, the suite's
    wall time and the tag (`edge` or `trial=K`) of the check in progress."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures = 0
        self.counterexample: Optional[str] = None
        self.stopped: Optional[str] = None
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
                    **({"stopped": s.stopped} if s.stopped else {}),
                }
                for name, s in self.suites.items()
            },
            "failures": self.failures,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }


def run_suite(cfg: TrialConfig) -> TrialReport:
    """Run the configured suites and return the full report.

    Each suite runs its edges at `edge`, then trial k at `trial=K` on
    `_Stream(cfg.seed, name, k)`, for k below `cfg.trials`.  Configuration
    problems (a bad trial count or seed, an unknown or empty suite list)
    raise ValueError before anything runs.  An exception raised by the code
    under test is one failed check of its suite.  Its text, which names the
    suite, the exception, the function that raised it and the check in
    progress, is the suite's `stopped`, and its counterexample if no check
    failed before; that suite stops there, and the others still run.
    """
    if type(cfg.trials) is not int or cfg.trials < 1:
        raise ValueError(f"trials must be a positive integer, got {cfg.trials!r}")
    if type(cfg.seed) is not int or not 0 <= cfg.seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {cfg.seed!r}")
    if not cfg.suites:
        raise ValueError("no suites selected")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite name(s): {unknown}; known: {list(SUITE_NAMES)}")

    started = time.perf_counter()
    results: Dict[str, SuiteResult] = {}
    for name, (edges, trial) in SUITES.items():
        if name not in cfg.suites:
            continue
        res = results[name] = SuiteResult()
        t0 = time.perf_counter()
        try:
            edges(res)
            for k in range(cfg.trials):
                res.at = f"trial={k}"
                trial(res, _Stream(cfg.seed, name, k), k)
        except Exception as exc:
            import traceback  # here, so that only a run that raises loads it
            fn = traceback.extract_tb(exc.__traceback__)[-1].name
            res.stopped = f"{name} raised {type(exc).__name__}: {exc} (in {fn}) at {res.at}"
            res.check(False, lambda: res.stopped)
        res.elapsed_s = time.perf_counter() - t0
    return TrialReport(cfg.seed, cfg.trials, results,
                       time.perf_counter() - started)
