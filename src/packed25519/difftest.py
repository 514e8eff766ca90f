"""Differential testing of the packed-limb kernels against the integer oracle.

Six suites, each a pair of check functions driven by `run_suite`:

  mp          mul256/sqr256/subp/red512/add_mod/sub_mod vs. big integers
  fe          field-layer congruences, ranges, freeze/cmov/pack/unpack/invert
  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers
  findings    red512 lands below 2p and one conditional subtraction freezes

This module is the engine: the configuration, a suite's tally, the trial
stream, the one loop over trials and the report.  A suite is `edges(t)`, its
fixed checks, and `trial(t, st, k)`, the checks of trial k on that trial's
stream `st`; both report only through `t.check`.  The mp, fe and findings
suites live in `_field_suites`, the ladderstep, mladder and scalarmult
suites in `_ladder_suites`.  The checks are two modules because the
parser's transient peak is per module, and every process pays it where no
bytecode cache is written.

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

from . import _field_suites, _ladder_suites
from ._field_suites import EdgeCorpus, edge_corpus  # re-exported for callers
from ._ladder_suites import RFC7748_VECTORS  # re-exported for callers

SUITES = {
    "mp": (_field_suites.mp_edges, _field_suites.mp_trial),
    "fe": (_field_suites.fe_edges, _field_suites.fe_trial),
    "ladderstep": (_ladder_suites.ladderstep_edges, _ladder_suites.ladderstep_trial),
    "mladder": (_ladder_suites.mladder_edges, _ladder_suites.mladder_trial),
    "scalarmult": (_ladder_suites.scalarmult_edges, _ladder_suites.scalarmult_trial),
    "findings": (_field_suites.findings_edges, _field_suites.findings_trial),
}
SUITE_NAMES: Tuple[str, ...] = tuple(SUITES)


class TrialConfig(NamedTuple):
    seed: int = 1
    trials: int = 20
    suites: Tuple[str, ...] = SUITE_NAMES


class SuiteResult:
    """A suite's tally: checks run, failures, the first failure's text, the
    suite's wall time and the tag (`edge` or `trial=K`) of the check in
    progress."""

    def __init__(self) -> None:
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


def run_suite(cfg: TrialConfig) -> TrialReport:
    """Run the configured suites and return the full report.

    Each suite runs its edges at `edge`, then trial k at `trial=K` on
    `_Stream(cfg.seed, name, k)`, for k below `cfg.trials`.  Configuration
    problems (a bad trial count or seed, an unknown or empty suite list)
    raise ValueError before anything runs.  An exception raised by the code
    under test is one failed check of its suite, whose counterexample names
    the suite, the exception, the function that raised it and the check in
    progress; that suite stops there, and the others still run.
    """
    if not isinstance(cfg.trials, int) or cfg.trials < 1:
        raise ValueError(f"trials must be a positive integer, got {cfg.trials!r}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**64:
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
            res.check(False, lambda: f"{name} raised {type(exc).__name__}: {exc} "
                                     f"(in {fn}) at {res.at}")
        res.elapsed_s = time.perf_counter() - t0
    return TrialReport(cfg.seed, cfg.trials, results,
                       time.perf_counter() - started)
