"""Differential testing of the packed-limb kernels against the integer oracle.

Six suites, each a list of checks driven by a deterministic byte stream:

  mp          mul256/sqr256/subp/red512/add_mod/sub_mod vs. big integers
  fe          field-layer congruences, ranges, freeze/cmov/pack/unpack/invert
  ladderstep  the 18-step ladder iteration vs. the doubling/addition formulas
  mladder     full ladders vs. the recursive oracle, componentwise
  scalarmult  the byte-level pipeline vs. oracle.x25519 on integers
  findings    red512 lands below 2p and one conditional subtraction freezes

The mp, fe and findings suites live in `_field_suites`, with what every
suite shares (the stream, the edge corpus, the RFC 7748 vectors, the
configuration and a suite's tally); the ladderstep, mladder and scalarmult
suites live in `_ladder_suites`.  This module runs them and reports, and
re-exports the shared names.  The harness is three modules because the
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

import json
import time
from typing import Callable, Dict, NamedTuple

from ._field_suites import (RFC7748_VECTORS, SUITE_NAMES, EdgeCorpus, SuiteResult,
                            TrialConfig, _Stream, _suite_fe, _suite_findings, _suite_mp,
                            edge_corpus)
from ._ladder_suites import _suite_ladderstep, _suite_mladder, _suite_scalarmult


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
