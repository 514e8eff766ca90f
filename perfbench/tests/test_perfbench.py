"""Tests of the benchmark itself: determinism, the ledger, the tracer and
the result contract.  Each keeps its op count small; the whole file runs in
well under a minute.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from packed25519 import fe25519, mp_arith  # noqa: E402


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _dh_digest(seed, ops):
    timed = wl.run_dh(wl.Inputs("dh", seed), float("inf"), max_ops=ops)
    return hashlib.sha256(b"".join(op.out for op in timed.records)).hexdigest()


def test_same_seed_same_dh_outputs():
    assert _dh_digest(7, 2) == _dh_digest(7, 2)


def test_same_seed_same_selftest_cases_and_failures():
    runs = [wl.run_selftest(wl.Inputs("selftest", 7), float("inf"), max_passes=1)
            for _ in range(2)]
    (a,), (b,) = (r.records for r in runs)
    assert a.seed == b.seed
    assert a.cases == b.cases and a.failures == b.failures
    assert sum(a.failures.values()) == 0


def test_different_seed_different_inputs():
    assert wl.Inputs("dh", 1)[0] != wl.Inputs("dh", 2)[0]
    one, two = wl.Inputs("selftest", 1), wl.Inputs("selftest", 2)
    assert wl.pass_seed(one, 0) != wl.pass_seed(two, 0)
    # inputs past the pre-generated ones extend the same stream
    assert wl.Inputs("dh", 1)[wl.PREGENERATED + 3] == \
        wl.Inputs("dh", 1, count=wl.PREGENERATED + 4)[wl.PREGENERATED + 3]


def test_dh_ledger_matches_one_key_agreement():
    tracer = Tracer()
    with tracer.installed(wl.traced_targets()):
        timed = wl.run_dh(wl.Inputs("dh", 3), float("inf"), max_ops=4, tracer=tracer)
    assert wl.check_ledger(timed.op_counts, sys.flags.optimize) == []
    assert wl.check_dh(timed.records) == (0, [])
    assert tracer.check_accounting(timed.busy_ns) >= 0


def test_ledger_names_a_missed_binding():
    # wrapping mul256 only where it is defined misses fe25519's own binding
    tracer = Tracer()
    original = mp_arith.mul256
    mp_arith.mul256 = tracer.wrap("mp_arith.mul256", original)
    try:
        timed = wl.run_dh(wl.Inputs("dh", 3), float("inf"), max_ops=1, tracer=tracer)
    finally:
        mp_arith.mul256 = original
    assert fe25519.mul256 is original
    problems = wl.check_ledger(timed.op_counts, sys.flags.optimize)
    assert any(p.startswith("ledger: mp_arith.mul256 ran 0 times") for p in problems)
    assert "missed a binding" in problems[0]


def test_tracer_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tracer.calls == {"m.inner": 2, "m.outer": 1}
    assert tracer.edges == {("m.outer", "m.inner"): 2}
    assert sum(tracer.self_ns.values()) == tracer.top_ns == tracer.incl_ns["m.outer"]
    assert tracer.check_accounting(tracer.top_ns + 5) == 5


def test_smoke_untraced_prints_every_end_to_end_metric():
    res = _result(_bench("--workload", "selftest", "--seed", "5", "--seconds", "1",
                         "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _declared("end_to_end")


def test_smoke_traced_dh_reports_every_layer_and_matching_ledger():
    res = _result(_bench("--workload", "dh", "--seed", "5", "--seconds", "1",
                         "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert metrics["ledger.mismatches"]["value"] == 0
    assert metrics["mp_arith.mul256.calls_per_op"]["value"] == 1287


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dh", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_while_a_fault_is_set():
    env = dict(os.environ, PACKED25519_FAULTS="mul256")
    proc = _bench("--workload", "dh", "--seed", "1", "--seconds", "1", "--trace", "0",
                  env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "PACKED25519_FAULTS" in proc.stderr
