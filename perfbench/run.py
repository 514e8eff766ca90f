"""Benchmark for packed25519, X25519 on packed 8-bit limbs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dh|selftest --seed N --seconds S --trace 0|1

The package is imported from the checkout's `src/`.  The workloads are
described in `workloads.py`.  Every run checks the RFC 7748 vectors and
iterate(1) before timing and every timed output after it.

--trace 0  times the workload for S seconds with nothing wrapped and prints
           the end-to-end metrics: set-up time, peak memory, and the ops/s
           and the median and tail latency of one op (dh) or one pass
           (selftest) in calibrated time.
--trace 1  times S/2 seconds untraced, then S/2 seconds with the package's
           public functions wrapped (`spans.py`), and prints per-layer calls,
           times and shares, the tracing overhead and, for dh, the number of
           mismatches against the exact per-scalarmult op ledger.

Calibrated time (`cal_` metrics) is an op's wall time scaled by the speed
of a fixed reference block run just before and after it; see
`workloads.reference_block`.  It is the op's time on a machine that runs one
block in 40 ms, and cancels the drift of a shared machine's speed.  The
same figures in wall-clock time are printed too, but not in the result.

Stdout shows each metric with its unit, a `# details:` line of run metadata
in JSON, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The run refuses to time (exit 2, no
result) while a fault of `packed25519.faults` is active, or when the
checkout has no `src/packed25519`.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dh", "selftest")
# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 11
# A latency tail percentile needs this many samples above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "cal_ops_per_s": "1/s",
    "cal_latency_p50_ms": "ms", "cal_latency_tail_ms": "ms",
}
# Unit of each per-layer metric, by the last part of its name.
PER_LAYER_UNITS = {
    "calls_per_op": "calls/op", "us_per_call": "us", "self_share": "ratio",
    "checks_per_s": "1/s", "busy_share": "ratio", "failures": "count",
    "harness_share": "ratio", "overhead": "ratio", "unattributed_share": "ratio",
    "mismatches": "count",
}


class Refused(Exception):
    """The run cannot produce a trustworthy result."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import the package, build the inputs, print 'ready' and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package() -> None:
    if not (SRC / "packed25519" / "__init__.py").is_file():
        raise Refused(f"no package source at {SRC / 'packed25519'}; "
                      "run from the root of a packed25519 checkout")
    if os.environ.get("PACKED25519_FAULTS", "").strip():
        raise Refused("PACKED25519_FAULTS is set; refusing to time a faulty build")
    sys.path.insert(0, str(SRC))
    import packed25519
    from packed25519 import faults
    if Path(packed25519.__file__).resolve().parent != SRC / "packed25519":
        raise Refused(f"imported packed25519 from {packed25519.__file__}, not {SRC}")
    if faults.ACTIVE:
        raise Refused(f"faults active: {sorted(faults.ACTIVE)}")


def measure_setup(workload: str, seed: int) -> Tuple[float, List[float]]:
    """Median seconds from a fresh process's start until the inputs exist."""
    cmd = [sys.executable] + (["-" + "O" * sys.flags.optimize] if sys.flags.optimize else [])
    cmd += [str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise Refused(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        samples.append(t1 - t0)
    return statistics.median(samples), samples


def latency(samples_ns: List[float]) -> Dict[str, float]:
    """Median and tail of the samples, in ms.

    The tail is the highest whole percentile (nearest rank, 50 to 99) with
    at least TAIL_BEYOND samples above its rank.  Short runs with fewer
    than 2 * TAIL_BEYOND samples have none, and report the maximum as
    percentile 100.
    """
    xs = sorted(samples_ns)
    n = len(xs)
    q = next((q for q in range(99, 49, -1) if n - math.ceil(q * n / 100) >= TAIL_BEYOND), 100)
    return {"p50_ms": statistics.median(xs) / 1e6,
            "tail_ms": xs[math.ceil(q * n / 100) - 1] / 1e6,
            "tail_percentile": q, "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metadata(seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        rev = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "packed25519").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "optimize": sys.flags.optimize,
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def layer_values(tracer, ops: int, busy_ns: int, suite_cases: Dict[str, int],
                 suite_failures: Dict[str, int], overhead: float,
                 ledger_mismatches: int) -> Dict[str, float]:
    """Per-layer metric values from one traced region of `ops` ops that
    took `busy_ns` in the timed calls.

    mp_arith times are self times; fe25519 and ladder times are inclusive,
    so a kernel speed-up shows in both its own row and its callers' rows.
    """
    from workloads import SELFTEST_PASS, TRACED
    all_calls, incl_ns, self_ns = tracer.calls, tracer.incl_ns, tracer.self_ns
    v: Dict[str, float] = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            calls = all_calls.get(name, 0)
            v[f"{name}.calls_per_op"] = calls / ops
            if layer != "oracle":
                ns = self_ns if layer == "mp_arith" else incl_ns
                v[f"{name}.us_per_call"] = ns.get(name, 0) / calls / 1e3 if calls else 0.0
            v[f"{name}.self_share"] = self_ns.get(name, 0) / busy_ns
    suite_self = suite_incl = 0
    for suite, _ in SELFTEST_PASS:
        name = f"difftest.run_suite.{suite}"
        incl = incl_ns.get(name, 0)
        suite_incl += incl
        suite_self += self_ns.get(name, 0)
        v[f"{name}.checks_per_s"] = suite_cases.get(suite, 0) / (incl / 1e9) if incl else 0.0
        v[f"{name}.busy_share"] = incl / busy_ns
        v[f"{name}.failures"] = suite_failures.get(suite, 0)
    v["difftest.harness_share"] = suite_self / suite_incl if suite_incl else 0.0
    v["trace.overhead"] = overhead
    v["trace.unattributed_share"] = tracer.check_accounting(busy_ns) / busy_ns
    v["ledger.mismatches"] = ledger_mismatches
    return v


def run(args: argparse.Namespace) -> Tuple[dict, dict]:
    """Result object and details for one benchmark run."""
    import workloads as wl
    from spans import Tracer

    load_start = os.getloadavg()
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    inputs = wl.Inputs(args.workload, args.seed)
    problems = wl.prechecks()
    dh = args.workload == "dh"
    loop, check = (wl.run_dh, wl.check_dh) if dh else (wl.run_selftest, wl.check_selftest)
    phase_s = args.seconds / 2 if args.trace else args.seconds

    gc.collect()
    phases = [(0, loop(inputs, phase_s))]
    if args.trace:
        tracer = Tracer()
        done = len(phases[0][1].records)
        # dh restarts at a whole pair so its shared-secret ops have both keys
        start = -(-done // 4) * 4 if dh else done
        gc.collect()
        with tracer.installed(wl.traced_targets()):
            phases.append((start, loop(inputs, phase_s, start=start, tracer=tracer)))
    rss = peak_rss_mb()

    attempted = sum(phase.ops for _, phase in phases)
    failed, failures = 0, []
    for start, phase in phases:
        n, msgs = check(phase.records, start)
        failed += n
        failures += msgs
    plain = phases[0][1]
    cal_rate = plain.ops / (sum(map(wl.calibrated_ns, plain.records)) / 1e9)
    details: dict = {"workload": args.workload, "trace": args.trace,
                     "seconds": args.seconds, "setup_samples_s": setup_samples}
    if args.trace:
        start, traced = phases[1]
        ledger = wl.check_ledger(traced.op_counts, sys.flags.optimize, start) if dh else []
        cases, suite_failures = ({}, {}) if dh else wl.suite_totals(traced.records)
        traced_rate = traced.ops / (sum(map(wl.calibrated_ns, traced.records)) / 1e9)
        metrics = layer_values(tracer, traced.ops, traced.busy_ns, cases, suite_failures,
                               1 - traced_rate / cal_rate, len(ledger))
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        if dh:
            details["ledger"] = ledger[:20]
    else:
        lat = latency(list(map(wl.calibrated_ns, plain.records)))
        wall = latency([r.ns for r in plain.records])
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss, "cal_ops_per_s": cal_rate,
                   "cal_latency_p50_ms": lat["p50_ms"], "cal_latency_tail_ms": lat["tail_ms"]}
        units = END_TO_END_UNITS
        details["latency"] = {"of": "scalarmult" if dh else "selftest pass",
                              "tail_percentile": lat["tail_percentile"],
                              "samples": lat["samples"]}
        details["wall_clock"] = {"ops_per_s": plain.ops / (plain.busy_ns / 1e9),
                                 "latency_p50_ms": wall["p50_ms"],
                                 "latency_tail_ms": wall["tail_ms"]}
        details["reference_block_ms"] = statistics.median(
            r.ref_ns for r in plain.records) / 1e6
    if dh:
        details["openssl_checked"] = wl.openssl_available()
    details["error_rate"] = failed / attempted
    details["prechecks_failed"] = problems
    details["failures"] = failures[:20]
    details["meta"] = metadata(args.seed)
    details["meta"]["loadavg_start"] = load_start
    details["meta"]["loadavg_end"] = os.getloadavg()
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, details


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        import_package()
        if args.setup_probe:
            import workloads
            workloads.Inputs(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        result, details = run(args)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}")
    for name, value in details.get("wall_clock", {}).items():
        unit = "1/s" if name == "ops_per_s" else "ms"
        print(f"{name + ' (wall clock)':<42} {value:>14.6g} {unit}")
    print(f"{'error_rate':<42} {details['error_rate']:>14.6g} ratio")
    print("# details: " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
