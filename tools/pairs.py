"""Run the pair protocol on two checkouts and print whether a gain may be claimed.

    python3 tools/pairs.py CHECKOUT_A CHECKOUT_B --workload W --seeds S1 ... S10

CHECKOUT_A is the parent, CHECKOUT_B the change.  Pair i runs
`perfbench/run.py --workload W --seed Si --seconds T` in each checkout, A
first in even pairs and B first in odd ones, so that drift of the machine's
speed does not favour one side.  Each run is printed as it ends.  The
workloads W, the run length T (`run_seconds`) and the metrics come from
this repository's BENCHMARK.json, so the tool runs what the benchmark runs.

Then, for every end-to-end metric of BENCHMARK.json, one row gives each
side's median with its quartiles, the pairs B won (ties count for neither),
B's median against A's and the verdict of the rule:

  gain     B won at least nine tenths of the pairs, its median is better
           than A's by more than A's interquartile range, and no larger
           share of B's operations failed
  within   B's median is no worse than A's by more than the metric's bound
  WORSE    B's median is worse than A's by more than the bound

Every run has PYTHONDONTWRITEBYTECODE=1 in its environment, as the
benchmark runs it, so each process pays its own parse.  The tool refuses to
start while either checkout holds a `__pycache__` under `src/` or
`perfbench/`: a cache on one side alone fakes a gain in `setup_s` and
`peak_rss_mb`.  A run that does not finish, prints no result, or prints a
result whose `correct` is false stops the tool.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


class Verdict(NamedTuple):
    wins: int
    gap: float   # median(b) - median(a), signed so that > 0 is better for b
    iqr_a: float
    gain: bool


def quartiles(xs: List[float]) -> List[float]:
    """First quartile, median and third quartile."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [q1, statistics.median(xs), q3]


def verdict(a: List[float], b: List[float], lower_is_better: bool,
            failed_share_a: float = 0.0, failed_share_b: float = 0.0) -> Verdict:
    """The rule for pairs a[i], b[i]: see the module docstring."""
    sign = -1 if lower_is_better else 1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    q1, med_a, q3 = quartiles(a)
    gap = sign * (statistics.median(b) - med_a)
    gain = (10 * wins >= 9 * len(a) and gap > q3 - q1
            and failed_share_b <= failed_share_a)
    return Verdict(wins, gap, q3 - q1, gain)


def bytecode_caches(checkout: Path) -> List[Path]:
    """Every `__pycache__` directory under the checkout's src/ and perfbench/."""
    return sorted(path for top in ("src", "perfbench")
                  for path in (checkout / top).rglob("__pycache__"))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"pairs: {' '.join(cmd)} in {checkout} is not correct "
                 f"(failed {res['failed']} of {res['attempted']})\n" + "\n".join(lines[-2:-1]))
    return res


def main(argv: List[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout_a", type=Path, help="the parent checkout")
    p.add_argument("checkout_b", type=Path, help="the change's checkout")
    p.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]],
                   required=True)
    p.add_argument("--seeds", type=int, nargs=PAIRS, required=True, metavar="SEED")
    args = p.parse_args(argv)
    caches = bytecode_caches(args.checkout_a) + bytecode_caches(args.checkout_b)
    if caches:
        sys.exit("pairs: remove the bytecode caches first, or one side skips the parse "
                 "the benchmark measures:\n" + "\n".join(map(str, caches)))

    end_to_end = benchmark["end_to_end"]
    results: Dict[str, List[dict]] = {"A": [], "B": []}
    for i, seed in enumerate(args.seeds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            checkout = args.checkout_a if side == "A" else args.checkout_b
            res = run(checkout, args.workload, seed, seconds)
            results[side].append(res)
            values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                              for m in end_to_end)
            print(f"pair {i} seed {seed} {side}: {values} failed={res['failed']}/{res['attempted']}",
                  flush=True)

    share = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
             for side, rs in results.items()}
    print(f"\n{args.workload}, {PAIRS} pairs at --seconds {seconds}, seeds {args.seeds}; "
          f"failed share A {share['A']:.3g}, B {share['B']:.3g}")
    print("| metric | A median [q1–q3] | B median [q1–q3] | B better in | B vs A | bound | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in results["A"]]
        b = [r["metrics"][name]["value"] for r in results["B"]]
        v = verdict(a, b, lower, share["A"], share["B"])
        qa, qb = quartiles(a), quartiles(b)
        worse = -v.gap / qa[1]
        word = "gain" if v.gain else ("WORSE" if worse > m["bound"] else "within")
        print(f"| `{name}` ({m['unit']}) | {qa[1]:.5g} [{qa[0]:.5g}–{qa[2]:.5g}] "
              f"| {qb[1]:.5g} [{qb[0]:.5g}–{qb[2]:.5g}] | {v.wins}/{PAIRS} "
              f"| {(qb[1] - qa[1]) / qa[1]:+.1%} | {m['bound']:.0%} | {word} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
