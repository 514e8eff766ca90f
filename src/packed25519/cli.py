"""Command-line front end.

Byte strings cross this boundary as 64 lowercase hex characters in
little-endian (RFC 7748 string) order: the first two hex characters are
byte 0, the least significant.  This matches the test-vector notation in
RFC 7748 itself, *not* big-endian integer notation.

Exit status: 0 on success, 1 when a selftest finds a property violation,
2 for usage errors (bad hex, unknown suite, bad flags, unwritable --json).
"""

import argparse
import string
import sys
from typing import List, Optional

from . import difftest
from .ladder import BASE_POINT_U, iterate, scalarmult


def _parse_hex32(text: str, what: str) -> bytes:
    t = text.strip()
    if len(t) != 64:
        raise ValueError(f"{what} must be 64 hex characters, got {len(t)}")
    # bytes.fromhex alone would skip inner whitespace and return fewer bytes
    if not set(t) <= set(string.hexdigits):
        raise ValueError(f"{what} is not valid hex: {text!r}")
    return bytes.fromhex(t)


def _cmd_scalarmult(args: argparse.Namespace) -> int:
    s = _parse_hex32(args.scalar, "scalar")
    u = _parse_hex32(args.u, "u-coordinate")
    print(scalarmult(s, u).hex())
    return 0


def _cmd_iterate(args: argparse.Namespace) -> int:
    print(iterate(args.count).hex())
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    cfg = difftest.TrialConfig(seed=args.seed, trials=args.trials, suites=suites)
    report = difftest.run_suite(cfg)
    for name, res in report.suites.items():
        print(f"suite {name:<11} cases={res.cases:<7} failures={res.failures:<5} "
              f"{res.elapsed_s:8.3f}s {res.checks_per_s:9.0f} checks/s")
        if res.counterexample is not None:
            print(f"  first counterexample: {res.counterexample}")
        if res.stopped is not None:
            print(f"  stopped: {res.stopped}")
    status = "PASS" if report.ok else "FAIL"
    print(f"selftest seed={report.seed} trials={report.trials}: {status} "
          f"({len(report.suites)} suites, {report.failures} failures, "
          f"{report.elapsed_s:.1f}s)")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packed25519",
        description="X25519 over packed 8-bit limbs. Scalars and coordinates "
                    "are 64 lowercase hex chars, little-endian byte order.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalarmult", help="X25519(scalar, u) on arbitrary inputs")
    p.add_argument("scalar")
    p.add_argument("u")
    p.set_defaults(fn=_cmd_scalarmult)

    p = sub.add_parser("base", help="X25519(scalar, 9): public key for a secret")
    p.add_argument("scalar")
    p.set_defaults(fn=_cmd_scalarmult, u=BASE_POINT_U.hex())

    p = sub.add_parser("iterate",
                       help="RFC 7748 iteration chain from the base point")
    p.add_argument("count", type=int)
    p.set_defaults(fn=_cmd_iterate)

    p = sub.add_parser("selftest",
                       help="differential test suites against the integer oracle")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--suites", default=",".join(difftest.SUITE_NAMES),
                   help="comma-separated subset of: %(default)s")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as one JSON object")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
