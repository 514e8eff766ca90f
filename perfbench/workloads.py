"""The benchmark's two workloads, their output checks and the op ledger.

Both are closed loops with one client: the next op starts only when the
previous one has returned, as for a caller that waits for each result.

dh        X25519 key agreement.  For each seeded pair (a, b) the loop calls
          scalarmult(a, 9), scalarmult(b, 9), then both shared secrets.
          One op is one scalarmult.  This is the call a library user makes;
          the time goes to mul256 and sqr256 in about equal parts.
selftest  The differential harness on the kernel and field suites, one
          run_suite call per suite with trial counts in the acceptance
          gate's proportions (mp : fe : findings : ladderstep = 10 : 10 :
          100 : 1), a fresh seed per pass.  One op is one check.  It is
          square- and reduction-heavy (the fe suite's inversions), barely
          touches the ladder and also pays the harness's own cost, so a
          kernel change that trades sqr256 or red512 speed for mul256 speed
          shows here and not in dh.

The inputs come from the benchmark's seed alone; the package only ever
receives them.  Every output is checked after the timed region ends.

Each op is bracketed by reference blocks (see `reference_block`), so that
its time can also be given in calibrated units that cancel the drift of a
shared machine's speed.
"""

import hashlib
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from packed25519 import difftest, fe25519, ladder, mp_arith, oracle

from spans import Tracer, diff_counts

BASE_U = ladder.BASE_POINT_U
# RFC 7748 section 5.2: one round of k, u = X25519(k, u), k from k = u = 9.
ITERATE_1 = "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"

# Trials per run_suite call in one selftest pass.
SELFTEST_PASS: Tuple[Tuple[str, int], ...] = (
    ("mp", 100), ("fe", 100), ("findings", 1000), ("ladderstep", 10),
)

# Inputs generated during set-up; a run that needs more extends the stream.
PREGENERATED = 256

# The package's public functions the traced run wraps, per layer.
TRACED: Dict[str, Tuple[str, ...]] = {
    "mp_arith": ("mul256", "sqr256", "red512", "add_mod", "sub_mod", "subp"),
    "fe25519": ("mul", "square", "mul121666", "cmov", "freeze", "invert"),
    "ladder": ("ladderstep", "cswap", "mladder", "scalarmult"),
    "oracle": ("double", "add"),
}
_MODULES = {"mp_arith": mp_arith, "fe25519": fe25519, "ladder": ladder,
            "oracle": oracle}


def traced_targets() -> List[Tuple[object, str]]:
    return [(_MODULES[layer], fn) for layer, fns in TRACED.items() for fn in fns]


class Inputs:
    """Seeded stream of 32-byte strings: item i = SHA-256(tag | seed | i)."""

    def __init__(self, tag: str, seed: int, count: int = PREGENERATED):
        self._prefix = f"perfbench/{tag}|{seed}|".encode()
        self._items = [self._make(i) for i in range(count)]

    def _make(self, i: int) -> bytes:
        return hashlib.sha256(self._prefix + str(i).encode()).digest()

    def __getitem__(self, i: int) -> bytes:
        while i >= len(self._items):
            self._items.append(self._make(len(self._items)))
        return self._items[i]


def pass_seed(inputs: Inputs, k: int) -> int:
    """difftest seed of selftest pass k (run_suite takes 64-bit seeds)."""
    return int.from_bytes(inputs[k][:8], "little")


def prechecks() -> List[str]:
    """The reference product, RFC 7748 vectors 1-2 and iterate(1).

    Returns what failed.
    """
    failed = []
    got_ref = bytes(reference_product(_REF_A, _REF_B))
    want_ref = (int.from_bytes(bytes(_REF_A), "little")
                * int.from_bytes(bytes(_REF_B), "little")).to_bytes(64, "little")
    if got_ref != want_ref:
        failed.append(f"reference product: got {got_ref.hex()}, want {want_ref.hex()}")
    for s_hex, u_hex, want in difftest.RFC7748_VECTORS:
        got = ladder.scalarmult(bytes.fromhex(s_hex), bytes.fromhex(u_hex)).hex()
        if got != want:
            failed.append(f"rfc7748 s={s_hex}: got {got}, want {want}")
    got = ladder.scalarmult(BASE_U, BASE_U).hex()
    if got != ITERATE_1:
        failed.append(f"iterate(1): got {got}, want {ITERATE_1}")
    return failed


# -------------------------------------------------------- calibration

# On a shared machine the speed of any CPU-bound Python code drifts by up
# to +-20% over seconds to minutes, which no run length averages away.  So
# each op is bracketed by reference blocks: a fixed amount of pure-Python
# byte-limb arithmetic that uses nothing from the package.  An op's
# calibrated time is its wall time times REF_NOMINAL_NS over the mean time
# of the blocks just before and just after it: the time the op would take
# on a machine that runs one block in exactly REF_NOMINAL_NS.  A change to
# the package moves an op's calibrated time by the same factor as its wall
# time; a change in the machine's speed moves the op and the blocks alike
# and cancels.
REF_PRODUCTS = 400
REF_NOMINAL_NS = 40_000_000
_REF_A = list(hashlib.sha256(b"perfbench/reference|a").digest())
_REF_B = list(hashlib.sha256(b"perfbench/reference|b").digest())


def reference_product(a: List[int], b: List[int]) -> List[int]:
    """Schoolbook product of two 32-byte little-endian limb lists, 64 bytes."""
    r = [0] * 64
    for i in range(32):
        ai = a[i]
        for j in range(32):
            r[i + j] += ai * b[j]
    carry = 0
    for k in range(64):
        t = r[k] + carry
        r[k] = t & 255
        carry = t >> 8
    return r


def reference_block() -> int:
    """Wall time in ns of REF_PRODUCTS reference products."""
    clock = time.perf_counter_ns
    a, b = _REF_A, _REF_B
    t0 = clock()
    for _ in range(REF_PRODUCTS):
        reference_product(a, b)
    return clock() - t0


def calibrated_ns(op) -> float:
    """An op's time in ns at the reference speed (see above)."""
    return op.ns * REF_NOMINAL_NS / op.ref_ns


# ---------------------------------------------------------------- dh

class DhOp(NamedTuple):
    s: bytes
    u: bytes
    out: bytes
    ns: int
    ref_ns: float  # mean time of the reference blocks around the op


class Timed(NamedTuple):
    """One timed loop: its records, op count and per-op call counts.

    busy_ns is the summed time of the timed calls, without the reference
    blocks and the checks around them.
    """

    records: list
    busy_ns: int
    ops: int
    op_counts: List[Dict[str, int]]


def run_dh(inputs: Inputs, seconds: float, start: int = 0,
           max_ops: Optional[int] = None, tracer: Optional[Tracer] = None) -> Timed:
    """Key-agreement loop from op `start` until `seconds` or `max_ops` pass.

    Op 4k+0 is scalarmult(a, 9), 4k+1 scalarmult(b, 9), 4k+2
    scalarmult(a, B) and 4k+3 scalarmult(b, A), with a, b = inputs 2k, 2k+1.
    `start` is a multiple of 4.  At least one op runs.
    """
    clock = time.perf_counter_ns
    records: List[DhOp] = []
    counts: List[Dict[str, int]] = []
    ref_before = reference_block()
    deadline = clock() + seconds * 1e9
    busy = 0
    k = start
    while True:
        pair, role = divmod(k, 4)
        s = inputs[2 * pair + role % 2]
        if role < 2:
            u = BASE_U
        else:
            # op 4k+2 takes B from op 4k+1; op 4k+3 takes A from op 4k+0
            u = records[-1].out if role == 2 else records[-3].out
        before = tracer.snapshot() if tracer else None
        t0 = clock()
        out = ladder.scalarmult(s, u)
        t1 = clock()
        if tracer:
            counts.append(diff_counts(tracer.snapshot(), before))
        ref_after = reference_block()
        records.append(DhOp(s, u, out, t1 - t0, (ref_before + ref_after) / 2))
        ref_before = ref_after
        busy += t1 - t0
        k += 1
        if t1 >= deadline or (max_ops is not None and len(records) >= max_ops):
            return Timed(records, busy, len(records), counts)


def _oracle_x25519(s: bytes, u: bytes) -> bytes:
    x = oracle.affine(oracle.scale(ladder.clamp(s), int.from_bytes(u, "little") % 2**255))
    return (0 if x is None else x).to_bytes(32, "little")


def _openssl_x25519() -> Optional[Callable[[bytes, bytes], bytes]]:
    try:
        from cryptography.hazmat.primitives.asymmetric import x25519
    except ImportError:
        return None

    def exchange(s: bytes, u: bytes) -> bytes:
        try:
            return x25519.X25519PrivateKey.from_private_bytes(s).exchange(
                x25519.X25519PublicKey.from_public_bytes(u))
        except ValueError:
            # OpenSSL refuses an all-zero shared secret
            return bytes(32)

    return exchange


def openssl_available() -> bool:
    return _openssl_x25519() is not None


def check_dh(records: List[DhOp], start: int = 0) -> Tuple[int, List[str]]:
    """Number of failed ops and a description of each.

    An op fails when its output disagrees with the integer oracle or with
    OpenSSL, or when the two shared secrets of its pair differ.  `start` is
    the op index of records[0], a multiple of 4.
    """
    openssl = _openssl_x25519()
    bad: Dict[int, str] = {}
    for i, op in enumerate(records):
        if op.out != _oracle_x25519(op.s, op.u):
            bad[i] = "oracle"
        elif openssl is not None and op.out != openssl(op.s, op.u):
            bad[i] = "openssl"
    for i in range(2, len(records) - 1, 4):
        if records[i].out != records[i + 1].out:
            bad.setdefault(i, "shared secrets differ")
            bad.setdefault(i + 1, "shared secrets differ")
    failed = [f"op {start + i} ({why}): s={records[i].s.hex()} u={records[i].u.hex()} "
              f"got={records[i].out.hex()}" for i, why in sorted(bad.items())]
    return len(failed), failed


# ----------------------------------------------------------- selftest

class Pass(NamedTuple):
    seed: int
    cases: Dict[str, int]
    failures: Dict[str, int]
    counterexamples: Dict[str, str]
    ns: int
    ref_ns: float  # mean time of the reference blocks around the pass


def run_selftest(inputs: Inputs, seconds: float, start: int = 0,
                 max_passes: Optional[int] = None,
                 tracer: Optional[Tracer] = None) -> Timed:
    """Selftest passes from pass `start` until `seconds` or `max_passes` pass.

    Traced, each run_suite call is a span named difftest.run_suite.<suite>.
    """
    clock = time.perf_counter_ns
    records: List[Pass] = []
    ref_before = reference_block()
    deadline = clock() + seconds * 1e9
    busy = 0
    k = start
    while True:
        seed = pass_seed(inputs, k)
        cases, failures, examples = {}, {}, {}
        t0 = clock()
        for suite, trials in SELFTEST_PASS:
            cfg = difftest.TrialConfig(seed=seed, trials=trials, suites=(suite,))
            run_suite = difftest.run_suite
            if tracer:
                run_suite = tracer.wrap(f"difftest.run_suite.{suite}", run_suite)
            report = run_suite(cfg)
            res = report.suites[suite]
            cases[suite], failures[suite] = res.cases, res.failures
            if res.counterexample is not None:
                examples[suite] = res.counterexample
        t1 = clock()
        ref_after = reference_block()
        records.append(Pass(seed, cases, failures, examples, t1 - t0,
                            (ref_before + ref_after) / 2))
        ref_before = ref_after
        busy += t1 - t0
        k += 1
        if t1 >= deadline or (max_passes is not None and len(records) >= max_passes):
            return Timed(records, busy, sum(sum(p.cases.values()) for p in records), [])


def suite_totals(records: List[Pass]) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Checks and failures per suite, summed over passes."""
    cases: Dict[str, int] = {}
    failures: Dict[str, int] = {}
    for p in records:
        for suite in p.cases:
            cases[suite] = cases.get(suite, 0) + p.cases[suite]
            failures[suite] = failures.get(suite, 0) + p.failures[suite]
    return cases, failures


def check_selftest(records: List[Pass], start: int = 0) -> Tuple[int, List[str]]:
    """Failed checks, and each suite's first counterexample per pass."""
    failed = sum(sum(p.failures.values()) for p in records)
    return failed, [f"pass {start + i} seed={p.seed} {suite}: {ex}"
                    for i, p in enumerate(records) for suite, ex in p.counterexamples.items()]


# ------------------------------------------------------------- ledger

def dh_ledger(optimize: int) -> Dict[str, int]:
    """Traced calls one scalarmult makes, as the algorithm implies.

    255 ladder steps of 5 M, 4 S, 4 add, 4 sub, 1 mul121666 and one cswap
    (4 cmov); invert is 254 S + 11 M; then one M, one freeze (subp + cmov)
    and pack, whose assert costs one more subp unless run under -O.
    """
    return {
        "mp_arith.mul256": 1287, "mp_arith.sqr256": 1274,
        "mp_arith.red512": 2561, "mp_arith.add_mod": 1020,
        "mp_arith.sub_mod": 1020, "mp_arith.subp": 1 if optimize else 2,
        "fe25519.mul": 1287, "fe25519.square": 1274,
        "fe25519.mul121666": 255, "fe25519.cmov": 1021,
        "fe25519.freeze": 1, "fe25519.invert": 1,
        "fe25519.invert>fe25519.square": 254, "fe25519.invert>fe25519.mul": 11,
        "ladder.ladderstep": 255, "ladder.cswap": 255,
        "ladder.mladder": 1, "ladder.scalarmult": 1,
        "oracle.double": 0, "oracle.add": 0,
    }


def check_ledger(op_counts: List[Dict[str, int]], optimize: int,
                 start: int = 0) -> List[str]:
    """One line per (op, function) whose traced count differs from the ledger."""
    want = dh_ledger(optimize)
    out = []
    for i, got in enumerate(op_counts):
        for name in sorted(set(want) | {k for k in got if ">" not in k}):
            if got.get(name, 0) != want.get(name, 0):
                out.append(
                    f"ledger: {name} ran {got.get(name, 0)} times in op {start + i}, "
                    f"expected {want.get(name, 0)}; either the tracer missed a "
                    f"binding of it or the algorithm changed")
    return out
