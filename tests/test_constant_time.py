"""No control flow in the arithmetic depends on the data.

Each function runs under `sys.settrace` on edge and seeded random inputs.
The call, line and return events of one run (function name and line number,
in order, nested calls included) are hashed into a digest, and every
function must produce one digest for all of its inputs.  This checks the
structural claim of the README, in the spirit of ct-verif; it is not a
timing measurement, since CPython's integer operations are not
constant-time.  One whole scalarmult (about 1.68 M events, 0.6 s traced on
CPython 3.11 with 2 shared vCPUs) is also checked, over a few secrets and u
values.
"""

import gc
import hashlib
import random
import sys

import pytest

from packed25519 import fe25519, ladder, mp_arith
from packed25519.mp_arith import P

EDGES = [0, 1, P - 1, P, 2 * P - 1, 2**256 - 1]


def le(v):
    return v.to_bytes(32, "little")


def trace_digest(fn, *args):
    """(digest, event count) of the Python events one call of fn makes."""
    h = hashlib.sha256()
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1
        h.update(f"{event} {frame.f_code.co_name} {frame.f_lineno}\n".encode())
        return tracer

    # A collection inside the call would trace the finalizers it runs, so the
    # collector is emptied first and held off until the call returns.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(saved)
        if gc_was_enabled:
            gc.enable()
    return h.hexdigest(), count


def _values(seed, n=4):
    rng = random.Random(seed)
    return [le(v) for v in EDGES] + [le(rng.randrange(2**256)) for _ in range(n)]


def _pairs(seed):
    edges = [le(v) for v in EDGES]
    rng = random.Random(seed)
    return [(a, b) for a in edges for b in edges] + \
        [(le(rng.randrange(2**256)), le(rng.randrange(2**256))) for _ in range(4)]


def _ladder_inputs(seed):
    rng = random.Random(seed)
    cases = [(v, (v, v), (v, v)) for v in (le(e) for e in EDGES)]
    for _ in range(4):
        xp, x1, z1, x2, z2 = (le(rng.randrange(2**256)) for _ in range(5))
        cases.append((xp, (x1, z1), (x2, z2)))
    return cases


CASES = {
    "mul256": (mp_arith.mul256, lambda: _pairs(1)),
    "sqr256": (mp_arith.sqr256, lambda: [(a,) for a in _values(2)]),
    "red512": (mp_arith.red512, lambda: [(lo + hi,) for lo, hi in _pairs(3)]),
    "add_mod": (mp_arith.add_mod, lambda: _pairs(4)),
    "sub_mod": (mp_arith.sub_mod, lambda: _pairs(5)),
    "mul121666": (fe25519.mul121666, lambda: [(a,) for a in _values(6)]),
    "freeze": (fe25519.freeze, lambda: [(a,) for a in _values(7)]),
    "cmov": (fe25519.cmov, lambda: [(a, b, c) for a, b in _pairs(8) for c in (0, 1)]),
    "ladderstep": (ladder.ladderstep, lambda: _ladder_inputs(9)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_control_flow_trace_per_function(name):
    fn, inputs = CASES[name]
    digests = {}
    for args in inputs():
        digest, count = trace_digest(fn, *args)
        assert count > 0
        digests.setdefault(digest, args)
    assert len(digests) == 1, f"{name} takes {len(digests)} paths: {list(digests.values())}"


def test_one_control_flow_trace_per_scalarmult():
    # random u, u = 0 and the non-canonical u = p + 1, each with its own secret
    rng = random.Random(10)
    us = [le(rng.randrange(2**255)), le(0), le(P + 1)]
    digests = {}
    for u in us:
        k = rng.randbytes(32)
        digest, count = trace_digest(ladder.scalarmult, k, u)
        assert count > 0
        digests.setdefault(digest, (k.hex(), u.hex()))
    assert len(digests) == 1, f"scalarmult takes {len(digests)} paths: {list(digests.values())}"


def test_trace_digest_sees_a_data_dependent_branch():
    # negative control: a branch on the data must give two digests
    def branchy(x):
        if x:
            return 1
        return 0

    assert trace_digest(branchy, 0)[0] != trace_digest(branchy, 1)[0]
