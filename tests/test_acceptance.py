"""End-to-end acceptance checks, one test per criterion.

Every expected value is exact (tolerance zero): limb kernels against big
integers, the ladder against the recursive reference, byte-level vectors
against RFC 7748, plus the negative controls that prove the harness would
notice if any of it were broken.  Each test prints a single summary line;
run with `pytest tests/test_acceptance.py -v -s` to see them as they go.

The random streams are the pinned counter-mode SHA-256 generator from
`difftest`, seed 1 throughout, so two runs check byte-identical inputs.
"""

import time

from packed25519 import difftest, faults, oracle
from packed25519.cli import iterate
from packed25519.difftest import TrialConfig, run_suite
from packed25519.ladder import BASE_POINT_U, clamp, mladder, scalarmult

SEED = 1
P = oracle.P


def le(v):
    return v.to_bytes(32, "little")


def val(b):
    return int.from_bytes(b, "little")


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


def _run(suite, trials):
    report = run_suite(TrialConfig(seed=SEED, trials=trials, suites=(suite,)))
    res = report.suites[suite]
    assert report.ok, f"{suite}: {res.failures} failures, first: {res.counterexample}"
    return res.cases, report.elapsed_s


def test_c1_multiplier_and_squarer_against_big_integers():
    # full edge-corpus cross product plus 10,000 seeded random pairs
    cases, dt = _run("mp", 10_000)
    _passed(f"C1 mul256/sqr256 vs integers ({cases} checks, {dt:.1f}s)")


def test_c2_reduction_congruent_and_below_2p():
    # red512 output congruent to input and < 2p, 100,000 random 512-bit
    # inputs plus the edge corpus
    cases, dt = _run("findings", 100_000)
    _passed(f"C2 red512 < 2p + congruence ({cases} checks, {dt:.1f}s)")


def test_c3_field_layer_congruences_and_inversion():
    # 10,000 trials per field operation; "every tenth trial" makes exactly
    # 1,000 nonzero inversion round trips, and invert(0) == 0 and
    # invert(2) == 2^254 - 9 run as fixed checks inside the suite
    cases, dt = _run("fe", 10_000)
    _passed(f"C3 field ops + invert ({cases} checks, {dt:.1f}s)")


def test_c4_ladderstep_against_doubling_and_addition_formulas():
    # 1,000 random projective states plus the three worked examples
    cases, dt = _run("ladderstep", 1_000)
    _passed(f"C4 ladderstep vs formulas ({cases} checks, {dt:.1f}s)")


def test_c5_full_ladder_against_recursive_reference():
    # 200 random clamped scalars with random u < p, plus the edges
    # (2^254, 9), (2^254, 0) with its degenerate u and (2^254 + 8, 9),
    # componentwise mod p
    cases, dt = _run("mladder", 200)
    _passed(f"C5 mladder vs reference ladder ({cases} checks, {dt:.1f}s)")


def test_c6_byte_level_vectors_and_diffie_hellman():
    t0 = time.perf_counter()
    for s_hex, u_hex, want_hex in difftest.RFC7748_VECTORS:
        got = scalarmult(bytes.fromhex(s_hex), bytes.fromhex(u_hex))
        assert got.hex() == want_hex
        # the byte-level vector must also be what the integer reference says,
        # clamp included
        assert oracle.x25519(val(bytes.fromhex(s_hex)), val(bytes.fromhex(u_hex))) == val(got)

    assert iterate(1).hex() == \
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
    t1 = time.perf_counter()
    assert iterate(1000).hex() == \
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    t2 = time.perf_counter()
    rate = 1000 / (t2 - t1)

    for k in range(50):
        st = difftest._Stream(SEED, "dh", k)
        a, b = st.u256(), st.u256()
        pub_a = scalarmult(a, BASE_POINT_U)
        pub_b = scalarmult(b, BASE_POINT_U)
        shared = scalarmult(a, pub_b)
        assert shared == scalarmult(b, pub_a)
        assert val(shared) == oracle.x25519(val(a), val(pub_b))

    dt = time.perf_counter() - t0
    _passed(f"C6 RFC 7748 vectors, iterate(1)/iterate(1000), 50 DH pairs "
            f"({dt:.0f}s total, {rate:.1f} scalarmults/s)")


def test_c7_negative_controls():
    # (a) a build with corrupted kernels must fail every suite, each with a
    # recorded counterexample
    with faults.inject("mul256", "red512"):
        report = run_suite(TrialConfig(seed=SEED, trials=5))
    assert not report.ok
    for name in difftest.SUITE_NAMES:
        res = report.suites[name]
        assert res.failures > 0, f"fault injection went unnoticed in {name}"
        assert res.counterexample is not None

    # (b) odd scalars: the iterative ladder returns the un-swapped slot,
    # x((n+1)P), which the recursive reference exposes
    for n in (2**254 + 1, 2**254 + 99):
        X, Z = mladder(n, le(9))
        got = oracle.Ratio(val(X) % P, val(Z) % P)
        want_n, want_n1 = oracle.ladder(n, oracle.Ratio(9, 1))
        assert not oracle.equiv(got, want_n)
        assert got == want_n1

    _passed("C7 fault injection caught in all 6 suites; odd-scalar divergence shown")


def test_c8_clamp_image_membership():
    t0 = time.perf_counter()
    for k in range(10_000):
        st = difftest._Stream(SEED, "clamp", k)
        c = clamp(st.u256())
        assert c % 8 == 0 and c >> 254 == 1 and (c - 2**254) >> 3 < 2**251
    for s, want in ((0, 2**254), (7, 2**254), (2**256 - 1, 2**255 - 8),
                    (2**254, 2**254), (2**255 - 8, 2**255 - 8)):
        assert clamp(le(s)) == want
    dt = time.perf_counter() - t0
    _passed(f"C8 clamp image membership (10,005 checks, {dt:.1f}s)")
