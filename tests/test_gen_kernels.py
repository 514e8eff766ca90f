"""The committed kernel modules are exactly what tools/gen_kernels.py emits,
each is straight-line and stays within the parser's budget, every module of
the package stays within its compile budget, and one symbolic evaluator
proves every generated kernel but cmov for all inputs: mul16's columns, the
exact products of mul256 and sqr256, the reductions' congruence and their
bound below 2p, and subp's difference and borrow."""

import ast
import functools
import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "tools" / "gen_kernels.py"
# Syntax-tree nodes of the largest generated module before mul16 gained its
# inner Karatsuba level, and its compile peak by tracemalloc.  The parser's
# transient peak grows with the node count (a flat 7927-node mul256 peaked
# at 1586 KB), and no bytecode cache is written where PYTHONDONTWRITEBYTECODE
# is set.  Nodes under-track reduction bodies, so both are held for generated
# modules.  The compile peak is held for every module of the package too:
# hand-written code parses at about 400 bytes per token, and the harness
# peaked at 1383 KB while it was the one module difftest.py.
PARSE_BUDGET = 5190
COMPILE_PEAK_BUDGET = 987 * 1024
PACKAGE = ROOT / "src" / "packed25519"
P = 2**255 - 19


def _generator():
    spec = importlib.util.spec_from_file_location("gen_kernels", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_kernels_match_generator_byte_for_byte():
    rendered = _generator().render()
    assert sorted(p.name for p in rendered) == ["_kernels.py", "_linear.py", "_reduce.py", "_square.py"]
    for path, text in rendered.items():
        assert path.read_bytes() == text.encode("utf-8"), f"{path.name} is stale"


# Nodes that branch or loop.  None may appear in generated code, so no input
# can change its control flow: the static complement, for all inputs, of
# tests/test_constant_time.py's traced runs.
BRANCHES = (ast.Assert, ast.If, ast.IfExp, ast.While, ast.For, ast.BoolOp, ast.Try)


def _compile_peak(text, name):
    """tracemalloc's peak, in bytes, while compiling text."""
    tracemalloc.start()
    try:
        compile(text, name, "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_generated_module_is_straight_line_and_within_the_parse_budget():
    for path, text in _generator().render().items():
        nodes = list(ast.walk(ast.parse(text)))
        assert len(nodes) <= PARSE_BUDGET, f"{path.name} has {len(nodes)} nodes"
        peak = _compile_peak(text, path.name)
        assert peak <= COMPILE_PEAK_BUDGET, f"{path.name} peaks at {peak / 1024:.0f} KB in compile"
        branches = [f"{type(n).__name__} at line {n.lineno}" for n in nodes if isinstance(n, BRANCHES)]
        assert branches == [], f"{path.name} branches: {branches}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_module_is_within_the_compile_budget(path):
    peak = _compile_peak(path.read_text(), path.name)
    assert peak <= COMPILE_PEAK_BUDGET, f"{path.name} peaks at {peak / 1024:.0f} KB in compile"


class Sym:
    """An integer a generated kernel computes, known two ways at once: as a
    polynomial with integer coefficients over atoms, and as an interval.

    The atoms are the input limbs and one fresh quotient atom per right
    shift, which stands for that shift's floor.  x & (2^s - 1) is
    x - 2^s * (x >> s) for every Python int, so an identity between the
    polynomials of two results holds whatever the quotients are.  Each
    operation keeps the intersection of two intervals, both sound for every
    input: the one it computes from its operands' intervals, which keeps a
    carry chain's bounds, and the one its polynomial implies term by term,
    which sees that a Karatsuba middle s - l - h is a sum of products.  A
    monomial is a sorted tuple of atoms, and an atom is (id, lo, hi)."""

    log = []  # every value built since the last reset
    _ids = itertools.count()

    def __init__(self, poly, lo, hi):
        self.poly = {m: k for m, k in poly.items() if k}
        plo = phi = 0
        for mono, k in self.poly.items():
            mlo = mhi = k
            for _, a, b in mono:
                ends = (mlo * a, mlo * b, mhi * a, mhi * b)
                mlo, mhi = min(ends), max(ends)
            plo, phi = plo + mlo, phi + mhi
        self.lo, self.hi, self.shifts = max(lo, plo), min(hi, phi), {}
        Sym.log.append(self)

    @classmethod
    def atom(cls, lo, hi):
        return cls({((next(cls._ids), lo, hi),): 1}, lo, hi)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Sym) else Sym({(): x}, x, x)

    def __add__(self, other, sign=1):
        other = Sym.lift(other)
        poly = dict(self.poly)
        for m, k in other.poly.items():
            poly[m] = poly.get(m, 0) + sign * k
        lo, hi = sorted((sign * other.lo, sign * other.hi))
        return Sym(poly, self.lo + lo, self.hi + hi)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return Sym({m: -k for m, k in self.poly.items()}, -self.hi, -self.lo)

    def __mul__(self, other):
        other = Sym.lift(other)
        poly = {}
        for (m1, k1), (m2, k2) in itertools.product(self.poly.items(), other.poly.items()):
            m = tuple(sorted(m1 + m2))
            poly[m] = poly.get(m, 0) + k1 * k2
        ends = [x * y for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        return Sym(poly, min(ends), max(ends))

    __radd__, __rmul__ = __add__, __mul__

    def __rshift__(self, s):
        # the same shift of the same value is the same quotient atom
        if s not in self.shifts:
            self.shifts[s] = Sym.atom(self.lo >> s, self.hi >> s)
        return self.shifts[s]

    def __and__(self, mask):
        s = mask.bit_length()
        assert mask == 2**s - 1
        return Sym((self - (self >> s) * 2**s).poly, 0, mask)

    def __bool__(self):
        raise TypeError("control flow depends on limb data")


def _value(limbs):
    return sum(x * 2**(8 * k) for k, x in enumerate(limbs))


def _mul16(cols, seen, a, b):
    # operands are byte limbs or sums of two, at most 510
    assert len(cols) == 31
    for k, col in enumerate(cols):
        schoolbook = sum(a[i] * b[k - i] for i in range(max(0, k - 15), min(k, 15) + 1))
        assert not (col - schoolbook).poly, f"column {k} is not the schoolbook column"


def _product(spec):
    def claim(out, seen, *operands):
        assert not (_value(out) - spec(*map(_value, operands))).poly, "value(out) is not the product"
        assert all(0 <= x.lo and x.hi <= 255 for x in out), "a limb can leave [0, 255]"
    return claim


def _reduction(spec, top_carry):
    """W = spec (mod p) and 0 <= W < 2p, with the given carry into the top
    limb, for every byte input."""
    def claim(out, seen, *operands):
        w = _value(out)
        # algebraic: W - spec is p times an integer combination of the atoms
        assert all(k % P == 0 for k in (w - spec(*map(_value, operands))).poly.values()), "not spec mod p"
        # range: every entry is a byte; for the unmasked top limb, (L >> 248)
        # + (t & 127), that says the lower part L is never negative and its
        # carry plus 127 stays below 256
        assert all(x.lo >= 0 for x in out), "the lower part can be negative"
        assert all(x.hi <= 255 for x in out), "the top limb can exceed a byte"
        assert w.hi < 2 * P, "W can reach 2p"
        assert out[-1].hi - 127 == top_carry
    return claim


def _subp(out, seen, a):
    d, borrow = out
    assert not (_value(d) - (_value(a) - P + borrow * 2**256)).poly, "value(d) is not a - p + 2^256 borrow"
    assert all(0 <= x.lo and x.hi <= 255 for x in d), "a limb can leave [0, 255]"
    assert 0 <= borrow.lo and borrow.hi <= 1, "the borrow can leave [0, 1]"


# Every generated kernel but cmov (XOR is not polynomial): its module, its
# operands' widths, the bound of their limbs and its claim.  For byte inputs
# the carry into a reduction's top limb is at most 39, 2, 5 and 1, so its
# result is below 167, 130, 133 and 129 times 2^248, all below 2p.
KERNELS = {
    "mul16": ("_kernels.py", (16, 16), 510, _mul16),
    "mul256": ("_kernels.py", (32, 32), 255, _product(lambda a, b: a * b)),
    "sqr256": ("_square.py", (32,), 255, _product(lambda a: a * a)),
    "red38": ("_reduce.py", (64,), 255, _reduction(lambda m: m, 39)),
    "add_mod": ("_reduce.py", (32, 32), 255, _reduction(lambda a, b: a + b, 2)),
    "sub_mod": ("_reduce.py", (32, 32), 255, _reduction(lambda a, b: a - b, 5)),
    "mul121666": ("_linear.py", (32,), 255, _reduction(lambda a: 121666 * a, 1)),
    "subp": ("_linear.py", (32,), 255, _subp),
}


@functools.cache
def _sources():
    return {path.name: text for path, text in _generator().render().items()}


def _run(name, text):
    """Run the kernel `name` of the module source `text` on atoms, with
    bytes() bound to tuple so that its entries come back unchecked; return
    its result, every value it built and its operands."""
    _, widths, bound, _ = KERNELS[name]
    namespace = {"bytes": tuple}
    exec(compile(text, name, "exec"), namespace)
    Sym.log = []
    operands = [[Sym.atom(0, bound) for _ in range(n)] for n in widths]
    out = namespace[name](*operands)
    seen, Sym.log = Sym.log, []
    return out, seen, operands


def _prove(name, text):
    """Run the kernel `name` of `text` on atoms and assert its claim."""
    out, seen, operands = _run(name, text)
    KERNELS[name][3](out, seen, *operands)


def test_mul16_is_the_schoolbook_product_for_all_inputs():
    _prove("mul16", _sources()["_kernels.py"])


def test_mul16_column_bounds_for_all_inputs():
    cols, seen, _ = _run("mul16", _sources()["_kernels.py"])
    # every value mul16 computes, half sums and inner block columns included
    assert min(v.lo for v in seen) >= 0, "a value can be negative"
    assert max(v.hi for v in seen) == 8 * 1020 * 1020 < 2**23  # an inner middle column
    assert max(col.hi for col in cols) == 16 * 510 * 510 < 2**22


@pytest.mark.parametrize("name", [name for name in KERNELS if name != "mul16"])
def test_generated_kernel_is_proved_for_all_inputs(name):
    _prove(name, _sources()[KERNELS[name][0]])


@pytest.mark.parametrize("name, edits, reason", [
    ("red38", [("19*(t >> 7)", "19*(t >> 6)")], "not spec mod p"),  # folds the wrong bits
    ("red38", [("19*(t >> 7)", "(t >> 7)")], "not spec mod p"),  # drops the factor 19
    ("red38", [("(t & 127)", "(t & 255)")], "not spec mod p"),  # keeps bit 7 twice
    # no fold at all: W = V exactly, but the top limb overflows
    ("red38", [(" + 19*(t >> 7)", ""), ("(t & 127)", "t")], "top limb can exceed a byte"),
    ("mul256", [(" - h15)", ")")], "not the product"),  # a Karatsuba middle term kept
    ("mul256", [("(c := l0) & 255", "(c := l0) & 127")], "not the product"),  # limb 0 loses a bit
    ("sqr256", [("l1 = a0*da1\n", "l1 = a0*a1\n")], "not the product"),  # a cross product not doubled
    ("mul16", [("u0*v0", "u0*v1")], "not the schoolbook column"),  # a wrong inner product
    ("subp", [("a0 - 237", "a0 - 236")], "not a - p"),  # one limb of p off by one
])
def test_proof_rejects_kernel_mutants(name, edits, reason):
    text = _sources()[KERNELS[name][0]]
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(AssertionError, match=reason):
        _prove(name, text)
