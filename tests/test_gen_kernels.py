"""The committed kernel modules are exactly what tools/gen_kernels.py emits,
each is straight-line and stays within the parser's budget, mul16's
identity and column bounds hold for all inputs, and so do the reductions'
congruence and their bound below 2p."""

import ast
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from packed25519._kernels import mul16

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "tools" / "gen_kernels.py"
# Syntax-tree nodes of the largest generated module before mul16 gained its
# inner Karatsuba level, and its compile peak by tracemalloc.  The parser's
# transient peak grows with the node count (a flat 7927-node mul256 peaked
# at 1586 KB), and no bytecode cache is written where PYTHONDONTWRITEBYTECODE
# is set.  Nodes under-track reduction bodies, so both are held.
PARSE_BUDGET = 5190
COMPILE_PEAK_BUDGET = 987 * 1024
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


def _run_recorded(fn, *operands):
    """fn's result on integer operands, with every value fn computes."""
    seen = []

    class Recorded(int):
        def __add__(self, other):
            return _record(int(self) + int(other))

        def __sub__(self, other):
            return _record(int(self) - int(other))

        def __mul__(self, other):
            return _record(int(self) * int(other))

        __radd__, __rmul__ = __add__, __mul__

        def __rsub__(self, other):
            return _record(int(other) - int(self))

    def _record(v):
        seen.append(v)
        return Recorded(v)

    return fn(*(tuple(Recorded(x) for x in op) for op in operands)), seen


def test_mul16_is_the_schoolbook_product_for_all_inputs():
    # mul16 is bilinear, with integer coefficients far below R/2 in size.
    # At the Kronecker point a[i] = R^i, b[j] = R^(16j) the monomial a[i]*b[j]
    # becomes R^(i + 16j), a distinct digit for each (i, j), so the base-R
    # digits of column k are its coefficients: they must be 1 where
    # i + j = k and 0 elsewhere.  That proves column k = sum a[i]*b[j] over
    # i + j = k as a polynomial identity.
    R = 2**16
    cols, seen = _run_recorded(mul16, [R**i for i in range(16)], [R**(16 * j) for j in range(16)])
    assert len(cols) == 31
    for k, col in enumerate(cols):
        digits = [(col >> 16 * e) & (R - 1) for e in range(256)]
        assert col >> 16 * 256 == 0
        assert digits == [int(e % 16 + e // 16 == k) for e in range(256)], k
    # Every value mul16 computes on the way, half sums and inner block
    # columns included, also has non-negative coefficients: no digit reads
    # as a negative one (R - small).
    for v in seen:
        assert v >= 0 and all((v >> 16 * e) & (R - 1) < R // 2 for e in range(v.bit_length() // 16 + 1))


def test_mul16_column_bounds_for_all_inputs():
    # Operands are byte limbs or sums of two, at most 510.  Every value
    # mul16 computes is a polynomial with non-negative coefficients (above),
    # so it is largest where every operand is 510.
    cols, seen = _run_recorded(mul16, (510,) * 16, (510,) * 16)
    assert max(seen) == 8 * 1020 * 1020 < 2**23  # an inner middle column
    assert max(cols) == 16 * 510 * 510 < 2**22


class Lin:
    """An integer that a reduction computes, known two ways at once: as a
    linear form over atoms and as an interval.

    The atoms are the input limbs, each in [0, 255], and one fresh quotient
    atom per right shift, which stands for that shift's floor.  x & (2^s - 1)
    is x - 2^s * (x >> s) for every Python int, so the value of a result is
    an identity in the atoms: it holds whatever the quotients are.  The
    interval is plain interval arithmetic, sound for every input."""

    def __init__(self, form, lo, hi):
        self.form, self.lo, self.hi, self.shifts = form, lo, hi, {}

    @classmethod
    def atom(cls, lo, hi):
        return cls({object(): 1}, lo, hi)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Lin) else Lin({1: x}, x, x)

    def __add__(self, other):
        other = Lin.lift(other)
        form = dict(self.form)
        for k, v in other.form.items():
            form[k] = form.get(k, 0) + v
        return Lin(form, self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented  # a reduction is linear in its inputs
        return Lin({a: k * v for a, v in self.form.items()}, *sorted((k * self.lo, k * self.hi)))

    def __sub__(self, other):
        return self + Lin.lift(other) * -1

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return Lin.lift(other) - self

    def __rshift__(self, s):
        # the same shift of the same value is the same quotient atom
        if s not in self.shifts:
            self.shifts[s] = Lin.atom(self.lo >> s, self.hi >> s)
        return self.shifts[s]

    def __and__(self, mask):
        s = mask.bit_length()
        assert mask == 2**s - 1
        return Lin((self - (self >> s) * 2**s).form, 0, mask)

    def __bool__(self):
        raise TypeError("control flow depends on limb data")


def _value(limbs):
    return sum(x * 2**(8 * k) for k, x in enumerate(limbs))


# Each reduction of the generated modules: its operands' widths and the
# integer it is congruent to mod p.
REDUCTIONS = {
    "red38": ((64,), _value),
    "add_mod": ((32, 32), lambda a, b: _value(a) + _value(b)),
    "sub_mod": ((32, 32), lambda a, b: _value(a) - _value(b)),
    "mul121666": ((32,), lambda a: 121666 * _value(a)),
}
# The carry into the top limb, at most, for any byte input.
TOP_CARRY = {"red38": 39, "add_mod": 2, "sub_mod": 5, "mul121666": 1}


def _prove_reduction(text, name):
    """Prove, for every byte input, that the reduction `name` of the module
    source `text` returns W = spec (mod p) with 0 <= W < 2p, and return the
    largest carry into its top limb.  It runs on Lin operands with bytes()
    bound to tuple, so that it returns its 32 entries unchecked."""
    namespace = {"bytes": tuple}
    exec(compile(text, name, "exec"), namespace)
    widths, spec = REDUCTIONS[name]
    operands = [[Lin.atom(0, 255) for _ in range(n)] for n in widths]
    out = namespace[name](*operands)
    w = _value(out)
    # algebraic: W - spec is p times an integer combination of the atoms
    assert all(v % P == 0 for v in (w - spec(*operands)).form.values()), f"{name}: W is not spec mod p"
    # range: every entry is a byte; for the unmasked top limb, (L >> 248) +
    # (t & 127), that says the lower part L is never negative and its carry
    # plus 127 stays below 256
    assert all(x.lo >= 0 for x in out), f"{name}: the lower part can be negative"
    assert all(x.hi <= 255 for x in out), f"{name}: the top limb can exceed a byte"
    assert w.hi < 2 * P, f"{name}: W can reach 2p"
    return out[-1].hi - 127


def test_reductions_are_congruent_and_below_2p_for_all_inputs():
    # Every column is monotone in the byte limbs, so interval arithmetic is
    # exact on the lower part: its bounds are its values at the extreme
    # inputs (for sub_mod, a = 2^256 - 1 with b = 0 and the reverse).
    # mul121666's first carry pass brings its top column to about 2^25; the
    # one-pass fold after it then carries at most 1.
    rendered = _generator().render().values()
    for name in REDUCTIONS:
        text = next(t for t in rendered if f"\ndef {name}(" in t)
        assert _prove_reduction(text, name) == TOP_CARRY[name], name


@pytest.mark.parametrize("edits, reason", [
    ([("19*(t >> 7)", "19*(t >> 6)")], "not spec mod p"),  # folds the wrong bits
    ([("19*(t >> 7)", "(t >> 7)")], "not spec mod p"),  # drops the factor 19
    ([("(t & 127)", "(t & 255)")], "not spec mod p"),  # keeps bit 7 twice
    # no fold at all: W = V exactly, but the top limb overflows
    ([(" + 19*(t >> 7)", ""), ("(t & 127)", "t")], "top limb can exceed a byte"),
])
def test_reduction_proof_rejects_mutants_of_the_generated_code(edits, reason):
    generator = _generator()
    text = generator.render()[generator.REDUCE]
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(AssertionError, match=reason):
        _prove_reduction(text, "red38")
