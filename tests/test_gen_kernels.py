"""The committed kernel modules are exactly what tools/gen_kernels.py emits,
each is straight-line and stays within the parser's budget, and mul16's
identity and column bounds hold for all inputs."""

import ast
import importlib.util
from pathlib import Path

from packed25519._kernels import mul16

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "tools" / "gen_kernels.py"
# Syntax-tree nodes of the largest generated module before mul16 gained its
# inner Karatsuba level.  The parser's transient peak grows with the node
# count (5190 nodes peaked at 987 KB, a flat 7927-node mul256 at 1586 KB),
# and no bytecode cache is written where PYTHONDONTWRITEBYTECODE is set.
PARSE_BUDGET = 5190


def _generator():
    spec = importlib.util.spec_from_file_location("gen_kernels", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_kernels_match_generator_byte_for_byte():
    rendered = _generator().render()
    assert sorted(p.name for p in rendered) == ["_kernels.py", "_reduce.py", "_square.py"]
    for path, text in rendered.items():
        assert path.read_bytes() == text.encode("utf-8"), f"{path.name} is stale"


# Nodes that branch or loop.  None may appear in generated code, so no input
# can change its control flow: the static complement, for all inputs, of
# tests/test_constant_time.py's traced runs.
BRANCHES = (ast.Assert, ast.If, ast.IfExp, ast.While, ast.For, ast.BoolOp, ast.Try)


def test_every_generated_module_is_straight_line_and_within_the_parse_budget():
    for path, text in _generator().render().items():
        nodes = list(ast.walk(ast.parse(text)))
        assert len(nodes) <= PARSE_BUDGET, f"{path.name} has {len(nodes)} nodes"
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
