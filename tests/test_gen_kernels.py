"""The committed kernel modules are exactly what tools/gen_kernels.py emits,
straight-line and within the parser's budget, and every package module is
within its compile budget and compiles to the same code under python -O.
One table of mutants shows that each proof of tests/_proof.py, the layers'
included, can fail; test_layer_proofs.py runs every proof on the committed
code."""

import ast
import subprocess
import sys
import types

import pytest

from _proof import PACKAGE, PROOFS, REDUCTIONS, Sym, _run_kernel, _same, prove, render, sources

# Syntax-tree nodes of the largest generated module before mul16 gained its
# inner Karatsuba level, and its compile peak by tracemalloc.  The parser's
# transient peak grows with the node count (a flat 7927-node mul256 peaked
# at 1586 KB), and no bytecode cache is written where PYTHONDONTWRITEBYTECODE
# is set.  Nodes under-track reduction bodies, so the compile peak is held
# too, for every module of the package as committed: a generated module's
# committed text is its rendered text byte for byte, and hand-written code
# parses at about 400 bytes per token (the harness peaked at 1383 KB while
# it was the one module difftest.py).
PARSE_BUDGET = 5190
COMPILE_PEAK_BUDGET = 987 * 1024


def test_committed_kernels_match_generator_byte_for_byte():
    rendered = render()
    assert sorted(p.name for p in rendered) == ["_kernels.py", "_linear.py", "_reduce.py", "_square.py"]
    for path, text in rendered.items():
        assert path.read_bytes() == text.encode("utf-8"), f"{path.name} is stale"


# Nodes that branch or loop.  None may appear in generated code, so no input
# can change its control flow; the proofs also run every kernel on values
# whose __bool__, __eq__, __hash__ and __index__ raise.
BRANCHES = (ast.Assert, ast.If, ast.IfExp, ast.While, ast.For, ast.BoolOp, ast.Try)

# The most entries a display in generated code may have.  CPython 3.11 builds a
# tuple or list display of up to 30 entries on the stack, but a longer one
# through a list, one LIST_APPEND per entry: 61 more instructions in each
# 64-limb carry pass.  Unpack targets are not displays and may be longer.
MAX_DISPLAY = 30


def _compile_peak(text, name):
    """tracemalloc's peak, in bytes, while a fresh interpreter compiles text:
    the same text reads a different peak after other allocations."""
    script = ("import sys, tracemalloc\ntext = sys.stdin.read()\ntracemalloc.start()\n"
              "compile(text, sys.argv[1], 'exec')\nprint(tracemalloc.get_traced_memory()[1])")
    proc = subprocess.run([sys.executable, "-c", script, name], input=text, capture_output=True, text=True,
                          check=True)
    return int(proc.stdout)


def test_every_generated_module_is_straight_line_and_within_the_parse_budget():
    for path, text in render().items():
        nodes = list(ast.walk(ast.parse(text)))
        assert len(nodes) <= PARSE_BUDGET, f"{path.name} has {len(nodes)} nodes"
        branches = [f"{type(n).__name__} at line {n.lineno}" for n in nodes if isinstance(n, BRANCHES)]
        assert branches == [], f"{path.name} branches: {branches}"
        long = [f"{len(n.elts)} entries at line {n.lineno}" for n in nodes
                if isinstance(n, (ast.Tuple, ast.List)) and isinstance(n.ctx, ast.Load) and len(n.elts) > MAX_DISPLAY]
        assert long == [], f"{path.name} builds displays through a list: {long}"


# The one run-time range check in generated code: a reduction's top limb, the
# only limb it does not mask, passes through bytes(), which raises ValueError
# outside [0, 256) in every mode.  Every other limb's range rests on the
# proofs, so no other kernel may name bytes.
TOP_CHECK = "bytes(((c >> 8) + (t & 127),))[0]"


def test_the_only_bytes_call_is_each_reductions_top_limb_check():
    found = {}
    for text in render().values():
        for fn in ast.parse(text).body:
            if isinstance(fn, ast.FunctionDef):
                uses = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "bytes"]
                last = fn.body[-1].value
                while isinstance(last, ast.BinOp):  # displays joined by +
                    last = last.right
                found[fn.name] = (len(uses), isinstance(last, ast.Tuple) and ast.unparse(last.elts[-1]) == TOP_CHECK)
    assert set(REDUCTIONS) <= found.keys()
    # (names of bytes, the returned display ends in the check), by kernel
    assert found == {name: (1, True) if name in REDUCTIONS else (0, False) for name in found}, found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_module_is_within_the_compile_budget(path):
    peak = _compile_peak(path.read_text(), path.name)
    assert peak <= COMPILE_PEAK_BUDGET, f"{path.name} peaks at {peak / 1024:.0f} KB in compile"


def _where_O_differs(text, name):
    """None when python -O compiles text to the code the default mode does,
    else the first function whose own code differs.  optimize=1 is what -O
    uses on import: it drops asserts and reads __debug__ as False."""
    plain, optimized = (compile(text, name, "exec", dont_inherit=True, optimize=level) for level in (0, 1))
    if plain == optimized:  # code objects compare their nested functions' code through co_consts
        return None
    while True:
        nested = [(a, b) for a, b in zip(plain.co_consts, optimized.co_consts)
                  if isinstance(a, types.CodeType) and a != b]
        if not nested:
            return f"{plain.co_qualname} at line {plain.co_firstlineno}"
        plain, optimized = nested[0]


def test_python_O_compiles_every_package_module_to_the_same_code():
    """So every check the package makes, its input contracts included, holds
    under python -O as the default-mode tests show."""
    for path in sorted(PACKAGE.glob("*.py")):
        where = _where_O_differs(path.read_text(), path.name)
        assert where is None, f"-O compiles {path.name} differently, first in {where}"
    # negative controls: an assert in a function, a read of __debug__, an
    # assert in a nested function
    fe = (PACKAGE / "fe25519.py").read_text()
    pack = "    return bytes(a[:31] + (a[31] + 256 * (1 - subp(a)[1]),))"
    assert fe.count(pack) == 1
    assert _where_O_differs(fe.replace(pack, "    assert len(a) == 32\n" + pack), "fe25519.py").startswith("pack at")
    assert _where_O_differs("CHECKED = __debug__\n", "debug.py") == "<module> at line 1"
    nested = "def outer():\n    def inner(x):\n        assert x\n        return x\n    return inner\n"
    assert _where_O_differs(nested, "nested.py") == "outer.<locals>.inner at line 2"


def test_a_shift_is_exact_only_on_distinct_bit_places():
    b, c = Sym.atom(0, 1), Sym.atom(0, 1)
    # two bits at one place, a constant on a bit's place, an atom that is not a bit
    for x, bounds in ((b + c, (0, 1)), (b + 2 * c + 1, (0, 2)), (Sym.atom(0, 2), (0, 1))):
        [((atom,), k)] = (x >> 1).poly.items()  # one monomial of one atom
        assert k == 1 and atom[1:] == bounds and all(atom not in m for m in x.poly), f"{x.poly} >> 1 is exact"
    assert _same((b + 2 * c + 4) >> 1, c + 2)


def test_mul16_column_bounds_for_all_inputs():
    cols, seen, _ = _run_kernel("mul16", sources()["_kernels.py"])
    # every value mul16 computes, half sums and inner block columns included
    assert min(v.lo for v in seen) >= 0, "a value can be negative"
    assert max(v.hi for v in seen) == 8 * 1020 * 1020 < 2**23  # an inner middle column
    assert max(col.hi for col in cols) == 16 * 510 * 510 < 2**22


@pytest.mark.parametrize("name, edits, reason", [
    ("red512", [("19*(t >> 7)", "19*(t >> 6)")], "not spec mod p"),  # folds the wrong bits
    ("red512", [("19*(t >> 7)", "(t >> 7)")], "not spec mod p"),  # drops the factor 19
    ("red512", [("(t & 127)", "(t & 255)")], "not spec mod p"),  # keeps bit 7 twice
    # no fold at all: W = V exactly, but the top limb overflows
    ("red512", [(" + 19*(t >> 7)", ""), ("(t & 127)", "t")], "top limb can exceed a byte"),
    ("mul256", [(" - h15)", ")")], "not the product"),  # a Karatsuba middle term kept
    ("mul256", [("(c := l0) & 255", "(c := l0) & 127")], "not the product"),  # limb 0 loses a bit
    ("sqr256", [("l1 = a0*da1\n", "l1 = a0*a1\n")], "not the product"),  # a cross product not doubled
    ("mul16", [("u0*v0", "u0*v1")], "not the schoolbook column"),  # a wrong inner product
    ("subp", [("a0 - 237", "a0 - 236")], "not a - p"),  # one limb of p off by one
    ("mul121666", [("121666*a", "121665*a")], "not spec mod p"),  # the curve constant off by one
    ("cmov", [("a5*n + b5*c", "a5")], "not a when c = 0, b when c = 1"),  # a limb that ignores c
    ("freeze", [("cmov(d, a, borrow)", "cmov(a, d, borrow)")], "not a mod p"),  # the move reversed
    ("invert", [("_nsquare(z2_40_0, 10)", "_nsquare(z2_40_0, 9)")], "not p - 2"),  # a square missing
    ("ladderstep", [("z1 = add(z1, x1)", "z1 = sub(z1, x1)")], "not the oracle's"),
    # two lines swapped: t2 takes x1 before it is squared
    ("ladderstep", [("x1 = square(x1)\n    t2 = sub(z2, x1)", "t2 = sub(z2, x1)\n    x1 = square(x1)")],
     "not the oracle's"),
    ("cswap", [("cmov(z0, z1, swap)", "z0"), ("cmov(z1, z0, swap)", "z1")],
     "not exchange both ratios"),  # only the x registers exchanged
    ("mladder", [("cswap(r0, r1, bit ^ prev)", "cswap(r0, r1, bit)")],
     "not exchanged exactly when bit 253 is 1"),  # never undoes the last swap
    ("mladder", [("range(254, -1, -1)", "range(254, 0, -1)")], "makes 254 steps"),  # bit 0 skipped
    # a branch, a comparison or a table lookup on data raises in its guard
    ("freeze", [("return cmov(d, a, borrow)", "return a if borrow else d")], "control flow depends on symbolic"),
    ("invert", [("z2 = square(a)", "if a == 0:\n        return a\n    z2 = square(a)")], "a comparison reads"),
    ("red512", [("19*(t >> 7)", "(0, 19, 38, 57)[t >> 7]")], "a table is indexed by"),
    ("scalarmult", [("x, z = mladder(n, xp)\n", "x, z = mladder(n, xp)\n    if z == 0:\n        return bytes(32)\n")],
     "a comparison reads"),
    ("scalarmult", [("- x % 8", "- (x % 8 if x % 8 else 0)")], "control flow depends on symbolic"),  # in clamp
    # clamp clears bit 253 of s, keeps bit 2 of s or adds bit 254 of s
    ("scalarmult", [("x % 2**254", "x % 2**253")], "plus bits 3..253 of s"),
    ("scalarmult", [("- x % 8", "- x % 4")], "plus bits 3..253 of s"),
    ("scalarmult", [("x % 2**254", "x % 2**255")], "plus bits 3..253 of s"),
    # cmov with a wrong complement, and a limb looked up by c
    ("cmov", [("n = 1 - c", "n = c")], "not a when c = 0, b when c = 1"),
    ("cmov", [("a5*n + b5*c", "(a5, b5)[c]")], "a table is indexed by"),
    ("unpack", [("0x7F", "0xFF")], r"not u mod 2\^255"),  # keeps bit 255
    # returns W - p: congruent, but not the exact fold
    ("add_mod", [("19*(t >> 7)", "19*(t >> 7) + 19"), ("(t & 127)", "(t & 127) - 128")], "not V - p"),
    # pack's check as an assert, which a comparison guard sees and python -O drops
    ("pack", [("return bytes(a[:31] + (a[31] + 256 * (1 - subp(a)[1]),))",
               "assert subp(a)[1] == 1, 'pack requires a frozen (canonical) element'\n    return bytes(a)")],
     "a comparison reads"),
    ("pack", [("256 * (1 - subp(a)[1])", "256 * subp(a)[1]")], "not a's limbs"),  # the borrow's sense reversed
])
def test_proof_rejects_kernel_mutants(name, edits, reason):
    text = sources()[PROOFS[name][0]]
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises((AssertionError, TypeError), match=reason):
        prove(name, text)
