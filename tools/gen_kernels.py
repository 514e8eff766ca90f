"""Emit the straight-line kernel modules of src/packed25519.

    python tools/gen_kernels.py

This docstring is the one account of the generated kernels: their shapes,
their bounds and why they are split over modules.  Each generated module
carries only a title, a do-not-edit banner and a pointer here, and
tests/test_gen_kernels.py holds it to render()'s output byte for byte.

Every kernel of mp_arith is written here, spelled out without loops so that
CPython runs it as a few bytecodes and nothing else.  mp_arith re-exports
each one under its own name with no wrapper frame, so each carries a
one-line docstring and its fixed-width unpack is the length check: a wrong
length raises ValueError in every mode.  Every kernel returns its limbs as a
tuple of ints, and takes any sequence of them, a bytes included: CPython
3.11 unpacks a tuple on its specialized path, but never specializes a call
of bytes() or the unpack of a bytes.  A carry display is the tuple display
of the entries `(c := (c >> 8) + col) & 255`, a carry pass over the columns
col from the bottom up.  Every display of more than MAX_DISPLAY = 30
entries is written as tuples of at most 30 entries joined by `+`, the same
entries in the same order: CPython 3.11 compiles a display of up to 30
entries to one BUILD_TUPLE on the stack, but a longer one to BUILD_LIST,
one LIST_APPEND per entry and LIST_TO_TUPLE.  The walrus carry still runs
left to right across the joins.  Four modules are written.

_kernels.py, product scanning with one additive Karatsuba level in each of
its two functions:

  mul16(a, b)       the 31 column sums of a 16x16-limb product: column k is
                    the sum of a[i]*b[j] over i + j = k.  Its operands are
                    byte limbs or sums of two byte limbs, up to 510.
                    Inside, one level over 8-limb halves: the inner blocks
                    l = x0*y0, (x0+x1)*(y0+y1) and h = x1*y1 take 192
                    products instead of 256, and the middle column j is that
                    block's column j minus l[j] and h[j].  The inner half
                    sums reach 1020, every inner block column stays below
                    2^23 and every returned column below 2^22.
  mul256(a, b)      the 64 limbs of a 256x256-bit product: three mul16
                    calls on tuple displays of the 16-limb halves and half
                    sums, l = a0*b0, s = (a0+a1)*(b0+b1) and h = a1*b1, then
                    one carry display over their columns at 0, 16 and 32
                    with the middle column k taken as s[k] - l[k] - h[k].
                    Each column sum is an exact polynomial coefficient, so
                    a middle column is never negative and needs no carry or
                    sign mask of its own.

_square.py:

  sqr256(a)         the same 64 limbs for a*a in one body, with mul256's
                    outer level: the low and high 16-limb square blocks l
                    and h as locals, the block of the half sums t inside the
                    carry display.  Each cross product a[i]*a[j] with i < j
                    is written once, as a[i]*da[j] against the doubled limb
                    da[j] = a[j] + a[j] computed once (and t[i]*dt[j] in the
                    middle block), so no column is multiplied by 2: 408
                    products.

_reduce.py and _linear.py, the reductions mod p and the linear kernels.
One template writes every reduction: given 32 column expressions, it takes
the top column t, folds its bits 7 and up into column 0 as 19 (2^255 = 19
mod p) and carries the columns once, in the same carry display that ends
mul256 and sqr256, with t & 127 added to the unmasked top limb.  For the
column total V it returns exactly W = V - p*(t >> 7), the same residue, an
identity for integer columns of any sign: tests/_proof.py proves it for each
reduction, mul121666 for the t it computes.  Every limb but the top one is
masked to a byte, and the top limb passes through TOP_CHECK, the only
bytes() call in generated code: bytes() raises ValueError in the
reduction's own frame, in every mode and with no branch, when the top limb,
and so W, falls outside [0, 2^256).  Columns may be negative or exceed a
byte.  For byte inputs the carry into the top limb is at most 39 (red512),
2 (add_mod), 5 (sub_mod) and 1 (mul121666), so W < 2p and one conditional
subtraction canonicalizes.

  red512(m)         column k is m[k] + 38*m[k+32]: 64 columns, the high half
                    folded in as 38 (2^256 = 38 mod p).
  add_mod(a, b)     column k is a[k] + b[k].
  sub_mod(a, b)     column k is a[k] - b[k] + 4*p[k]: 4p is larger than any
                    256-bit operand, so V is positive.
  mul121666(a)      one plain carry pass over the columns 121666*a[k] first,
                    then the template on the carried limbs and the top
                    column (c >> 8) + 121666*a[31].  Its columns reach 2^25,
                    so in one pass the carry into the top limb would be
                    about 2^17; after the first pass it is at most 1.
  subp(a)           (a - p) mod 2^256 and the borrow: one carry display over
                    a[k] - p[k] with every limb masked, then -(c >> 8);
                    `>> 8` floors, so a borrow is a carry of -1.
  cmov(a, b, c)     a[k]*n + b[k]*c for n = 1 - c: a when c = 0, b when c = 1.

No linear kernel calls red512, so red512 counts only reductions of
products.  No other kernel checks a limb at run time: the masked limbs, the
top limb c >> 8 of mul256 and sqr256, and every limb of subp and cmov are
bytes for byte inputs by tests/_proof.py alone, and fe25519.pack's bytes()
checks all 32 limbs of X25519's output.  No generated function contains an
assert or any other branch, and none holds a fault hook (packed25519.faults
rebinds names from outside): tests/test_gen_kernels.py rejects every branch
node.

tests/_proof.py proves every claim above for all byte inputs: it runs
render()'s text on values that are at once polynomials over atoms and
intervals.

The kernels are split over modules because the parser's transient peak is
per module and grows with the source's size, and every process parses the
source where no bytecode cache is written (PYTHONDONTWRITEBYTECODE).  So
sqr256 lives apart from mul256, and the linear kernels apart from the
reductions: tests/test_gen_kernels.py holds every module to a budget of
syntax-tree nodes and of compile memory.  README's design notes give the
measured peaks.

Only the standard library is used.
"""

from pathlib import Path
from typing import Callable, Dict, List

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "packed25519"
KERNELS = PACKAGE / "_kernels.py"
SQUARE = PACKAGE / "_square.py"
REDUCE = PACKAGE / "_reduce.py"
LINEAR = PACKAGE / "_linear.py"
N = 16  # limbs per block
H = N // 2  # limbs per inner half of a block
LIMBS = 2 * N  # limbs of a field element
P = 2**255 - 19
P_LIMBS = P.to_bytes(LIMBS, "little")
FOURP = tuple(4 * x for x in P_LIMBS)  # 4p as 32 columns, for sub_mod
MAX_DISPLAY = 30  # entries CPython 3.11 builds on the stack, not through a list
# The range check on a reduction's unmasked top limb: bytes() raises ValueError
# outside [0, 256), in every mode, with no branch.
TOP_CHECK = "bytes(((c >> 8) + (t & 127),))[0]"

Col = Callable[[int], str]


def _names(prefix: str, n: int, start: int = 0) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(start, start + n))


def _head(signature: str, doc: str, operands: str, width: int = LIMBS) -> List[str]:
    """The def line, the docstring and a fixed-width unpack of each operand."""
    return [f"def {signature}:", f'    """{doc}"""'] + [f"    {_names(x, width)} = {x}" for x in operands]


def _mul_col(x: str, y: str, k: int, n: int, start: int = 0) -> str:
    """Column k of the n x n product of limbs x{start}.. and y{start}..."""
    return " + ".join(f"{x}{start + i}*{y}{start + k - i}"
                      for i in range(max(0, k - n + 1), min(k, n - 1) + 1))


def _sqr_col(x: str, k: int, n: int, start: int = 0) -> str:
    """Column k of the square of limbs x{start}..: each cross product once,
    x{i}*dx{j} with i < j against the doubled limb dx{j} = 2*x{j}."""
    terms = [f"{x}{start + i}*d{x}{start + k - i}" for i in range(max(0, k - n + 1), (k + 1) // 2)]
    if k % 2 == 0:
        terms.append(f"{x}{start + k // 2}*{x}{start + k // 2}")
    return " + ".join(terms)


def _doubled(x: str, n: int, start: int = 0) -> List[str]:
    """dx{j} = x{j} + x{j} for every limb _sqr_col takes doubled."""
    return [f"    d{x}{j} = {x}{j} + {x}{j}" for j in range(start + 1, start + n)]


def _karatsuba(n: int, lo: Col, mid: Col, hi: Col) -> List[str]:
    """The 4n - 1 columns of lo + 2^(8n)*(mid - lo - hi) + 2^(16n)*hi for
    three blocks of 2n - 1 columns each, given by column index."""
    cols = []
    for k in range(4 * n - 1):
        terms = []
        if k < 2 * n - 1:
            terms.append(lo(k))
        if 0 <= k - n < 2 * n - 1:
            terms.append(f"{mid(k - n)} - {lo(k - n)} - {hi(k - n)}")
        if k >= 2 * n:
            terms.append(hi(k - 2 * n))
        cols.append(" + ".join(terms))
    return cols


def _display(entries: List[str]) -> List[str]:
    """The lines inside `(` and `)` of one display of the entries: tuples of
    at most MAX_DISPLAY entries, joined by `) + (`."""
    lines = []
    for i in range(0, len(entries), MAX_DISPLAY):
        if i:
            lines.append("    ) + (")
        lines += [f"        {e}," for e in entries[i:i + MAX_DISPLAY]]
    return lines


def _carry(cols: List[str]) -> List[str]:
    """The entries of one carry pass over the columns, each masked to a byte."""
    return [f"(c := {col if k == 0 else f'(c >> 8) + {col}'}) & 255" for k, col in enumerate(cols)]


def _return(entries: List[str], tail: str = "") -> List[str]:
    """The `return` of one display of the entries, then `tail`."""
    return ["    return ("] + _display(entries) + [f"    ){tail}"]


def _mul16() -> List[str]:
    lines = ["def mul16(a, b):",
             f"    {_names('a', N)} = a",
             f"    {_names('b', N)} = b"]
    lines += [f"    u{i} = a{i} + a{i + H}" for i in range(H)]
    lines += [f"    v{i} = b{i} + b{i + H}" for i in range(H)]
    lines += [f"    l{k} = {_mul_col('a', 'b', k, H)}" for k in range(2 * H - 1)]
    lines += [f"    h{k} = {_mul_col('a', 'b', k, H, H)}" for k in range(2 * H - 1)]
    cols = _karatsuba(H, lambda j: f"l{j}", lambda j: _mul_col("u", "v", j, H), lambda j: f"h{j}")
    return lines + _return(cols)


def _mul256() -> List[str]:
    sums_a = ", ".join(f"a{i} + a{i + N}" for i in range(N))
    sums_b = ", ".join(f"b{i} + b{i + N}" for i in range(N))
    lines = _head("mul256(a, b)", "256x256->512-bit product of packed little-endian limbs.", "ab")
    for block, x, y in (("l", _names("a", N), _names("b", N)),
                        ("s", sums_a, sums_b),
                        ("h", _names("a", N, N), _names("b", N, N))):
        lines.append(f"    {_names(block, 2 * N - 1)} = mul16(({x}), ({y}))")
    lines += _return(_carry(_karatsuba(N, lambda j: f"l{j}", lambda j: f"s{j}", lambda j: f"h{j}"))
                     + ["c >> 8"])
    return lines


def _sqr256() -> List[str]:
    lines = _head("sqr256(a)", "256-bit squaring; same value as mul256(a, a), each cross product once.", "a")
    lines += [f"    t{i} = a{i} + a{i + N}" for i in range(N)]
    lines += _doubled("a", N) + _doubled("a", N, N) + _doubled("t", N)
    lines += [f"    l{k} = {_sqr_col('a', k, N)}" for k in range(2 * N - 1)]
    lines += [f"    h{k} = {_sqr_col('a', k, N, N)}" for k in range(2 * N - 1)]
    lines += _return(_carry(_karatsuba(N, lambda j: f"l{j}", lambda j: _sqr_col("t", j, N),
                                       lambda j: f"h{j}")) + ["c >> 8"])
    return lines


def _red(head: List[str], col: Col) -> List[str]:
    """The reduction mod p of the 32 columns col(0), ..., col(31) in one
    carry pass: bits 7 and up of the top column t are folded into column 0
    as 19 before the carry, and bits 0..6 of t join the unmasked top limb."""
    return (head + [f"    t = {col(LIMBS - 1)}"]
            + _return(_carry([f"{col(0)} + 19*(t >> 7)"] + [col(k) for k in range(1, LIMBS - 1)])
                      + [TOP_CHECK]))


def _mul121666() -> List[str]:
    """One plain carry pass over the columns 121666*a[k], then _red on the
    carried limbs."""
    lines = _head("mul121666(a)", "Multiply by the ladder constant 121666 = (A + 2) / 4; result < 2p.", "a")
    for k in range(LIMBS - 1):
        lines += [f"    c = {'' if k == 0 else '(c >> 8) + '}121666*a{k}", f"    r{k} = c & 255"]
    return _red(lines, lambda k: f"r{k}" if k < LIMBS - 1 else f"(c >> 8) + 121666*a{k}")


def _subp() -> List[str]:
    return (_head("subp(a)", "(a - p) mod 2^256 together with the borrow flag (1 iff a < p).", "a")
            + _return(_carry([f"a{k} - {P_LIMBS[k]}" for k in range(LIMBS)]), ", -(c >> 8)"))


def _cmov() -> List[str]:
    return (_head("cmov(a, b, c)", "a when c = 0, b when c = 1, as a*(1 - c) + b*c (no branch on c).", "ab")
            + ["    n = 1 - c"] + _return([f"a{k}*n + b{k}*c" for k in range(LIMBS)]))


def _module(title: str, blocks: List[List[str]]) -> str:
    """A module's text: its title, the do-not-edit banner and a pointer to
    this docstring, then the functions."""
    header = (f'"""{title}\n\n'
              "Generated by tools/gen_kernels.py, whose docstring describes these\n"
              "kernels; do not edit.  Regenerate with `python tools/gen_kernels.py`.\n"
              '"""\n')
    return header + "".join("\n\n" + "\n".join(b) + "\n" for b in blocks)


def render() -> Dict[Path, str]:
    """The full text of each generated module, by path."""
    return {
        KERNELS: _module("Straight-line product kernels: mul16 and mul256.", [_mul16(), _mul256()]),
        SQUARE: _module("Straight-line squaring kernel: sqr256.", [_sqr256()]),
        REDUCE: _module("Straight-line reductions mod p = 2^255 - 19: red512, add_mod and sub_mod.", [
            _red(_head("red512(m)", "Reduce 64 columns mod p into 32 limbs; below 2p for a 512-bit product.",
                       "m", 2 * LIMBS), lambda k: f"m{k} + 38*m{k + LIMBS}"),
            _red(_head("add_mod(a, b)", "a + b with bits 255+ of the sum folded back as 19; result < 2p.",
                       "ab"), lambda k: f"a{k} + b{k}"),
            _red(_head("sub_mod(a, b)", "a - b computed as a + 4p - b, folded like add_mod; result < 2p.",
                       "ab"), lambda k: f"a{k} - b{k} + {FOURP[k]}"),
        ]),
        LINEAR: _module("Straight-line linear kernels: mul121666, subp and cmov.", [
            _mul121666(),
            _subp(),
            _cmov(),
        ]),
    }


def main() -> None:
    for path, text in render().items():
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
