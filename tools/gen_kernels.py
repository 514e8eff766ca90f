"""Emit the straight-line kernel modules of src/packed25519.

    python tools/gen_kernels.py

Every kernel of mp_arith is written here, spelled out without loops so that
CPython runs it as a few bytecodes and nothing else.  mp_arith re-exports
each one with no wrapper frame, so each carries a one-line docstring and its
fixed-width unpack is the length check: a wrong length raises ValueError in
every mode.  Four modules are written.

_kernels.py, whose mul256 is mp_arith.mul256 itself:

  mul16(a, b)       the 31 column sums of a 16x16-limb product: column k is
                    the sum of a[i]*b[j] over i + j = k.  Inside, one
                    additive Karatsuba level over 8-limb halves: the inner
                    blocks l = x0*y0, (x0+x1)*(y0+y1) and h = x1*y1 take
                    192 products instead of 256, and the middle column j is
                    that block's column j minus l[j] and h[j].
  mul256(a, b)      the 64 limbs of a 256x256-bit product: three mul16
                    calls on tuple displays of the 16-limb halves and half
                    sums, then one carry display over their columns at 0, 16
                    and 32 with the middle column k taken as
                    s[k] - l[k] - h[k].

_square.py, whose sqr256 is mp_arith.sqr256 itself:

  sqr256(a)         the same 64 limbs for a*a in one body: the three
                    16-limb square blocks inline (each cross product a[i]*a[j]
                    with i < j written once, as a[i]*da[j] against the doubled
                    limb da[j] = a[j] + a[j] computed once, 408 products) and
                    the same carry display.

_reduce.py and _linear.py, the reductions mod p and the linear kernels.
One template writes every reduction: given 32 column expressions, it takes
the top column t, folds its bits 7 and up into column 0 as 19 (2^255 = 19
mod p) and carries the columns once, in the same carry display that ends
mul256 and sqr256, with t & 127 added to the unmasked top limb.  For the
column total V it returns W = V - p*(t >> 7); bytes() raises ValueError, in
every mode, when W falls outside [0, 2^256).  Columns may be negative or
exceed a byte.  For byte inputs the carry into the top limb is at most 39
(red38), 2 (add_mod), 5 (sub_mod) and 1 (mul121666), so W < 2p.

  red38(m)          column k is m[k] + 38*m[k+32]: 64 columns, the high half
                    folded in as 38.  mp_arith.red512 is this function.
  add_mod(a, b)     column k is a[k] + b[k].
  sub_mod(a, b)     column k is a[k] - b[k] + 4*p[k]: 4p is larger than any
                    256-bit operand, so V is positive.
  mul121666(a)      one plain carry pass over the columns 121666*a[k] first,
                    then the template on the carried limbs and the top
                    column (c >> 8) + 121666*a[31].  Its columns reach 2^25,
                    so in one pass the carry into the top limb would be
                    about 2^17; after the first pass it is at most 1.
  subp(a)           (a - p) mod 2^256 and the borrow: one carry display over
                    a[k] - p[k] with every limb masked, then -(c >> 8).
  cmov(a, b, c)     a[k] ^ ((a[k] ^ b[k]) & m) for the mask m = -c & 255.

No generated function contains an assert or any other branch, and none holds
a fault hook (packed25519.faults rebinds names from outside):
tests/test_gen_kernels.py rejects every branch node.

tests/_proof.py proves every claim above for all byte inputs: it runs
render()'s text on values that are at once polynomials over atoms and
intervals, reads cmov's text limb by limb, and rejects mutants of it.

The modules are split because the parser's transient peak is per module and
grows with the source's size: tests/test_gen_kernels.py holds every module
to a budget of syntax-tree nodes, which tracks that peak.

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

KERNELS_HEADER = '''\
"""Straight-line product kernels; mul256 is mp_arith.mul256 itself.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul16 returns the 31 column sums of a 16x16-limb product (column k holds
every a[i]*b[j] with i + j = k).  Its operands are byte limbs or sums of two
byte limbs, up to 510.  It does one additive Karatsuba level over 8-limb
halves: the inner half sums reach 1020, every inner block column stays below
2^23 and every returned column below 2^22.

mul256 unpacks its two 32-limb operands once, makes three mul16 blocks, l of
the low halves, s of the half sums and h of the high halves, and carries
them into the 64 limbs of a 512-bit product in one display: l at column 0, h
at column 32, and at column 16 the Karatsuba middle s - l - h.  Each column
sum is an exact polynomial coefficient, so a middle column is never
negative and needs no carry of its own.
"""
'''

SQUARE_HEADER = '''\
"""Straight-line squaring kernel; sqr256 is mp_arith.sqr256 itself.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

sqr256 is mul256's one-level Karatsuba with the three 16-limb square blocks
written inline: l of the low half and h of the high half as locals, the
middle block of the half sums t inside the carry display.  Each cross
product a[i]*a[j] (i < j) is written once, as a[i]*da[j] against the doubled
limb da[j] = a[j] + a[j] (and t[i]*dt[j] in the middle block), so no column
is multiplied by 2.  It lives apart from mul256 because the parser's
transient peak is per module.
"""
'''

REDUCE_HEADER = '''\
"""Straight-line reductions mod p = 2^255 - 19: red38, add_mod and sub_mod.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

Each function takes its top column t, folds bits 7 and up of t into
column 0 as 19 (2^255 = 19 mod p) and carries the 32 integer columns once,
written as one bytes display whose top limb is (c >> 8) + (t & 127).
Columns may be negative or exceed a byte: for the column total V the result
is W = V - p*(t >> 7) as 32 limbs.  The top limb is left unmasked, so
bytes() raises ValueError, with or without -O, when W falls outside
[0, 2^256).  red38's column k is m[k] + 38*m[k+32] (2^256 = 38 mod p),
add_mod's a[k] + b[k] and sub_mod's a[k] - b[k] + 4p[k].  For byte inputs
the carry into the top limb is at most 39, 2 and 5, so W < 2p.
mp_arith.red512 is red38 itself; add_mod and sub_mod are mp_arith's own.
"""
'''

LINEAR_HEADER = '''\
"""Straight-line linear kernels: mul121666, subp and cmov.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul121666 carries the columns 121666*a[k] once and then applies the
reduction of _reduce.py to the carried limbs: its columns reach 2^25, too
large for one pass to leave the top limb a byte.  subp
carries a[k] - p[k] in one display with every limb masked and returns the
borrow -(c >> 8) beside it: `>> 8` floors, so a borrow is a carry of -1.
cmov moves b into a under the mask -c & 255, limb by limb.  mp_arith
re-exports all three, and fe25519.cmov is cmov itself.  They live apart
from _reduce.py because the parser's transient peak is per module.
"""
'''

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


def _carry(cols: List[str]) -> List[str]:
    """The entries of one carry pass over the columns, each masked to a byte."""
    return [f"        (c := {col if k == 0 else f'(c >> 8) + {col}'}) & 255," for k, col in enumerate(cols)]


def _carry_bytes(cols: List[str], last: str) -> List[str]:
    """The `return` of one carry pass over the columns, as one bytes display;
    the top limb `last` is unmasked, so bytes() rejects it outside [0, 256)."""
    return ["    return bytes(("] + _carry(cols) + [f"        {last},", "    ))"]


def _mul16() -> List[str]:
    lines = ["def mul16(a, b):",
             f"    {_names('a', N)} = a",
             f"    {_names('b', N)} = b"]
    lines += [f"    u{i} = a{i} + a{i + H}" for i in range(H)]
    lines += [f"    v{i} = b{i} + b{i + H}" for i in range(H)]
    lines += [f"    l{k} = {_mul_col('a', 'b', k, H)}" for k in range(2 * H - 1)]
    lines += [f"    h{k} = {_mul_col('a', 'b', k, H, H)}" for k in range(2 * H - 1)]
    lines.append("    return (")
    cols = _karatsuba(H, lambda j: f"l{j}", lambda j: _mul_col("u", "v", j, H), lambda j: f"h{j}")
    lines += [f"        {col}," for col in cols]
    lines.append("    )")
    return lines


def _mul256() -> List[str]:
    sums_a = ", ".join(f"a{i} + a{i + N}" for i in range(N))
    sums_b = ", ".join(f"b{i} + b{i + N}" for i in range(N))
    lines = _head("mul256(a, b)", "256x256->512-bit product of packed little-endian limbs.", "ab")
    for block, x, y in (("l", _names("a", N), _names("b", N)),
                        ("s", sums_a, sums_b),
                        ("h", _names("a", N, N), _names("b", N, N))):
        lines.append(f"    {_names(block, 2 * N - 1)} = mul16(({x}), ({y}))")
    lines += _carry_bytes(_karatsuba(N, lambda j: f"l{j}", lambda j: f"s{j}", lambda j: f"h{j}"),
                          "c >> 8")
    return lines


def _sqr256() -> List[str]:
    lines = _head("sqr256(a)", "256-bit squaring; same value as mul256(a, a), each cross product once.", "a")
    lines += [f"    t{i} = a{i} + a{i + N}" for i in range(N)]
    lines += _doubled("a", N) + _doubled("a", N, N) + _doubled("t", N)
    lines += [f"    l{k} = {_sqr_col('a', k, N)}" for k in range(2 * N - 1)]
    lines += [f"    h{k} = {_sqr_col('a', k, N, N)}" for k in range(2 * N - 1)]
    lines += _carry_bytes(_karatsuba(N, lambda j: f"l{j}", lambda j: _sqr_col("t", j, N),
                                     lambda j: f"h{j}"), "c >> 8")
    return lines


def _red(head: List[str], col: Col) -> List[str]:
    """The reduction mod p of the 32 columns col(0), ..., col(31) in one
    carry pass: bits 7 and up of the top column t are folded into column 0
    as 19 before the carry, and bits 0..6 of t join the unmasked top limb."""
    return (head + [f"    t = {col(LIMBS - 1)}"]
            + _carry_bytes([f"{col(0)} + 19*(t >> 7)"] + [col(k) for k in range(1, LIMBS - 1)],
                           "(c >> 8) + (t & 127)"))


def _mul121666() -> List[str]:
    """One plain carry pass over the columns 121666*a[k], then _red on the
    carried limbs: a single pass would leave a carry near 2^17 in the top limb."""
    lines = _head("mul121666(a)", "Multiply by the ladder constant 121666 = (A + 2) / 4; result < 2p.", "a")
    for k in range(LIMBS - 1):
        lines += [f"    c = {'' if k == 0 else '(c >> 8) + '}121666*a{k}", f"    r{k} = c & 255"]
    return _red(lines, lambda k: f"r{k}" if k < LIMBS - 1 else f"(c >> 8) + 121666*a{k}")


def _subp() -> List[str]:
    return (_head("subp(a)", "(a - p) mod 2^256 together with the borrow flag (1 iff a < p).", "a")
            + ["    return bytes(("] + _carry([f"a{k} - {P_LIMBS[k]}" for k in range(LIMBS)])
            + ["    )), -(c >> 8)"])


def _cmov() -> List[str]:
    return (_head("cmov(a, b, c)", "a when c = 0, b when c = 1, via masked moves (no branch on c).", "ab")
            + ["    m = -c & 255", "    return bytes(("]
            + [f"        a{k} ^ ((a{k} ^ b{k}) & m)," for k in range(LIMBS)] + ["    ))"])


def _module(header: str, blocks: List[List[str]]) -> str:
    return header + "".join("\n\n" + "\n".join(b) + "\n" for b in blocks)


def render() -> Dict[Path, str]:
    """The full text of each generated module, by path."""
    return {
        KERNELS: _module(KERNELS_HEADER, [_mul16(), _mul256()]),
        SQUARE: _module(SQUARE_HEADER, [_sqr256()]),
        REDUCE: _module(REDUCE_HEADER, [
            _red(_head("red38(m)", "Reduce 64 columns mod p into 32 limbs; below 2p for a 512-bit product.",
                       "m", 2 * LIMBS), lambda k: f"m{k} + 38*m{k + LIMBS}"),
            _red(_head("add_mod(a, b)", "a + b with bits 255+ of the sum folded back as 19; result < 2p.",
                       "ab"), lambda k: f"a{k} + b{k}"),
            _red(_head("sub_mod(a, b)", "a - b computed as a + 4p - b, folded like add_mod; result < 2p.",
                       "ab"), lambda k: f"a{k} - b{k} + {FOURP[k]}"),
        ]),
        LINEAR: _module(LINEAR_HEADER, [
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
