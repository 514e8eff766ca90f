"""Emit the straight-line kernel modules of src/packed25519.

    python tools/gen_kernels.py

Two modules are written, each with its functions spelled out without loops
so that CPython runs them as a few bytecodes and nothing else.

_kernels.py, behind mp_arith.mul256 and sqr256:

  mul16(a, b)       the 31 column sums of a 16x16-limb product: column k is
                    the sum of a[i]*b[j] over i + j = k;
  sqr16(a)          the same columns for a*a, with each cross product
                    a[i]*a[j] (i < j) written once and doubled;
  join(lo, s, hi)   one carry pass over the one-level Karatsuba blocks
                    lo = x0*y0, s = (x0+x1)*(y0+y1) and hi = x1*y1, placed
                    at columns 0, 16 and 32 with the middle column k taken
                    as s[k] - lo[k] - hi[k], giving the 64 limbs of a
                    512-bit product.

_reduce.py, the one reduction of the field layer:

  red38(m)          64 integer columns reduced mod 2^255 - 19 into 32
                    limbs: one carry pass over m[k] + 38*m[k+32], then bits
                    255 and up folded in as 19 and a second carry pass.
                    For the column total V = sum (m[k] + 38*m[k+32])*2^(8k)
                    it returns (V mod 2^255) + 19*(V >> 255), and its
                    `fold overflow` assert fires when that falls outside
                    [0, 2^256).  Columns may be negative or exceed a byte.
                    Its callers are mp_arith.red512 (a 512-bit product)
                    and, with a zero high half, mp_arith.add_mod, sub_mod
                    and fe25519.mul121666.

red38 lives in a module of its own because the parser's transient peak is
per module: placed inside _kernels.py it would raise that peak.

Only the standard library is used.
"""

from pathlib import Path
from typing import Dict, List

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "packed25519"
KERNELS = PACKAGE / "_kernels.py"
REDUCE = PACKAGE / "_reduce.py"
N = 16  # limbs per block
COLS = 2 * N - 1  # column sums per block product
OUT = 4 * N  # limbs of the joined product
LIMBS = 2 * N  # limbs of a field element

KERNELS_HEADER = '''\
"""Straight-line 16-limb product kernels for mp_arith.mul256 and sqr256.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul16 and sqr16 return the 31 column sums of a 16x16-limb product (column
k holds every a[i]*b[j] with i + j = k).  Their operands are byte limbs or
sums of two byte limbs, up to 510, so a column sum stays below 2^22.
join(lo, s, hi) carries three such blocks into the 64 limbs of a 512-bit
product: lo at column 0, hi at column 32, and at column 16 the one-level
Karatsuba middle s - lo - hi, where s is the product of the half sums.
Each column sum is an exact polynomial coefficient, so s[k] - lo[k] - hi[k]
is never negative and needs no carry of its own.
"""
'''

REDUCE_HEADER = '''\
"""Straight-line reduction mod p = 2^255 - 19 for the whole field layer.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

red38 folds the high 32 columns in as 38 (2^256 = 38 mod p) in one carry
pass, then bits 255 and up as 19 (2^255 = 19 mod p) in a second fixed pass.
It is linear in its 64 integer columns, which may be negative or exceed a
byte: for V = sum (m[k] + 38*m[k+32])*2^(8k) it returns (V mod 2^255) +
19*(V >> 255) as 32 limbs, and its `fold overflow` assert fires when that
falls outside [0, 2^256).  mp_arith.red512 calls it on a 512-bit product;
mp_arith.add_mod, sub_mod and fe25519.mul121666 call it with a zero high
half.
"""
'''


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(n))


def _carry_step(k: int, terms: str) -> str:
    return f"    c = {terms}" if k == 0 else f"    c = (c >> 8) + {terms}"


def _mul16() -> List[str]:
    lines = ["def mul16(a, b):",
             f"    {_names('a', N)} = a",
             f"    {_names('b', N)} = b",
             "    return ("]
    for k in range(COLS):
        terms = [f"a{i}*b{k - i}" for i in range(max(0, k - N + 1), min(k, N - 1) + 1)]
        lines.append(f"        {' + '.join(terms)},")
    lines.append("    )")
    return lines


def _sqr16() -> List[str]:
    lines = ["def sqr16(a):",
             f"    {_names('a', N)} = a",
             "    return ("]
    for k in range(COLS):
        cross = [f"a{i}*a{k - i}" for i in range(max(0, k - N + 1), (k + 1) // 2)]
        terms = [f"2*({' + '.join(cross)})"] if cross else []
        if k % 2 == 0:
            terms.append(f"a{k // 2}*a{k // 2}")
        lines.append(f"        {' + '.join(terms)},")
    lines.append("    )")
    return lines


def _join() -> List[str]:
    lines = ["def join(lo, s, hi):",
             f"    {_names('l', COLS)} = lo",
             f"    {_names('s', COLS)} = s",
             f"    {_names('h', COLS)} = hi"]
    for k in range(OUT - 1):
        terms = []
        if k < COLS:
            terms.append(f"l{k}")
        if 0 <= k - N < COLS:
            terms.append(f"s{k - N} - l{k - N} - h{k - N}")
        if k >= 2 * N:
            terms.append(f"h{k - 2 * N}")
        lines.append(_carry_step(k, " + ".join(terms)))
        lines.append(f"    r{k} = c & 255")
    lines.append(f"    return bytes(({_names('r', OUT - 1)}, c >> 8))")
    return lines


def _red38() -> List[str]:
    lines = ["def red38(m):",
             f"    {_names('m', 2 * LIMBS)} = m"]
    for k in range(LIMBS):
        lines.append(_carry_step(k, f"m{k} + 38*m{k + LIMBS}"))
        if k < LIMBS - 1:
            lines.append(f"    r{k} = c & 255")
    lines += [f"    r{LIMBS - 1} = c & 127",
              "    c = r0 + 19*(c >> 7)",
              "    r0 = c & 255"]
    for k in range(1, LIMBS):
        lines.append(_carry_step(k, f"r{k}"))
        lines.append(f"    r{k} = c & 255")
    lines += ['    assert c >> 8 == 0, "fold overflow"',
              f"    return bytes(({_names('r', LIMBS)}))"]
    return lines


def _module(header: str, blocks: List[List[str]]) -> str:
    return header + "".join("\n\n" + "\n".join(b) + "\n" for b in blocks)


def render() -> Dict[Path, str]:
    """The full text of each generated module, by path."""
    return {
        KERNELS: _module(KERNELS_HEADER, [_mul16(), _sqr16(), _join()]),
        REDUCE: _module(REDUCE_HEADER, [_red38()]),
    }


def main() -> None:
    for path, text in render().items():
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
