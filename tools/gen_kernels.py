"""Emit src/packed25519/_kernels.py, the straight-line product kernels.

    python tools/gen_kernels.py

The module holds three functions over byte limbs, written out without loops
so that CPython runs each product as a few bytecodes and nothing else:

  mul16(a, b)       the 31 column sums of a 16x16-limb product: column k is
                    the sum of a[i]*b[j] over i + j = k;
  sqr16(a)          the same columns for a*a, with each cross product
                    a[i]*a[j] (i < j) written once and doubled;
  join(lo, mid, hi) one carry pass over three such 31-column blocks placed
                    at columns 0, 16 and 32, giving the 64 limbs of a
                    512-bit product.

Only the standard library is used.
"""

from pathlib import Path

TARGET = Path(__file__).resolve().parent.parent / "src" / "packed25519" / "_kernels.py"
N = 16  # limbs per block
COLS = 2 * N - 1  # column sums per block product
OUT = 4 * N  # limbs of the joined product

HEADER = '''\
"""Straight-line 16-limb product kernels for mp_arith.mul256 and sqr256.

Generated by tools/gen_kernels.py; do not edit.  Regenerate with
`python tools/gen_kernels.py`; tests/test_gen_kernels.py holds this file to
the generator's output byte for byte.

mul16 and sqr16 return the 31 column sums of a 16x16-limb product (column
k holds every a[i]*b[j] with i + j = k); join carries three such blocks,
placed at columns 0, 16 and 32, into the 64 limbs of a 512-bit product.
"""
'''


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(n))


def _mul16() -> list:
    lines = ["def mul16(a, b):",
             f"    {_names('a', N)} = a",
             f"    {_names('b', N)} = b",
             "    return ("]
    for k in range(COLS):
        terms = [f"a{i}*b{k - i}" for i in range(max(0, k - N + 1), min(k, N - 1) + 1)]
        lines.append(f"        {' + '.join(terms)},")
    lines.append("    )")
    return lines


def _sqr16() -> list:
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


def _join() -> list:
    lines = ["def join(lo, mid, hi):",
             f"    {_names('l', COLS)} = lo",
             f"    {_names('m', COLS)} = mid",
             f"    {_names('h', COLS)} = hi"]
    for k in range(OUT - 1):
        terms = [f"{p}{k - base}" for p, base in (("l", 0), ("m", N), ("h", 2 * N))
                 if 0 <= k - base < COLS]
        lines.append(f"    c = {' + '.join(terms)}" if k == 0
                     else f"    c = (c >> 8) + {' + '.join(terms)}")
        lines.append(f"    r{k} = c & 255")
    lines.append(f"    return bytes(({_names('r', OUT - 1)}, c >> 8))")
    return lines


def render() -> str:
    """The full text of _kernels.py."""
    blocks = [_mul16(), _sqr16(), _join()]
    return HEADER + "".join("\n\n" + "\n".join(b) + "\n" for b in blocks)


def main() -> None:
    TARGET.write_text(render(), encoding="utf-8")


if __name__ == "__main__":
    main()
