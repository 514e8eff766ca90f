"""X25519 scalar multiplication over packed 8-bit limbs.

The arithmetic works on tuples of 32 little-endian byte limbs (`mp_arith`,
`fe25519`), the Montgomery ladder on projective x-ratios of those
(`ladder`), whose `scalarmult` takes and returns 32-byte strings, and
`import packed25519` loads only these.  The rest load when imported:
`oracle`, an independent unbounded-integer reference; `difftest`, the
harness that cross-checks everything against it; `faults`, the harness's
negative controls; and `cli`, the command-line tool.
"""

from . import fe25519, mp_arith
from .ladder import BASE_POINT_U, clamp, cswap, ladderstep, mladder, scalarmult

__version__ = "0.1.0"

__all__ = [
    "BASE_POINT_U",
    "clamp",
    "cswap",
    "difftest",
    "fe25519",
    "ladderstep",
    "mladder",
    "mp_arith",
    "oracle",
    "scalarmult",
]
