"""X25519 scalar multiplication over packed 8-bit limbs.

The arithmetic works on 32-limb little-endian byte strings throughout
(`mp_arith`, `fe25519`), the Montgomery ladder on projective x-ratios of
those (`ladder`).  `oracle` is an independent unbounded-integer reference
used by the `difftest` harness to cross-check everything, and `cli` exposes
the lot as a command-line tool.
"""

from . import difftest, fe25519, mp_arith, oracle
from .ladder import BASE_POINT_U, clamp, cswap, ladderstep, mladder, scalarmult
# last: PACKED25519_FAULTS rebinds the kernels in every module imported above
from . import faults

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
