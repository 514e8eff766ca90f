"""Deliberate fault switches for negative-control testing.

The differential harness is only trustworthy if it demonstrably catches
bugs, so the arithmetic kernels expose named corruption points that flip
the low bit of their result.  They are off unless names are listed in the
PACKED25519_FAULTS environment variable (comma-separated) when the package
is imported, or enabled temporarily through `inject` in tests.

Never enable these outside of harness self-checks.
"""

import os
from contextlib import contextmanager
from typing import FrozenSet, Iterator

KNOWN = frozenset({"add_mod", "mul121666", "mul256", "red512", "sqr256", "sub_mod", "subp"})


def _from_env() -> FrozenSet[str]:
    raw = os.environ.get("PACKED25519_FAULTS", "")
    names = frozenset(n.strip() for n in raw.split(",") if n.strip())
    unknown = names - KNOWN
    if unknown:
        raise ValueError(
            f"unknown fault name(s) in PACKED25519_FAULTS: {sorted(unknown)}; "
            f"known: {sorted(KNOWN)}"
        )
    return names


ACTIVE: FrozenSet[str] = _from_env()


def corrupt(name: str, limbs: bytes) -> bytes:
    """Flip the low bit of limb 0 when the named fault is active."""
    if name in ACTIVE:
        return bytes((limbs[0] ^ 1,)) + limbs[1:]
    return limbs


@contextmanager
def inject(*names: str) -> Iterator[None]:
    """Enable the named faults for the duration of a with-block (tests only)."""
    global ACTIVE
    unknown = set(names) - KNOWN
    if unknown:
        raise ValueError(f"unknown fault name(s): {sorted(unknown)}")
    saved = ACTIVE
    ACTIVE = ACTIVE | frozenset(names)
    try:
        yield
    finally:
        ACTIVE = saved
