"""Deliberate fault switches for negative-control testing.

The differential harness is only trustworthy if it demonstrably catches
bugs.  A fault replaces the named `mp_arith` function (or, for `invert`,
the `fe25519` one), in every loaded `packed25519.*` namespace that holds
it (matched by identity, as perfbench's tracer installs its wrappers), with
a copy that flips the low bit of limb 0 of its result; the `subp` copy
flips the difference and keeps the borrow.
No kernel holds a hook.  Bindings made outside the package are not rebound.

`import packed25519` does not load this module.  Faults are off unless
enabled through `inject`, for the duration of a with-block:

    from packed25519 import faults
    with faults.inject("mul256"):
        ...

Never enable these outside of harness self-checks.
"""

import sys
from contextlib import contextmanager
from typing import Callable, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from . import fe25519, mp_arith

KNOWN = frozenset({"add_mod", "cmov", "invert", "mul121666", "mul256", "red512", "sqr256",
                   "sub_mod", "subp"})


def _flip(limbs: Sequence[int]) -> Tuple[int, ...]:
    return (limbs[0] ^ 1,) + tuple(limbs[1:])


def _faulty(name: str, fn: Callable) -> Callable:
    if name == "subp":
        def faulty(*args):
            d, borrow = fn(*args)
            return _flip(d), borrow
    else:
        def faulty(*args):
            return _flip(fn(*args))
    return faulty


def _rebind(names: Iterable[str]) -> List[Tuple[object, str, Callable]]:
    """Install the faulty copies; return (module, key, original) for each."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith(__package__ + ".")]
    undo = []
    for name in names:
        original = getattr(mp_arith if hasattr(mp_arith, name) else fe25519, name)
        faulty = _faulty(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, faulty)
                    undo.append((mod, key, original))
    return undo


ACTIVE: FrozenSet[str] = frozenset()


@contextmanager
def inject(*names: str) -> Iterator[None]:
    """Enable the named faults for the duration of a with-block (tests only).

    An active name is not wrapped again: a second flip would cancel it."""
    global ACTIVE
    unknown = set(names) - KNOWN
    if unknown:
        raise ValueError(f"unknown fault name(s): {sorted(unknown)}")
    saved = ACTIVE
    undo = _rebind(frozenset(names) - ACTIVE)
    ACTIVE = ACTIVE | frozenset(names)
    try:
        yield
    finally:
        ACTIVE = saved
        for mod, key, original in undo:
            setattr(mod, key, original)
