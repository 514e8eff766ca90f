"""Every claim of tests/_proof.py proved for all inputs: each generated
kernel, the bottom layer, and the layers above it on the kernels'
contracts; and the benchmark's ledger as a theorem."""

import collections
import sys

import pytest

from _proof import PROOFS, ROOT, Sym, _counting, _run, prove, sources

sys.path.append(str(ROOT / "perfbench"))
from workloads import TRACED, dh_ledger  # noqa: E402


@pytest.mark.parametrize("name", PROOFS)
def test_layer_is_proved_for_all_inputs(name):
    prove(name)
    assert Sym.log is None  # the proof keeps none of the values it built


class _Opaque(tuple):
    def __bool__(self):
        raise TypeError("control flow depends on field data")


def test_one_scalarmult_makes_the_ledgers_calls():
    """Count one scalarmult's calls on kernels that return a zero whose
    __bool__ raises.  subp's borrow is 1, as for every frozen value (the
    freeze proof).  scalarmult itself takes 32-byte strings."""
    counts, stack, zero = collections.Counter(), [], _Opaque((0,) * 32)

    def counted(layer, namespace):
        namespace.update((f, _counting(counts, f"{layer}.{f}", namespace[f], stack)) for f in TRACED[layer])
        return namespace

    kernels = dict.fromkeys(TRACED["mp_arith"] + ("mul121666", "cmov"), lambda *args: zero)
    kernels = counted("mp_arith", {**kernels, "subp": lambda a: (zero, 1)})
    fe = counted("fe25519", _run(sources()["fe25519.py"], "fe25519.py", **kernels))
    ladder = _run(sources()["ladder.py"], "ladder.py", **fe)
    counted("ladder", ladder)["scalarmult"](bytes(32), bytes(32))
    assert {name: counts[name] for name in dh_ledger(0)} == dh_ledger(0)
