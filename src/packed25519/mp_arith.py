"""Multi-precision kernels over packed 8-bit limbs.

A 256-bit value is 32 little-endian byte limbs, a 512-bit value 64.  Every
kernel returns them as a tuple of ints and takes any sequence of them, a
`bytes` included.  The radix is deliberately 8 bits: every kernel does real
carry and borrow propagation at byte boundaries, which is where the
interesting bugs live, in one-to-one correspondence with unrolled 8-bit
machine code.

Every kernel is a straight-line function emitted by tools/gen_kernels.py,
whose docstring describes each one's shape and bounds, and is re-exported
here under its own name with no wrapper frame.  Its fixed-width unpack
raises ValueError on a wrong length, in every mode, and each reduction's
unmasked top limb passes through bytes(), which raises ValueError outside
[0, 256) in every mode; every other limb's range rests on the proofs.  No kernel holds a test
hook: negative-control faults rebind names from outside.  Control flow
never depends on limb values: the generated code has no branch or loop, and
carries and borrows are arithmetic.  tests/_proof.py proves every kernel
for all byte inputs, and README's design notes give the measured reasons
for the kernels' shape.
"""

from ._kernels import mul256
from ._linear import cmov, mul121666, subp
from ._reduce import add_mod, red512, sub_mod
from ._square import sqr256
