"""Proofs for all inputs: `_run` executes a module's source text among
stand-ins, which also answer its relative imports, so no packed25519 module
attribute is rebound.  A generated kernel runs on `Sym` values, a reduction
with `bytes` bound to `tuple` for its top-limb check; fe25519.py and
ladder.py run with each kernel replaced by
its proved contract (mul256 is a*b, red512 keeps its value mod p, ...),
mladder runs on a `Sym` scalar spelled in bit atoms, and scalarmult on
bytes that raise when a branch or lookup reads them."""

import builtins
import collections
import functools
import itertools
import runpy
import types
from pathlib import Path

from packed25519 import oracle

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "packed25519"
P = oracle.P


@functools.cache
def render():
    """tools/gen_kernels.py's output: each generated module's path and text."""
    return runpy.run_path(str(ROOT / "tools" / "gen_kernels.py"))["render"]()


@functools.cache
def sources():
    """The rendered modules' texts, and fe25519.py's and ladder.py's."""
    texts = {path.name: text for path, text in render().items()}
    texts.update((name, (PACKAGE / name).read_text()) for name in ("fe25519.py", "ladder.py"))
    return texts


def _run(text, name, /, **stand_ins):
    """Execute the module source `text` in a namespace of `stand_ins`,
    which also answer its relative imports; return the namespace."""
    def import_(*args):  # name, globals, locals, fromlist, level
        return types.SimpleNamespace(**stand_ins) if args[4] else __import__(*args)
    namespace = {**stand_ins, "__builtins__": {**vars(builtins), "__import__": import_}}
    exec(compile(text, name, "exec"), namespace)
    return namespace


def _counting(counts, name, fn, stack):
    """fn, counting its calls by name and by caller>name, as perfbench's
    tracer keys them."""
    def counted(*args):
        counts.update([name, *(f"{caller}>{name}" for caller in stack[-1:])])
        stack.append(name)
        out = fn(*args)
        stack.pop()
        return out
    return counted


@functools.cache
def _span(mono):
    """The interval of a monomial's product of atoms."""
    lo = hi = 1
    for _, a, b in mono:
        ends = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(ends), max(ends)
    return lo, hi


class Sym:
    """An integer a generated kernel computes, known two ways at once: as a
    polynomial with integer coefficients over atoms, and as an interval.

    The atoms are the input limbs, the scalar bits and one fresh quotient
    atom per right shift, which stands for that shift's floor.  x & (2^s - 1)
    is x - 2^s * (x >> s) for every Python int, so an identity between the
    polynomials of two results holds whatever the quotients are.  A value
    spelled in bits, distinct bit atoms at distinct powers of two plus a
    constant c >= 0 sharing no bit with them, shifts exactly instead: x >> s
    is sum b_i 2^(i-s) over i >= s plus c >> s, an int if no atom is left.
    Each operation keeps the intersection of two intervals, both sound for
    every input: the one it computes from its operands' intervals, which
    keeps a carry chain's bounds, and the one its polynomial implies from
    each monomial's interval (`_span`), which sees that a Karatsuba middle
    s - l - h is a sum of products.  A monomial is a sorted tuple of atoms,
    and an atom is (id, lo, hi).  An atom whose interval is [0, 1] is a bit,
    and a monomial holds it at most once, since b*b = b; every atom stands
    for an integer, so that holds for quotient atoms too.

    Code run on a `Sym` cannot read its value: four guards raise TypeError,
    `__bool__` for a branch, `__eq__` for a comparison, `__hash__` for a
    table keyed by it and `__index__` for a table indexed by it, so a proof
    that runs to its end shows that no control flow or lookup depends on
    its atoms."""

    log = None  # while _run_kernel runs, the list of every value built
    _ids = itertools.count()

    def __init__(self, poly, lo, hi):
        self.poly = {m: k for m, k in poly.items() if k}
        plo = phi = 0
        for mono, k in self.poly.items():
            mlo, mhi = _span(mono)
            plo, phi = (plo + k * mlo, phi + k * mhi) if k > 0 else (plo + k * mhi, phi + k * mlo)
        self.lo, self.hi, self.shifts = max(lo, plo), min(hi, phi), {}
        if Sym.log is not None:
            Sym.log.append(self)

    @classmethod
    def atom(cls, lo, hi):
        return cls({((next(cls._ids), lo, hi),): 1}, lo, hi)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Sym) else Sym({(): x}, x, x)

    def __add__(self, other, sign=1):
        other = Sym.lift(other)
        poly = dict(self.poly)
        for m, k in other.poly.items():
            poly[m] = poly.get(m, 0) + sign * k
        lo, hi = sorted((sign * other.lo, sign * other.hi))
        return Sym(poly, self.lo + lo, self.hi + hi)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return Sym({m: -k for m, k in self.poly.items()}, -self.hi, -self.lo)

    def __mul__(self, other):
        if not isinstance(other, Sym):  # a constant: no monomials to multiply
            return Sym({m: k * other for m, k in self.poly.items()}, *sorted((self.lo * other, self.hi * other)))
        poly = {}
        for (m1, k1), (m2, k2) in itertools.product(self.poly.items(), other.poly.items()):
            m = tuple(sorted(m1 + tuple(a for a in m2 if a[1:] != (0, 1) or a not in m1)))
            poly[m] = poly.get(m, 0) + k1 * k2
        ends = [x * y for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        return Sym(poly, min(ends), max(ends))

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return Sym.lift(other) - self

    def __xor__(self, other):
        assert all(_same(x * x, x) for x in (self, other)), "^ of a value that is not a bit"
        return self + other - 2 * self * other

    __rxor__ = __xor__

    def __pow__(self, n):
        return functools.reduce(Sym.__mul__, [self] * n)

    def __rshift__(self, s):
        if s not in self.shifts:  # the same shift of the same value is the same result
            places = 0  # a carry chain's value fails this test at its first term
            for mono, k in self.poly.items():
                if k < 0 or k & places or mono and (len(mono) > 1 or mono[0][1:] != (0, 1) or k & (k - 1)):
                    self.shifts[s] = Sym.atom(self.lo >> s, self.hi >> s)  # not spelled in bits
                    break
                places |= k
            else:
                poly = {m: k >> s for m, k in self.poly.items() if k >> s}
                self.shifts[s] = Sym(poly, self.lo >> s, self.hi >> s) if any(poly) else poly.get((), 0)
        return self.shifts[s]

    def __and__(self, mask):
        s = mask.bit_length()
        assert mask == 2**s - 1, f"& takes a mask 2^s - 1, not {mask}"
        return Sym((self - (self >> s) * 2**s).poly, 0, mask)

    def __mod__(self, m):
        return self & (m - 1)  # m a power of two, as __and__ asserts

    def __bool__(self):
        raise TypeError("control flow depends on symbolic data")

    def __eq__(self, other):
        raise TypeError("a comparison reads symbolic data")

    def __hash__(self):
        raise TypeError("a table is keyed by symbolic data")

    def __index__(self):
        raise TypeError("a table is indexed by symbolic data")


def _same(x, y):
    """x and y are one polynomial, so equal for every value of the atoms."""
    return not (Sym.lift(x) - y).poly


def _value(digits, width=8):
    """The number little-endian digits of `width` bits spell, in one pass:
    sum() would copy its growing polynomial once per digit."""
    terms, poly = [Sym.lift(x) * 2**(width * k) for k, x in enumerate(digits)], collections.Counter()
    for x in terms:
        poly.update(x.poly)
    return Sym(poly, sum(x.lo for x in terms), sum(x.hi for x in terms))


def _mul16(cols, seen, spec, a, b):
    # operands are byte limbs or sums of two, at most 510
    assert len(cols) == 31, f"mul16 returns {len(cols)} columns, not 31"
    for k, col in enumerate(cols):
        schoolbook = sum(a[i] * b[k - i] for i in range(max(0, k - 15), min(k, 15) + 1))
        assert _same(col, schoolbook), f"column {k} is not the schoolbook column"


def _product(out, seen, spec, *operands):
    assert _same(_value(out), spec(*map(_value, operands))), "value(out) is not the product"
    assert all(0 <= x.lo and x.hi <= 255 for x in out), "a limb can leave [0, 255]"


def _reduction(top_carry, total, top=None):
    """W = spec (mod p) and 0 <= W < 2p, with the given carry into the top
    limb, for every byte input; exactly, W = V - p*(t >> 7) for the column
    total V = total(*operands) and the value t the kernel shifts by 7, its
    top column top(*operands) where that is given."""
    def claim(out, seen, spec, *operands):
        w = _value(out)
        # algebraic: W - spec is p times an integer combination of the atoms
        assert all(k % P == 0 for k in (w - spec(*map(_value, operands))).poly.values()), "not spec mod p"
        # exact: q = t >> 7 is the quotient atom of the one value t shifted
        # by 7 (no q where nothing folds); no reduction multiplies two atoms
        # or shifts a value spelled in bits, so this holds for integer
        # columns of any sign
        ts = [x for x in seen if 7 in x.shifts]
        assert _same(w, total(*operands) - P * sum(t.shifts[7] for t in ts)), "W is not V - p*(t >> 7)"
        # range: every entry is a byte; for the unmasked top limb, (L >> 248)
        # + (t & 127), that says the lower part L is never negative and its
        # carry plus 127 stays below 256
        assert all(x.lo >= 0 for x in out), "the lower part can be negative"
        assert all(x.hi <= 255 for x in out), "the top limb can exceed a byte"
        assert w.hi < 2 * P, "W can reach 2p"
        assert out[-1].hi - 127 == top_carry, f"the top limb's bound is not 127 + {top_carry}"
        assert top is None or len(ts) == 1 and _same(ts[0], top(*operands)), "t is not the top column"
    return claim


def _subp(out, seen, spec, a):
    d, borrow = out
    assert _same(_value(d), _value(a) - P + borrow * 2**256), "value(d) is not a - p + 2^256 borrow"
    assert all(0 <= x.lo and x.hi <= 255 for x in d), "a limb can leave [0, 255]"
    assert 0 <= borrow.lo and borrow.hi <= 1, "the borrow can leave [0, 1]"


# Every generated kernel whose operands are all limbs (cmov's flag c is not,
# so `_cmov` below runs it): its module, its operands' widths, the bound of
# their limbs, its contract and its claim.  A reduction's claim takes its
# column total V and its top column t on the operand limbs, and for byte
# inputs its carry into the top limb, at most 39, 2, 5 and 1, so its result
# is below 167, 130, 133 and 129 times 2^248, all below 2p.
KERNELS = {
    "mul16": ("_kernels.py", (16, 16), 510, None, _mul16),
    "mul256": ("_kernels.py", (32, 32), 255, lambda a, b: a * b, _product),
    "sqr256": ("_square.py", (32,), 255, lambda a: a * a, _product),
    "red512": ("_reduce.py", (64,), 255, lambda m: m,
               _reduction(39, lambda m: _value(m[:32]) + 38 * _value(m[32:]), lambda m: m[31] + 38 * m[63])),
    "add_mod": ("_reduce.py", (32, 32), 255, lambda a, b: a + b,
                _reduction(2, lambda a, b: _value(a) + _value(b), lambda a, b: a[31] + b[31])),
    "sub_mod": ("_reduce.py", (32, 32), 255, lambda a, b: a - b,
                _reduction(5, lambda a, b: _value(a) - _value(b) + 4 * P, lambda a, b: a[31] - b[31] + 508)),
    # t is a carry out of its own first pass, so it is not pinned
    "mul121666": ("_linear.py", (32,), 255, lambda a: 121666 * a, _reduction(1, lambda a: 121666 * _value(a))),
    "subp": ("_linear.py", (32,), 255, None, _subp),
}
# The kernels whose top limb passes through bytes(), the run-time range check.
REDUCTIONS = ("red512", "add_mod", "sub_mod", "mul121666")


def _run_kernel(name, text):
    """Run the kernel `name` of the module source `text` on atoms, a
    reduction with bytes() bound to tuple so that its top limb comes back
    unchecked; return its result, every value it built and its operands."""
    module, widths, bound, _, _ = KERNELS[name]
    kernel = _run(text, module, **({"bytes": tuple} if name in REDUCTIONS else {}))[name]
    Sym.log = seen = []
    try:
        operands = [[Sym.atom(0, bound) for _ in range(n)] for n in widths]
        out = kernel(*operands)
    finally:
        Sym.log = None
    return out, seen, operands


def _select(a, b, c):
    """cmov's proved contract, b when c = 1 and a when c = 0, written
    a + c*(b - a) so that c may be a polynomial in scalar bits."""
    assert _same(c * c, c), "cmov's flag can be neither 0 nor 1"
    return a + c * (b - a)


def _cmov(text):
    """cmov(a, b, c) is exactly a when c = 0 and b when c = 1, and is
    `_select`'s polynomial when c is a bit atom, so that nothing in it can
    branch on or look up c."""
    cmov = _run(text, "_linear.py")["cmov"]
    a, b = ([Sym.atom(0, 255) for _ in range(32)] for _ in "ab")
    bit = Sym.atom(0, 1)
    for c, want in ((0, a), (1, b), (bit, [_select(x, y, bit) for x, y in zip(a, b)])):
        assert all(_same(g, w) for g, w in zip(cmov(a, b, c), want, strict=True)), \
            "cmov is not a when c = 0, b when c = 1 and a + c*(b - a) for a bit c"


def _fe(text, **kernels):
    """fe25519.py's namespace, with each kernel it imports standing in as
    its proved contract unless `kernels` gives one."""
    contracts = {name: row[3] for name, row in KERNELS.items() if row[3]}
    return _run(text, "fe25519.py", **{**contracts, "cmov": _select, "subp": None, **kernels})


def _ladder(text, **fe):
    """ladder.py's namespace on fe25519.py's, with `fe`'s names in place of
    fe25519's."""
    return _run(text, "ladder.py", **{**_fe(sources()["fe25519.py"]), **fe})


def _cswap(text):
    """cswap leaves both ratios when swap = 0 and exchanges both when
    swap = 1, all four registers included, on cmov's contract."""
    cswap = _ladder(text)["cswap"]
    r0, r1 = [(Sym.atom(0, P - 1), Sym.atom(0, P - 1)) for _ in range(2)]
    for swap, want in ((0, r0 + r1), (1, r1 + r0)):
        got = sum(cswap(r0, r1, swap), ())
        assert all(_same(g, w) for g, w in zip(got, want, strict=True)), \
            f"cswap does not exchange both ratios exactly when swap is 1 (swap = {swap})"


def _mladder(text):
    """For every n with bit 254 set, mladder makes 255 steps and 255 swaps
    and returns the multiple n when n is even and n + 1 when n is odd.

    One run covers every such n: n is the `Sym` 2^254 + sum b_j 2^j over
    bit atoms b_0..b_253, so every value of them runs at once, control flow
    that reads them raises, and n >> i is exact.  A register holding k times
    the point P is labelled (k + 1, k): setone() is 1, setzero() is 0 and xp
    is 2, so the ladder starts from (1 : 0) = 0P and (xp : 1) = 1P.
    ladderstep stands in as its proved contract on multiples, (k0, k1) to
    (2k0, k0 + k1) with difference xp.  The induction: before the step for
    bit i the registers hold (m, m + 1), m = n >> (i + 1), exchanged exactly
    when bit i is 1; the step then leaves (m', m' + 1), m' = n >> i,
    exchanged exactly when bit i is 1.  Each step checks it, for all four
    (bit i, bit i + 1) transitions at once."""
    bits = [*(Sym.atom(0, 1) for _ in range(254)), 1]
    n = _value(bits, 1)
    counts, stack = collections.Counter(), []

    def multiple(ratio):
        x, z = ratio
        assert _same(x, z + 1), "a register's X and Z hold different multiples"
        return z

    def step(xp, r0, r1):
        i = 255 - counts["ladderstep"]
        m, b, (k0, k1) = n >> (i + 1), bits[i], map(multiple, (r0, r1))
        assert _same(xp, 2), "a step's difference is not xp"
        assert _same(k0, m + b) and _same(k1, m + 1 - b), \
            f"before the step for bit {i}, the registers are not exchanged exactly when bit {i} is 1"
        return (2 * k0 + 1, 2 * k0), (k0 + k1 + 1, k0 + k1)

    ladder = _ladder(text, setone=lambda: 1, setzero=lambda: 0)
    ladder["ladderstep"] = _counting(counts, "ladderstep", step, stack)
    ladder["cswap"] = _counting(counts, "cswap", ladder["cswap"], stack)
    got = multiple(ladder["mladder"](n, 2))
    assert counts == {"ladderstep": 255, "cswap": 255}, \
        f"mladder makes {counts['ladderstep']} steps and {counts['cswap']} swaps"
    assert _same(got, n + bits[0]), "mladder does not return n for even n and n + 1 for odd n"


def _ladderstep(text):
    """ladderstep's four outputs are exactly oracle.double's and
    oracle.add's polynomials in X1, Z1, X2, Z2 and xp."""
    ladderstep = _ladder(text)["ladderstep"]
    x1, z1, x2, z2, xp = (Sym.atom(0, P - 1) for _ in range(5))
    r0, r1 = oracle.Ratio(x1, z1), oracle.Ratio(x2, z2)
    got = sum(ladderstep(xp, r0, r1), ())
    want = (*oracle.double(r0), *oracle.add(r1, r0, oracle.Ratio(xp, 1)))
    assert all(_same(g, w) for g, w in zip(got, want, strict=True)), "ladderstep is not the oracle's formulas"


def _invert(text):
    """invert's chain is a^(p-2): run it on exponents e*t of one atom t,
    where squaring doubles e and multiplying adds, so that nothing in the
    chain can read its argument."""
    t = Sym.atom(0, P - 1)
    fe = _fe(text, sqr256=lambda e: 2 * e, mul256=lambda e, f: e + f)
    assert _same(fe["invert"](t), (P - 2) * t), "invert's exponent is not p - 2"


def _unpack(text):
    """unpack(u) is u - 2^255 (u31 >> 7), u mod 2^255, in byte limbs for
    every 32 byte limbs u."""
    fe = _fe(text)
    u = tuple(Sym.atom(0, 255) for _ in range(32))
    out = fe["unpack"](u)
    # u[31] >> 7 is the quotient atom of unpack's own mask, if it masks by 2^7 - 1
    assert _same(_value(out), _value(u) - 2**255 * (u[31] >> 7)), "unpack is not u mod 2^255"
    assert len(out) == 32 and all(0 <= x.lo and x.hi <= 255 for x in out), "unpack's limbs can leave [0, 255]"


def _only(arg, result):
    """A stand-in whose contract covers `arg` alone, matched by identity,
    where it returns `result`."""
    def stand_in(x):
        assert x is arg, "a stand-in is called on a value its contract does not cover"
        return result
    return stand_in


def _freeze(text):
    """freeze(a) is congruent to a and below p for every a < 2p.  subp's
    proved contract, d = a - p + 2^256 borrow with d in [0, 2^256), makes the
    borrow 1 exactly when a < p: split on it for the range.  One more run
    takes the borrow as a bit atom b, where cmov's contract gives
    a - p*(1 - b), congruent to a, so that nothing can branch on it."""
    b = Sym.atom(0, 1)
    for borrow, a in ((1, Sym.atom(0, P - 1)), (0, Sym.atom(P, 2 * P - 1)), (b, Sym.atom(0, 2 * P - 1))):
        d = a - P + 2**256 * borrow
        out = _fe(text, subp=_only(a, (d, borrow)))["freeze"](a)
        assert all(k % P == 0 for k in (out - a).poly.values()), "freeze's result is not a mod p"
        if borrow is not b:
            assert 0 <= d.lo and d.hi < 2**256, "this case is not subp's"
            assert 0 <= out.lo and out.hi < P, "freeze's result can reach p"


def _pack(text):
    """pack(a) is a's 32 limbs for every a < p and raises for every a >= p.
    subp's proved contract makes its borrow 1 exactly when a < p: split on
    it, with bytes bound to tuple, so that a borrow of 0 returns a top limb
    of at least 256, which bytes() rejects.  A first run takes the borrow as
    a bit atom, so that nothing can branch on it."""
    a = tuple(Sym.atom(0, 255) for _ in range(32))

    def pack(borrow):
        return _fe(text, subp=_only(a, (None, borrow)), bytes=tuple)["pack"](a)

    pack(Sym.atom(0, 1))
    out = pack(1)
    assert len(out) == 32 and all(map(_same, out, a)), "pack(a) is not a's limbs for a < p"
    assert Sym.lift(pack(0)[-1]).lo >= 256, "pack(a) has a byte top limb for an a >= p"


class _Secret(bytes):
    """32 bytes that raise when a branch, comparison, table or loop reads
    them: only their type and length are public."""

    def _read(self, *args):
        raise TypeError("control flow reads secret bytes")

    __bool__ = __eq__ = __hash__ = __getitem__ = __iter__ = _read


def _scalarmult(text):
    """For all 32-byte s and u, scalarmult(s, u) is pack(freeze(x/z)) for
    (x : z) = mladder(clamp(s), unpack(u)), and nothing reads the bytes of
    s or u or branches on a value computed from them.  unpack, mladder,
    invert, freeze and pack stand in on atoms, each accepting only the value
    it should get.  clamp's own text runs on int.from_bytes(s), sum b_i 2^i
    over 256 bit atoms, and gives mladder exactly 2^254 + sum b_i 2^i over
    3 <= i < 254, its image for every s, which the mladder proof covers."""
    s, u, out = _Secret(32), _Secret(32), object()
    xp, x, z, iz, w = (Sym.atom(0, P - 1) for _ in range(5))
    bits = [Sym.atom(0, 1) for _ in range(256)]

    def from_bytes(raw, order):
        assert raw is s and order == "little", "clamp does not read s little-endian"
        return _value(bits, 1)

    def mladder(n, point):
        assert _same(n, 2**254 + 8 * _value(bits[3:254], 1)), \
            "clamp's result is not 2^254 plus bits 3..253 of s"
        assert point is xp, "mladder's point is not unpack(u)"
        return x, z

    def freeze(a):
        assert _same(a, x * iz), "scalarmult does not freeze x/z"
        return w

    ladder = _ladder(text, int=types.SimpleNamespace(from_bytes=from_bytes), unpack=_only(u, xp),
                     invert=_only(z, iz), freeze=freeze, pack=_only(w, out))
    ladder["mladder"] = mladder
    assert ladder["scalarmult"](s, u) is out, "scalarmult is not pack(freeze(x/z))"


def _kernel(name, text):
    out, seen, operands = _run_kernel(name, text)
    KERNELS[name][4](out, seen, KERNELS[name][3], *operands)


# Every claim, by name: its module and its proof.
PROOFS = {**{name: (row[0], functools.partial(_kernel, name)) for name, row in KERNELS.items()},
          "cmov": ("_linear.py", _cmov), "unpack": ("fe25519.py", _unpack), "freeze": ("fe25519.py", _freeze),
          "pack": ("fe25519.py", _pack),
          "invert": ("fe25519.py", _invert), "ladderstep": ("ladder.py", _ladderstep),
          "cswap": ("ladder.py", _cswap), "mladder": ("ladder.py", _mladder),
          "scalarmult": ("ladder.py", _scalarmult)}


def prove(name, text=None):
    """Assert the claim `name` of its module's text, or of `text`."""
    module, check = PROOFS[name]
    check(sources()[module] if text is None else text)
