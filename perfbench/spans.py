"""Aggregating span tracer for the benchmark's traced run.

A span is one call into a traced function: its name, start, end, the span
that made the call (its parent) and the op it belongs to.  One scalarmult
makes about 13 k traced calls, so spans are not stored one by one; each is
folded into per-name totals when it ends:

  calls[name]           number of spans
  incl_ns[name]         summed duration
  self_ns[name]         summed duration minus the time of child spans
  edges[(parent, name)] spans opened directly inside a `parent` span

The op id is the position in the benchmark's own op loop; a `snapshot`
before and after each op gives that op's counts.  Durations are integer
nanoseconds, so "the self times of all spans add up to the time of the
outermost spans" holds exactly and `check_accounting` tests it with ==.

Wrappers are installed into every `packed25519` module namespace that holds
the function object, because `fe25519` and `ladder` bind the kernels by
name with `from ... import`: patching only the defining module would miss
those calls.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

PACKAGE = "packed25519"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, incl_ns, self_ns]
        self._stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self._top = [0]  # summed duration of spans with no parent
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def calls(self) -> Dict[str, int]:
        return {k: v[0] for k, v in self._stats.items()}

    @property
    def incl_ns(self) -> Dict[str, int]:
        return {k: v[1] for k, v in self._stats.items()}

    @property
    def self_ns(self) -> Dict[str, int]:
        return {k: v[2] for k, v in self._stats.items()}

    @property
    def top_ns(self) -> int:
        return self._top[0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` with every call recorded as a span called `name`."""
        # Everything is bound to locals and the span is closed inline: the
        # wrapper's own cost lands in its parent's self time.
        stack = self._stack
        stats = self._stats[name]
        edges = self.edges
        top = self._top
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    edges[(parent[0], name)] += 1
                else:
                    top[0] += dt

        return traced

    def install(self, targets: Iterable[Tuple[object, str]]) -> None:
        """Wrap each (module, function name) in every package namespace."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module, attr in targets:
            original = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1]
            wrapped = self.wrap(f"{short}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    @contextmanager
    def installed(self, targets: Iterable[Tuple[object, str]]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self) -> Dict[str, int]:
        """Current call counts, by span name and by 'parent>child' edge."""
        counts = self.calls
        counts.update((f"{p}>{c}", n) for (p, c), n in self.edges.items())
        return counts

    def check_accounting(self, wall_ns: int) -> int:
        """Time in a traced region of `wall_ns` outside every span, in ns.

        Raises RuntimeError when the self times do not add up to the time
        of the outermost spans, or those exceed the region's wall time:
        either means the tracer lost or double-counted a span.
        """
        self_total = sum(v[2] for v in self._stats.values())
        if self_total != self.top_ns or self.top_ns > wall_ns:
            raise RuntimeError(
                f"span accounting broken: self times sum to {self_total} ns, "
                f"outermost spans to {self.top_ns} ns, region {wall_ns} ns")
        return wall_ns - self.top_ns


def diff_counts(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
