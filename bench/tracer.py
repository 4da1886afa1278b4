"""In-memory span tracer that wraps eicomb's functions from outside the package.

The package imports names with ``from .x import y``, so one function can be
reachable under the same object from several module namespaces (for example
``check_convolve`` from ``convolution``, ``bounds``, ``optimizer`` and
``cli``).  ``Tracer.install`` rebinds the wrapper in every eicomb module
that holds the original object, and ``Tracer.uninstall`` puts the originals
back.  ``Channel.__post_init__`` is wrapped on the class.

Each call of a wrapped function records a span (id, parent id, name, start,
end).  Self time is the span's duration minus the time of its child spans;
the time spent in the counters' own bookkeeping is excluded from the
parent's self time as well.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._stack: list[list[int]] = [[0, 0]]  # [span id, child ns]; 0 is the root
        self._restore: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Wrap fn so every call records a span named `name`.

        `before(args, kwargs)` runs ahead of the call and its return value is
        handed to `after(token, args, kwargs, result_or_exception, raised)`.
        """
        clock = time.perf_counter_ns
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            start = clock()
            token = before(args, kwargs) if before is not None else None
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            raised = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised, result = True, exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                calls[name] += 1
                self_ns[name] += t1 - t0 - frame[1]
                spans.append((frame[0], parent[0], name, t0, t1))
                if after is not None:
                    after(token, args, kwargs, result, raised)
                parent[1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, owner, attr: str, wrapper: Callable) -> None:
        """Rebind owner.attr to wrapper, and every alias of it in `modules`."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        for mod in modules:
            for key, value in vars(mod).items():
                if value is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._restore.append((obj, key, original))
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) * 1e-9

    def ncalls(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent id, name, start ns, end ns]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def eicomb_modules() -> list:
    """The eicomb package and every loaded eicomb submodule."""
    return [m for k, m in sorted(sys.modules.items()) if k == "eicomb" or k.startswith("eicomb.")]
