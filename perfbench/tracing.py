"""Per-layer tracing from outside the program.

install() wraps every public function of the layer modules at run time and
rebinds the wrapper in every pkcore namespace that holds the function, so
a call made through `from .primes import divisors` inside generators is
seen as well as one made through pkcore.primes. Each call becomes a span
[name, parent, start, end] kept in memory; self time is a span's duration
minus the durations of its direct children. Private helpers are not
wrapped, so their time counts toward the public function that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = ("modring", "corefst", "pairsums", "waring", "generators", "primes", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one call."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds] over all spans recorded."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, parent, start, end), inner in zip(self.spans, child):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module in every namespace."""
    import pkcore

    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"pkcore.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    namespaces = [pkcore] + [
        importlib.import_module(f"pkcore.{info.name}") for info in pkgutil.iter_modules(pkcore.__path__)
    ]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
