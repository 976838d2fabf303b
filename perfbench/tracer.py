"""Outside-in tracing of the spdefd package.

While a :class:`Tracer` is installed, every public function and public method
defined in an ``spdefd`` module, plus the two scipy entry points the stepper
calls (``scipy.sparse.linalg.splu`` and ``gmres``), is replaced by a wrapper
that records a span (name, start, end, parent) in memory, and so are the
constructors named in ``INIT_SPANS``.  ``GridField``
construction is only counted: it runs about 10^5 times per study and a span
each would dominate the overhead.  Nothing in ``spdefd`` is edited; the
wrappers are module and class attribute swaps that :meth:`Tracer.uninstall`
reverts.

Span names are ``<module>.<qualname>`` with the ``spdefd.`` prefix dropped,
for example ``stepper.ImplicitOperator.solve`` or ``scipy.splu``.  The layer
of a span is the part before the first dot.
"""

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time

import scipy.sparse.linalg as spla

PACKAGE = "spdefd"
# constructors that do layer work (assembly, factorization, problem build)
INIT_SPANS = ("stepper.ImplicitOperator", "stepper.SpectralOperators",
              "stepper.FiniteDifferenceOperators", "problems.DifferentialProblem",
              "problems.DifferenceScheme")
_MARK = "__perfbench_original__"


class Tracer:
    """Span and counter store plus the attribute swaps that feed it."""

    def __init__(self):
        self.names = []        # span name per span
        self.starts = []
        self.ends = []
        self.parents = []      # parent span index, -1 at the root
        self.counters = {}
        self._stack = threading.local()
        self._swaps = []       # (owner, attribute, original)

    # -- spans and counters -------------------------------------------------

    def _current(self) -> list:
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._current()
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        stack = self._current()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        stack.pop()

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Swap in the wrappers. Call :meth:`uninstall` in a ``finally``."""
        if self._swaps:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        holders = [package] + modules
        wrapped = {}
        for module in modules:
            layer = module.__name__.split(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap_span(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # a function is bound under its name in every module that imports it
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                got = wrapped.get(id(obj))
                if got is not None and got[0] is obj:
                    self._swap(holder, attr, got[1])
        grids = importlib.import_module(f"{PACKAGE}.grids")
        self._swap(grids.GridField, "__init__",
                   self._wrap_count(grids.GridField.__init__,
                                    "grids.gridfield_inits"))
        self._swap(spla, "splu", self._wrap_splu(spla.splu))
        self._swap(spla, "gmres", self._wrap_gmres(spla.gmres))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps = []

    def _swap(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(wrapper, _MARK, original)
        self._swaps.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            self._swap(cls, attr, self._wrap_span(obj, f"{layer}.{cls.__name__}.{attr}"))
        name = f"{layer}.{cls.__name__}"
        if name in INIT_SPANS:
            self._swap(cls, "__init__", self._wrap_span(cls.__init__, name))

    def _wrap_span(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return wrapper

    def _wrap_count(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_splu(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("scipy.splu"):
                lu = fn(*args, **kwargs)
            tracer.count("stepper.factorizations")
            tracer.count("stepper.lu_nnz", int(lu.L.nnz + lu.U.nnz))
            return lu
        return wrapper

    def _wrap_gmres(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("stepper.gmres_calls")
            if kwargs.get("callback") is None:
                # one call per inner iteration; observes, changes nothing
                kwargs["callback"] = lambda _norm: tracer.count("stepper.gmres_iters")
                kwargs["callback_type"] = "pr_norm"
            with tracer.span("scipy.gmres"):
                return fn(*args, **kwargs)
        return wrapper

    # -- analysis -------------------------------------------------------------

    def durations(self, name: str, outside: str | None = None) -> list:
        """Durations of spans called ``name``, leaving out those that run
        inside a span called ``outside``."""
        out = []
        for idx, got in enumerate(self.names):
            if got != name:
                continue
            if outside is not None and self._inside(idx, outside):
                continue
            out.append(self.ends[idx] - self.starts[idx])
        return out

    def total(self, name: str, outside: str | None = None) -> float:
        return float(sum(self.durations(name, outside)))

    def layer_total(self, layer: str) -> float:
        """Wall time inside spans of ``layer``, nested ones counted once."""
        total = 0.0
        for idx, name in enumerate(self.names):
            parent = self.parents[idx]
            if name.split(".", 1)[0] == layer and (
                    parent < 0 or self.names[parent].split(".", 1)[0] != layer):
                total += self.ends[idx] - self.starts[idx]
        return total

    def calls(self, name: str) -> int:
        return sum(1 for got in self.names if got == name)

    def _inside(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def self_times(self) -> dict:
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        layers = {}
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            own = self.ends[idx] - self.starts[idx] - child[idx]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write_jsonl(self, path) -> None:
        """One JSON object per span, then one with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps({"id": idx, "name": name,
                                     "start": self.starts[idx],
                                     "end": self.ends[idx],
                                     "parent": self.parents[idx]}) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def leftover_wrappers() -> list:
    """Names of traced wrappers still bound anywhere the tracer swaps them."""
    found = []
    holders = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            if hasattr(obj, _MARK):
                found.append(f"{holder.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == holder.__name__:
                for cattr, cobj in vars(obj).items():
                    if hasattr(cobj, _MARK):
                        found.append(f"{holder.__name__}.{obj.__name__}.{cattr}")
    for attr in ("splu", "gmres"):
        if hasattr(getattr(spla, attr), _MARK):
            found.append(f"scipy.sparse.linalg.{attr}")
    return found
