"""Call tracing for the benchmark's traced runs, installed from outside the
package.

`Tracer.install` wraps the public functions and methods of every deformedw
module (dunder methods included) and rebinds each wrapped callable wherever
the package holds it: in every module namespace that imported it, in class
dictionaries under every alias (``QuadExt.__rmul__ = __mul__``), and in the
suite registry.  Nothing under the package changes on disk.

Scalar types in `exact` get a call counter only: their operations run
millions of times and a span each would dominate the run.  Every other
wrapped callable records a span (name, start, end, parent span, case).  A
span's self time is its duration minus the time its child spans cover; a
case starts at each call made directly by a suite function, and the spans
below it carry its id.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LAYERS = ("exact", "series", "context", "structfn", "fock", "wcurrents",
          "relations", "limits", "zalg", "characters", "zeta", "suites",
          "report", "cli")
COUNT_ONLY = frozenset({"exact"})
PACKAGE = "deformedw"


def _is_public(attr: str) -> bool:
    return not attr.startswith("_") or (attr.startswith("__") and
                                        attr.endswith("__"))


def _is_function(obj) -> bool:
    """Plain functions, and function wrappers such as lru_cache."""
    if inspect.isclass(obj):
        return False
    return inspect.isfunction(obj) or (
        callable(obj) and inspect.isfunction(getattr(obj, "__wrapped__", None)))


class Tracer:
    def __init__(self):
        self.names = []         # name id -> dotted name
        self.calls = []         # name id -> calls
        self.self_ns = []       # name id -> summed self time
        self.total_ns = []      # name id -> summed span duration
        self.spans = []         # (name id, start, end, parent span, case)
        self.stack = []         # open spans: [span index, child ns, case, is suite]
        self.cases = []         # case id -> label
        self.wrappers = {}      # original callable -> wrapper
        self._engine_serial = {}
        self._profiles = set()
        self._contexts = []
        self.cache_entries_max = 0
        self._before = {
            "context.ScalarCtx.__init__": self._on_context,
            "wcurrents.ModeEngine.__init__": self._on_engine,
            "wcurrents.ModeEngine.value": self._on_profile,
        }

    # -- hooks that measure ratios where the work happens

    def _on_context(self, args):
        self._contexts.append(args[0])

    def _on_engine(self, args):
        # ids of dead engines are reused; a new engine always passes here
        self._engine_serial[id(args[0])] = len(self._engine_serial)

    def _on_profile(self, args):
        self._profiles.add((self._engine_serial.get(id(args[0])),
                            tuple(args[1])))

    def _on_suite_return(self):
        # contexts built by the suite are kept alive until it returns
        for ctx in self._contexts:
            self.cache_entries_max = max(self.cache_entries_max,
                                         len(ctx.caches))
        self._contexts.clear()

    # -- wrappers

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def _counter(self, fn, nid):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, fn, nid, is_suite):
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        spans, stack, cases = self.spans, self.stack, self.cases
        name = self.names[nid]
        before = self._before.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[nid] += 1
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            new_case = parent is not None and parent[3]
            if new_case:
                case = len(cases)
                cases.append(name)
            else:
                case = parent[2] if parent is not None else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0, case, is_suite]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[nid] += duration - frame[1]
                total_ns[nid] += duration
                if parent is not None:
                    parent[1] += duration
                spans[index] = (nid, start, end,
                                parent[0] if parent is not None else -1, case)
                if is_suite:
                    self._on_suite_return()
            if new_case and hasattr(result, "case") and \
                    hasattr(result, "suite"):
                cases[case] = f"{result.suite}:{result.case}"
            return result
        return spanned

    def _wrap(self, name: str, fn, count_only: bool, is_suite=False):
        if fn in self.wrappers:        # an alias of a callable already wrapped
            return self.wrappers[fn]
        nid = self._name_id(name)
        wrapper = self._counter(fn, nid) if count_only else \
            self._spanner(fn, nid, is_suite)
        self.wrappers[fn] = wrapper
        return wrapper

    def _wrap_class(self, layer: str, cls, count_only: bool):
        for attr, member in list(vars(cls).items()):
            if not _is_public(attr):
                continue
            kind = type(member) if isinstance(
                member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            if not _is_function(fn):
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{fn.__name__}", fn,
                                 count_only)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def install(self):
        """Wrap every layer's public callables and rebind them everywhere."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        suite_fns = {entry[0] for entry in modules["suites"].SUITES.values()}
        for layer, mod in modules.items():
            count_only = layer in COUNT_ONLY
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or \
                        not _is_public(attr):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, count_only)
                elif _is_function(obj):
                    self._wrap(f"{layer}.{obj.__name__}", obj, count_only,
                               is_suite=obj in suite_fns)
        self._rebind()

    def _package_modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _rebind(self):
        for mod in self._package_modules():
            space = vars(mod)
            for attr, obj in list(space.items()):
                if _is_function(obj) and obj in self.wrappers:
                    space[attr] = self.wrappers[obj]
        registry = sys.modules[f"{PACKAGE}.suites"].SUITES
        for key, (fn, doc) in list(registry.items()):
            registry[key] = (self.wrappers.get(fn, fn), doc)

    def unwrapped(self) -> list:
        """Places in the package that still hold an original callable."""
        found = []
        for mod in self._package_modules():
            for attr, obj in vars(mod).items():
                if _is_function(obj) and obj in self.wrappers:
                    found.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and \
                        obj.__module__.startswith(PACKAGE):
                    for cattr, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if _is_function(fn) and fn in self.wrappers:
                            found.append(f"{mod.__name__}.{attr}.{cattr}")
        registry = sys.modules[f"{PACKAGE}.suites"].SUITES
        for key, (fn, _) in registry.items():
            if fn in self.wrappers:
                found.append(f"{PACKAGE}.suites.SUITES[{key!r}]")
        return sorted(set(found))

    # -- results

    def summary(self) -> dict:
        registry = sys.modules[f"{PACKAGE}.suites"].SUITES
        by_name = dict(zip(self.names, range(len(self.names))))
        suite_total = {}
        for key, (fn, _) in registry.items():
            nid = by_name.get(f"suites.{fn.__name__}")
            if nid is not None:
                suite_total[key] = self.total_ns[nid] / 1e9
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": {n: ns / 1e9 for n, ns in zip(self.names, self.self_ns)},
            "total_s": {n: ns / 1e9 for n, ns in zip(self.names, self.total_ns)},
            "suite_total_s": suite_total,
            "distinct_profiles": len(self._profiles),
            "cache_entries_max": self.cache_entries_max,
            "unwrapped": self.unwrapped(),
        }

    def span_table(self) -> dict:
        """All spans, times in microseconds from the first span's start."""
        done = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in done), default=0)
        return {
            "fields": ["name", "start_us", "duration_us", "parent", "case"],
            "names": self.names,
            "cases": self.cases,
            "spans": [[nid, (start - t0) // 1000, (end - start) // 1000,
                       parent, case]
                      for nid, start, end, parent, case in done],
        }
