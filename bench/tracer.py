"""Per-layer counts and self time, recorded from outside the program.

``install`` wraps every public function and method defined in the
modules of ``cantordensity`` (names without a leading underscore,
properties included) and rebinds every module-level name that refers
to a wrapped function, so calls made through ``from x import f`` are
seen too. A layer is a module; ``cli`` and ``jsonio`` together make the
``jsonio`` layer. Self time is a wrapper's duration minus the time
spent in the wrappers nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "cli": "jsonio",
    "jsonio": "jsonio",
    "oracles": "oracles",
    "offspring": "offspring",
    "trees": "trees",
    "reductions": "reductions",
    "approx": "approx",
    "clopen": "clopen",
    "dualistic": "dualistic",
    "dyadics": "dyadics",
    "words": "words",
    "branches": "branches",
}


class Tracer:
    def __init__(self):
        self.layer_calls: Counter = Counter()
        self.function_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # Outermost local_bounds calls: one per question asked of an oracle.
        self.top_local_bounds = 0
        self._children: list[float] = []
        self._local_bounds_depth = 0

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        children = self._children
        layer_calls, function_calls, self_s = self.layer_calls, self.function_calls, self.self_s
        outermost = name == "local_bounds"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer_calls[layer] += 1
            function_calls[key] += 1
            if outermost:
                if tracer._local_bounds_depth == 0:
                    tracer.top_local_bounds += 1
                tracer._local_bounds_depth += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                if outermost:
                    tracer._local_bounds_depth -= 1

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        modules = [importlib.import_module(f"cantordensity.{name}") for name in LAYERS]
        for module in modules:
            layer = LAYERS[module.__name__.rsplit(".", 1)[1]]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    setattr(module, name, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, name, member.__func__)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, name, property(self.wrap(layer, name, member.fget),
                                            member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                setattr(cls, name, self.wrap(layer, name, member))
