"""Per-layer tracing of the ``krein`` modules from outside the package.

The tracer wraps public functions and methods of ``krein`` for the duration
of a ``with tracer.installed():`` block and restores every original binding
when the block ends. ``krein`` modules re-bind functions with imports such as
``from .matrices import char_poly``, so a function is replaced in every
module namespace (and every class namespace, for aliases like
``__radd__ = __add__``) where the same object is bound; patching only the
defining module would let internal calls escape the trace.

Span layers record calls and self time: a span's duration minus the time
covered by its child spans. Count-only layers (scalar arithmetic) record
calls alone, because a span per scalar operation would cost more than the
operation. Counters attached to spans record work done at the same boundary,
such as ``poly_roots`` calls made under a search span.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from .clock import work_ns


@dataclass
class Layer:
    """One traced layer: the functions that belong to it, as 'module:qualname'."""

    name: str
    targets: tuple[str, ...]
    span: bool = True
    # hook(tracer, args, result) called after each completed call
    on_return: Optional[Callable] = None


@dataclass
class _Stats:
    calls: int = 0
    self_ns: int = 0
    active: int = 0


class Tracer:
    """Installs wrappers for ``layers`` into the ``package`` namespaces."""

    def __init__(self, layers, package: str = "krein"):
        self.layers = tuple(layers)
        self.package = package
        self.stats = {layer.name: _Stats() for layer in self.layers}
        self.counters: dict = {}
        self._stack: list = []
        self._patches: list = []

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, layer_name: str) -> bool:
        """True while a span of ``layer_name`` is open (for 'X under Y' counts)."""
        return self.stats[layer_name].active > 0

    # -- installation ----------------------------------------------------------

    def _resolve(self, target: str):
        mod_name, qualname = target.split(":")
        owner = sys.modules[mod_name]
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _namespaces(self):
        """Every module and class namespace of the package that may bind a target."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            yield mod
            for val in list(vars(mod).values()):
                if isinstance(val, type) and getattr(val, "__module__", "") == name:
                    yield val

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in self.layers:
            for target in layer.targets:
                orig = self._resolve(target)
                wrappers[id(orig)] = (orig, self._wrap(layer, orig))
        for ns in self._namespaces():
            for name, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((ns, name, val))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, layer: Layer, fn):
        st = self.stats[layer.name]
        hook = layer.on_return
        if not layer.span:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        stack = self._stack
        clock = work_ns  # leaves out the host-speed probes that interrupt a span
        tracer = self

        def spanned(*args, **kwargs):
            st.calls += 1
            st.active += 1
            frame = [0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st.active -= 1
                st.self_ns += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned
