"""In-memory span tracer used by the benchmark's traced run.

Spans are recorded from outside the library: :meth:`Tracer.patch_function`
and :meth:`Tracer.patch_method` replace a public function or method with a
wrapper wherever the package binds it, so calls made inside the package
(``from .conv import conv2d`` in ``nn.layers``, say) are traced as well.
Each span keeps its name, start, end, parent span and optional attributes;
nothing is written out until the benchmark ends.

Span names have the form ``"<layer>:<what>"``; the part before the colon
is the layer that self time is charged to.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


@dataclass
class Tracer:
    """Records nested spans of the calls its wrappers intercept."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, post=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``post`` maps the call's result to attributes added to the span.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, attrs)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = self.clock()
            self._stack.pop()
        if post is not None:
            span.attrs = {**(span.attrs or {}), **post(result)}
        return result

    def wrap(self, fn, name, attrs=None, post=None):
        """Wrapper around ``fn`` that records a span per call.

        ``name`` is a string or a callable taking the call's arguments and
        returning one; ``attrs`` likewise returns a dict of span attributes.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            extra = attrs(*args, **kwargs) if attrs is not None else None
            return self.call(label, fn, args, kwargs, extra, post)
        return traced

    def patch_function(self, package: str, module: str, attr: str, name,
                       attrs=None, post=None) -> None:
        """Wrap ``module.attr`` and every binding of the same object inside ``package``."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, attrs, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, name, attrs=None, post=None) -> None:
        """Wrap a method defined on ``cls`` itself (inherited ones are not touched)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, attrs, post))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent's interval first, so a child
    that outlives its parent is charged to the parent only for the overlap.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        p = by_id.get(s.parent) if s.parent is not None else None
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(p.sid, []).append((lo, hi))
    return [s.duration - union_length(children.get(s.sid, ())) for s in spans]


def uncovered_share(spans, start: float, end: float) -> float:
    """Share of the window [start, end] that no span covers."""
    if end <= start:
        return 0.0
    clipped = [(max(s.start, start), min(s.end, end)) for s in spans
               if s.end > start and s.start < end]
    return 1.0 - union_length(clipped) / (end - start)


def classify_conv(w_shape, groups: int) -> str:
    """Kind of a conv call from its weight shape (C_out, C_in/groups, kh, kw) and groups."""
    _, c_in_g, kh, kw = w_shape
    if groups > 1:
        return "depthwise" if c_in_g == 1 else "grouped"
    return "pointwise" if kh == 1 and kw == 1 else "dense"


def conv_out_shape(x_shape, w_shape, stride=(1, 1), padding=(0, 0)):
    """(N, C_out, Ho, Wo) of a conv over an (N, C, H, W) input."""
    n, _, h, w = x_shape
    c_out, _, kh, kw = w_shape
    return (n, c_out, (h + 2 * padding[0] - kh) // stride[0] + 1,
            (w + 2 * padding[1] - kw) // stride[1] + 1)


def conv_macs(out_shape, w_shape) -> int:
    """Multiply-accumulates of one conv forward pass: N*C_out*Ho*Wo*(C_in/groups)*kh*kw."""
    n, c_out, ho, wo = out_shape
    _, c_in_g, kh, kw = w_shape
    return n * c_out * ho * wo * c_in_g * kh * kw
