"""The tracer's arithmetic: self time, child coverage, nesting, conv kinds, per-pass totals.

Run from the repository root with ``python3 -m pytest benchmarks``. Times
come from a fake clock, so nothing here depends on how fast the host is.
"""

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import (  # noqa: E402
    Span,
    Tracer,
    classify_conv,
    conv_macs,
    conv_out_shape,
    self_times,
    uncovered_share,
    union_length,
)


class FakeClock:
    """Advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_union_length_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3.0
    assert union_length([(0, 3), (1, 2), (2, 5)]) == 5.0
    assert union_length([(4, 6), (0, 1), (0.5, 2)]) == 4.0


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "a:outer", 0.0, 10.0, None),
        Span(1, "b:child", 1.0, 3.0, 0),
        Span(2, "c:grandchild", 1.5, 2.0, 1),
        Span(3, "b:child", 4.0, 6.0, 0),
        Span(4, "b:late", 9.0, 12.0, 0),  # outlives its parent: only 9..10 counts
    ]
    assert self_times(spans) == [10.0 - 2.0 - 2.0 - 1.0, 1.5, 0.5, 2.0, 3.0]


def test_self_times_sum_to_root_duration():
    spans = [Span(0, "a:root", 0.0, 8.0, None), Span(1, "a:x", 1.0, 4.0, 0),
             Span(2, "a:y", 2.0, 3.0, 1), Span(3, "a:z", 5.0, 7.0, 0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_uncovered_share_of_a_window():
    spans = [Span(0, "a:x", 1.0, 3.0, None), Span(1, "a:y", 2.0, 5.0, None),
             Span(2, "a:z", 9.0, 20.0, None)]
    assert uncovered_share(spans, 0.0, 10.0) == pytest.approx(1.0 - 5.0 / 10.0)
    assert uncovered_share([], 0.0, 4.0) == 1.0


def test_wrapped_calls_nest_with_parents_and_clock_times():
    tracer = Tracer(clock=FakeClock())

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "b:leaf")

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = tracer.wrap(outer, lambda x: f"a:outer.{x}",
                               attrs=lambda x: {"x": x}, post=lambda r: {"result": r})
    assert traced_outer(2) == 6
    outer_span, first, second = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.attrs) == (
        "a:outer.2", None, {"x": 2, "result": 6})
    assert (first.name, first.parent, second.parent) == ("b:leaf", 0, 0)
    # clock readings: outer start 1, leaf 2-3, leaf 4-5, outer end 6
    assert (outer_span.start, outer_span.end) == (1.0, 6.0)
    assert (first.start, first.end, second.start, second.end) == (2.0, 3.0, 4.0, 5.0)
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert [s.layer for s in tracer.spans] == ["a", "b", "b"]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "a:boom")()
    (span,) = tracer.spans
    assert span.end > span.start
    tracer.wrap(lambda: None, "a:after")()
    assert tracer.spans[1].parent is None


def test_patch_function_rebinds_every_alias_and_uninstall_restores(monkeypatch):
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def work():
        return 7

    base.work = work
    user.work = work  # as after ``from .base import work``
    user.call = lambda: user.work()
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.base", base),
                      ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer(clock=FakeClock())
    tracer.patch_function("fakepkg", "fakepkg.base", "work", "base:work")
    assert user.call() == 7
    assert [s.name for s in tracer.spans] == ["base:work"]
    tracer.uninstall()
    assert base.work is work and user.work is work


@pytest.mark.parametrize("w_shape, groups, kind", [
    ((16, 64, 1, 1), 1, "pointwise"),
    ((16, 1, 5, 1), 16, "depthwise"),
    ((16, 1, 1, 5), 16, "depthwise"),
    ((8, 2, 5, 5), 8, "grouped"),
    ((8, 4, 1, 1), 2, "grouped"),
    ((8, 3, 5, 5), 1, "dense"),
    ((16, 8, 3, 3), 1, "dense"),
])
def test_classify_conv(w_shape, groups, kind):
    assert classify_conv(w_shape, groups) == kind


def test_conv_shapes_and_macs():
    out = conv_out_shape((2, 3, 16, 16), (8, 3, 5, 5), (1, 1), (0, 0))
    assert out == (2, 8, 12, 12)
    assert conv_out_shape((1, 4, 9, 9), (4, 1, 3, 1), (2, 1), (1, 0)) == (1, 4, 5, 9)
    assert conv_macs(out, (8, 3, 5, 5)) == 2 * 8 * 12 * 12 * 3 * 25


def test_separable_layers_are_classified_by_kind():
    """The CP pipeline is pointwise then two depthwise convs; Tucker is pointwise then grouped."""
    import instrument
    from hyperadapt.data import synth_filter_bank
    from hyperadapt.decomp import decompose_bank
    from hyperadapt.filteradapt import adapt
    from hyperadapt.nn import first_layer_from_adapted

    bank = synth_filter_bank(4, 5, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 6, 9, 9))
    kinds = {}
    for method in ("cp", "tucker"):
        decomps, _ = decompose_bank(bank, method, 2)
        layer = first_layer_from_adapted(adapt(decomps, 6))
        tracer = Tracer(clock=FakeClock())
        instrument.install(tracer)
        try:
            layer.forward(x)
        finally:
            tracer.uninstall()
        kinds[method] = [s.attrs["kind"] for s in tracer.spans if s.name == "nn.conv:conv2d"]
        first = tracer.spans[0]
        assert first.name == f"nn.layers:first.{method}.forward" and first.attrs == {"n": 2}
        assert all(s.parent == first.sid for s in tracer.spans[1:])
    assert kinds == {"cp": ["pointwise", "depthwise", "depthwise"],
                     "tucker": ["pointwise", "grouped"]}


def test_per_pass_metrics_count_setup_once_and_average_rounds():
    """Set-up spans count once; spans of the traced rounds count per round."""
    import instrument

    spans = [Span(0, "linalg:lstsq_gram", 0.0, 0.002, None),
             Span(1, "linalg:lstsq_gram", 0.002, 0.004, None)]
    for i in range(6):  # three rounds of two calls each, 1 ms apiece
        spans.append(Span(2 + i, "linalg:lstsq_gram", 1.0 + i, 1.001 + i, None))
    metrics = instrument.layer_metrics(spans, setup_count=2, rounds=3)
    assert metrics["linalg.lstsq_gram_calls"] == (4, "count")
    assert metrics["linalg.lstsq_gram_ms"][0] == pytest.approx(2 * 2.0 + 6 * 1.0 / 3)
    assert metrics["self_ms.linalg"][0] == pytest.approx(metrics["linalg.lstsq_gram_ms"][0])
    assert metrics["trace.spans"] == (4, "count")
    assert "nn.layers.first_fwd_ms.cp" not in metrics  # no calls, no median
