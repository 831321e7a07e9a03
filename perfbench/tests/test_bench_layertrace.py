"""Self-time accounting of the benchmark's tracer."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layertrace import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.t += 2.0

    def outer():
        clock.t += 1.0
        inner_w()
        inner_w()
        clock.t += 3.0

    inner_w = tr.wrap(inner, "toy.inner")
    outer_w = tr.wrap(outer, "toy.outer")
    outer_w()
    snap = tr.snapshot()
    assert snap["spans"]["toy.outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert snap["spans"]["toy.inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_raising_call_still_closes_its_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.t += 5.0
        raise KeyError("x")

    def outer():
        try:
            boom_w()
        except KeyError:
            pass
        clock.t += 1.0

    boom_w = tr.wrap(boom, "toy.boom")
    tr.wrap(outer, "toy.outer")()
    assert tr.spans["toy.outer"] == [1, 6.0, 1.0]
    assert tr.spans["toy.boom"] == [1, 5.0, 5.0]
    with pytest.raises(KeyError):
        boom_w()
    assert tr._stack == []


def test_counters_and_reset_keep_wrappers_live():
    tr = Tracer()
    sq = tr.wrap(lambda x: x * x, "toy.sq", lambda a, kw, r: [("toy.sum", r)])
    tick = tr.tally(lambda: None, "toy.ticks")
    sq(3)
    tick()
    assert tr.counters == {"toy.sum": 9, "toy.ticks": 1}
    tr.reset()
    sq(2)
    tick()
    tick()
    assert tr.counters == {"toy.sum": 4, "toy.ticks": 2}
    assert tr.spans["toy.sq"][0] == 1
