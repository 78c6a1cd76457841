"""Answers that do not depend on the code's own choices.

Each test reruns the pipeline under a perturbation that the mathematics
says cannot change its answer, by monkeypatching, with no option in src/.

1. The sample stream: every ideal slice is certified by rank = h^0 with
   deg - h^0 <= 8 < SLICE_MARGIN, and kernel bases are canonical, so the
   canonical report does not depend on which points a chain draws.

The sample stream of a chain is also drawn once and evaluated once; the
spy tests below pin that.
"""

import sys

import pytest

from scrollres import chain, plane_curve, resolution, scroll
from scrollres.pipeline import run_pipeline
from scrollres.resolution import point_demand

#: the default prime, and the first split prime
INVARIANCE_PRIMES = (10007, 11863289)


def _stream_at_another_seed(monkeypatch):
    """Make every chain draw its stream at seed 900 + 4321 instead of 900;
    returns the list of streams drawn."""
    draw = plane_curve.sample_smooth_points
    streams = []

    def moved(model, count, seed=0):
        assert (count, seed) == (point_demand(), 900)
        points = draw(model, count, seed=seed + 4321)
        streams.append((model, points))
        return points

    monkeypatch.setattr(resolution, "sample_smooth_points", moved)
    return streams


@pytest.mark.parametrize("prime", INVARIANCE_PRIMES)
def test_report_does_not_depend_on_the_sample_stream(monkeypatch, prime, known_canonical_sha256):
    # the moved chain's report is the recorded report of the unmoved one
    streams = _stream_at_another_seed(monkeypatch)
    moved = run_pipeline(prime, 1)
    [(model, points)] = streams
    # the moved stream shares few of its 110 points with the chain's own
    shared = set(points) & set(plane_curve.sample_smooth_points(model, point_demand(), seed=900))
    assert len(shared) < 10
    known_canonical_sha256(moved, prime, 1)


def _spy_everywhere(monkeypatch, func) -> list:
    """Record the positional arguments of every call of func, under each
    scrollres module name bound to it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("scrollres") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, spy)
    return calls


def _draws_and_evaluations(monkeypatch):
    return (_spy_everywhere(monkeypatch, plane_curve.sample_smooth_points),
            _spy_everywhere(monkeypatch, scroll.point_values))


def test_one_draw_and_one_evaluation_per_pipeline_chain(monkeypatch):
    draws, evaluations = _draws_and_evaluations(monkeypatch)
    assert run_pipeline(10007, 1)["ok"]
    assert [args[1] for args in draws] == [point_demand()]
    assert [len(args[2]) for args in evaluations] == [point_demand()]


def test_one_draw_and_one_evaluation_per_survey_chain(monkeypatch):
    draws, evaluations = _draws_and_evaluations(monkeypatch)
    assert chain.survey_seed(10007, 101)["ok"]
    assert [args[1] for args in draws] == [point_demand()]
    assert [len(args[2]) for args in evaluations] == [point_demand()]
