"""Answers that do not depend on the code's own choices.

Each test reruns the pipeline under a perturbation that the mathematics
says cannot change its answer, by monkeypatching, with no option in src/.

1. The sample stream: every ideal slice is certified by rank = h^0 with
   deg - h^0 <= 8 < SLICE_MARGIN, and kernel bases are canonical, so the
   canonical report does not depend on which points a chain draws.
2. The projection seeds: a tall matrix is compressed by a seeded random
   projection whose kernel is certified against the matrix, and its RREF
   is unique, so other seeds, or no compression at all, give the same
   report.
3. The scale of the nonic: c*F cuts the same curve, and every check reads
   F only through its zeros, its vanishing partials or the nonvanishing
   of its tangent cone, so the report of c*F differs from that of F only
   in model.coeffs.
5. The order of GAMMA_PARAMETERS: gamma is the image curve, and its cubic
   is a canonical kernel vector of the samples, which lie on it, so the
   cubic, its node and the fiber parameters do not depend on which members
   are sampled first.

The sample stream of a chain is also drawn once and evaluated once; the
spy tests below pin that.
"""

import dataclasses
import sys

import pytest

from scrollres import chain, ffield, pipeline, plane_curve, resolution, scroll
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


def _other_projection_seeds(monkeypatch) -> list:
    """Shift the seed of every random projection by 17; returns the list of
    shifted seeds used."""
    block = ffield._projection_block
    seeds = []

    def shifted(seed, *args):
        seeds.append(seed + 17)
        return block(seed + 17, *args)

    monkeypatch.setattr(ffield, "_projection_block", shifted)
    return seeds


def _no_compression(monkeypatch) -> list:
    """Make every compression fail, so every tall matrix is eliminated
    directly; returns the list of compressions refused."""
    refused = []

    def refuse(blocks, cols, p):
        refused.append(cols)

    monkeypatch.setattr(ffield, "_compressed", refuse)
    return refused


@pytest.mark.parametrize("perturb", [_other_projection_seeds, _no_compression],
                         ids=["shifted_seeds", "no_compression"])
@pytest.mark.parametrize("prime", INVARIANCE_PRIMES)
def test_report_does_not_depend_on_the_projections(monkeypatch, prime, perturb,
                                                   known_canonical_sha256):
    calls = perturb(monkeypatch)
    report = run_pipeline(prime, 1)
    assert calls
    known_canonical_sha256(report, prime, 1)


@pytest.mark.parametrize("prime", INVARIANCE_PRIMES)
def test_report_does_not_depend_on_the_scale_of_the_nonic(monkeypatch, prime,
                                                         known_canonical_sha256):
    # the report of 3F, with its model.coeffs divided by 3 again, is the
    # recorded report of F
    construct = plane_curve.construct_nodal_nonic

    def scaled(p, seed):
        model = construct(p, seed)
        return dataclasses.replace(model, coeffs=3 * model.coeffs % p)

    monkeypatch.setattr(chain, "construct_nodal_nonic", scaled)
    report = run_pipeline(prime, 1)
    third = pow(3, -1, prime)
    report["model"]["coeffs"] = [c * third % prime for c in report["model"]["coeffs"]]
    known_canonical_sha256(report, prime, 1)


@pytest.mark.parametrize("turn", [lambda ps: ps[::-1], lambda ps: ps[5:] + ps[:5]],
                         ids=["reversed", "rotated_by_5"])
@pytest.mark.parametrize("prime, seed", [(10007, 1), (10007, 2), (11863289, 1)])
def test_report_does_not_depend_on_the_order_of_the_gamma_members(
        monkeypatch, prime, seed, turn, known_canonical_sha256):
    # gamma is fitted to the first members of the turned order, none skipped,
    # and the report, checks and gamma section included, is the recorded one
    order = turn(pipeline.GAMMA_PARAMETERS)
    fit = pipeline.fit_gamma
    fitted = []

    def recording(samples, p):
        fitted.append([par for par, _coords in samples])
        return fit(samples, p)

    monkeypatch.setattr(pipeline, "GAMMA_PARAMETERS", order)
    monkeypatch.setattr(pipeline, "fit_gamma", recording)
    report = run_pipeline(prime, seed)
    assert fitted == [order[:report["gamma"]["sampleCount"]]]
    assert report["gamma"]["skippedParameters"] == []
    known_canonical_sha256(report, prime, seed)


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
