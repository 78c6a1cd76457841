import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scrollres.chain as chain
import scrollres.cli as cli
import scrollres.lattice as lattice
import scrollres.pipeline as pipeline
import scrollres.survey as survey
from scrollres.chain import PipelineError, survey_seed
from scrollres.cli import main
from scrollres.ffield import MAX_PRIME, is_prime
from scrollres.pipeline import canonical_json, run_pipeline
from scrollres.plane_curve import (
    InsufficientRationalPointsError,
    PlaneCurveModel,
    construct_nodal_octic,
    verify_node_report,
)
from scrollres.quartic_net import GammaError, binary_form_roots
from scrollres.resolution import SliceContext, slice_point_demand
from scrollres.survey import sample_survey


def test_audit_command(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_construct_nonic(tmp_path, capsys):
    path = tmp_path / "model.json"
    assert main(["--seed", "3", "--json", str(path), "construct"]) == 0
    payload = json.loads(path.read_text())
    assert payload["report"]["ok"]
    assert payload["model"]["degree"] == 9


def test_construct_octic(capsys):
    assert main(["--seed", "3", "construct", "--plane-model", "octic"]) == 0
    out = capsys.readouterr().out
    assert "degree 8" in out


def test_construct_octic_writes_plane_model_json(tmp_path):
    path = tmp_path / "octic.json"
    assert main(["--seed", "3", "--json", str(path), "construct", "--plane-model", "octic"]) == 0
    payload = json.loads(path.read_text())
    model = PlaneCurveModel.from_json(json.dumps(payload["model"]))
    expected = construct_nodal_octic(10007, 3)
    assert (model.degree, model.q_mult, len(model.nodes)) == (8, 2, 11)
    assert np.array_equal(model.coeffs, expected.coeffs)
    assert (model.q, model.nodes, model.seed) == (expected.q, expected.nodes, 3)
    assert payload["report"]["ok"]
    assert verify_node_report(model)["condition_rank"] == 36


def test_common_options_on_either_side_of_the_command(tmp_path):
    before, after, mixed = (tmp_path / name for name in ("before", "after", "mixed"))
    assert main(["--seed", "3", "--json", str(before), "construct", "--plane-model", "octic"]) == 0
    assert main(["construct", "--plane-model", "octic", "--seed", "3", "--json", str(after)]) == 0
    # an option given before the command is not reset by the command's copy
    assert main(["--seed", "3", "construct", "--plane-model", "octic", "--json", str(mixed)]) == 0
    assert before.read_text() == after.read_text() == mixed.read_text()
    assert json.loads(before.read_text())["model"]["seed"] == 3


def test_lattice_command_with_gram_file(tmp_path, capsys):
    gram = {"gram": [[14, 16, 5], [16, 16, 6], [5, 6, 0]], "labels": ["H", "C", "N"]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    assert main(["lattice", "--gram-file", str(path), "--ample-class", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "56" in out


def test_lattice_command_rejects_a_class_of_the_wrong_length(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, -2]]}))
    assert main(["lattice", "--gram-file", str(path), "--ample-class", "1,0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: class (1, 0, 0) has length 3, the lattice rank is 2" in captured.err
    assert main(["lattice", "--gram-file", str(path), "--ample-class", "1"]) == 1
    assert "has length 1" in capsys.readouterr().err
    lat = lattice.GramLattice(((2, 1), (1, -2)), ("a", "b"))
    for bad in ((1, 0, 0), (1,)):
        with pytest.raises(lattice.LatticeError, match="the lattice rank is 2"):
            lat.pairing(bad, (1, 0))
        with pytest.raises(lattice.LatticeError, match="the lattice rank is 2"):
            lat.gram_times(bad)


@pytest.mark.parametrize("data, message", [
    ({"gram": [[2.5, 1], [1, -2]]}, "gram entry 2.5 is not an integer"),
    ({"gram": [["2", 1], [1, -2]]}, "gram entry '2' is not an integer"),
    ({"gram": [[2, 1], [1, True]]}, "gram entry True is not an integer"),
    ({"labels": ["a", "b"]}, 'needs a "gram" key holding a list of rows'),
    ({"gram": [2, 1]}, 'needs a "gram" key holding a list of rows'),
    ([[2, 1], [1, -2]], 'needs a "gram" key holding a list of rows'),
    ('{"gram": [[2, 1], [1, -2]]', "is not JSON"),
    (None, "cannot read"),
    ({"gram": [[2, 1], [1, -2]], "labels": 5}, '"labels" must be a list of strings'),
    ({"gram": [[2, 1], [1, -2]], "labels": "ab"}, '"labels" must be a list of strings'),
    ({"gram": [[2, 1], [1, -2]], "labels": ["a", 2]}, '"labels" must be a list of strings'),
])
def test_lattice_command_rejects_a_malformed_gram_file(tmp_path, capsys, data, message):
    # data is a JSON value, raw file text, or None for a missing file
    path = tmp_path / "gram.json"
    if data is not None:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert main(["lattice", "--gram-file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_lattice_command_rejects_a_non_integer_class(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, -2]]}))
    assert main(["lattice", "--gram-file", str(path), "--ample-class", "1,x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ample-class needs comma-separated integers, not '1,x'\n"


def test_lattice_command(capsys):
    assert main(["lattice"]) == 0
    assert "all lattice checks passed: True" in capsys.readouterr().out


def test_lattice_command_with_bound(tmp_path):
    path = tmp_path / "lattice.json"
    assert main(["--bound", "20", "--json", str(path), "lattice"]) == 0
    entries = json.loads(path.read_text())["rank4Entries"]
    assert entries["literal_inequalities"] == [16, 6]
    assert entries["second_polarization"] == [16, 7]


def test_lattice_command_bound_reaches_every_search(tmp_path, monkeypatch):
    default = tmp_path / "default.json"
    assert main(["--json", str(default), "lattice"]) == 0
    boxes = {"derive_hprime_entries": [], "second_polarization_entries": []}
    for name, seen in boxes.items():
        original = getattr(lattice, name)

        def counted(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(kwargs.get("box", args[0] if args else None))
            return _original(*args, **kwargs)

        for module in (lattice, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    path = tmp_path / "lattice.json"
    assert main(["--bound", "20", "--json", str(path), "lattice"]) == 0
    # each search runs once, in the requested box, and the report is unchanged
    assert boxes == {"derive_hprime_entries": [20], "second_polarization_entries": [20]}
    assert path.read_text() == default.read_text()


def test_lattice_command_bound_too_small(capsys):
    # no entry pair lies in [-10, 10]^2: a one-line error, not a traceback
    assert main(["--bound", "10", "lattice"]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-unique: []\n"


def test_survey_rejects_zero_count(capsys):
    assert main(["survey", "--count", "0"]) == 2


def test_survey_has_no_workers_option(capsys):
    # the command runs one worker per usable CPU; the count is not an option
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--count", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_betti_command(tmp_path, capsys):
    path = tmp_path / "betti.json"
    assert main(["--seed", "1", "--json", str(path), "betti"]) == 0
    payload = json.loads(path.read_text())
    entries = {(e["i"], e["a"], e["b"]): e["multiplicity"] for e in payload["entries"]}
    assert entries[(4, 6, 2)] == 1


def _count_chains(monkeypatch) -> list:
    """Record the (prime, seed) of every chain the pipeline builds."""
    built = []
    build = pipeline.build_chain

    def counted(prime, seed):
        built.append((prime, seed))
        return build(prime, seed)

    monkeypatch.setattr(pipeline, "build_chain", counted)
    return built


def test_pipeline_report_determinism_with_retry(monkeypatch, known_canonical_sha256):
    # seed 2 has conjugate (non-rational) singular-fiber parameters: its one
    # chain certifies both at once over F_p[t]/(h), deterministically
    built = _count_chains(monkeypatch)
    a = run_pipeline(10007, 2)
    assert built == [(10007, 2)]
    b = run_pipeline(10007, 2)
    assert a["ok"] and b["ok"] and "error" not in a
    assert canonical_json(a) == canonical_json(b)
    known_canonical_sha256(a, 10007, 2)
    assert "curveAttempts" not in a
    # h = t^2 + c1 t + c0 is irreducible, and the two entries are t and its
    # conjugate -c1 - t, with mu = 1
    one, c1, c0 = a["gamma"]["fiberModulus"]
    assert one == 1 and binary_form_roots([1, c1, c0], 10007) == []
    assert a["gamma"]["fiberParameters"] == [
        [[0, 1], [1, 0]], [[-c1 % 10007, 10006], [1, 0]]]
    assert a["checks"]["two_singular_fiber_parameters"]
    assert a["checks"]["third_parameter_maps_elsewhere"]


@pytest.mark.parametrize("prime", [2147483629, 2147483647])
def test_pipeline_certifies_at_the_largest_supported_prime(prime, monkeypatch, known_canonical_sha256):
    # below 2^31 a product of two residues nears 2^62, so every matrix
    # product must split a factor into limbs to stay exact in float64;
    # 2^31 - 1 = MAX_PRIME - 1 is the largest supported prime; the digest
    # guards the report byte for byte
    assert is_prime(prime) and prime < MAX_PRIME
    built = _count_chains(monkeypatch)
    report = run_pipeline(prime, 1)
    assert report["ok"], report.get("error")
    assert built == [(prime, 1)] and "error" not in report
    known_canonical_sha256(report, prime, 1)


def _no_chain(prime, seed):
    pytest.fail(f"build_chain({prime}, {seed}) ran for a prime rejected up front")


def test_small_prime_failure_mode(monkeypatch, capsys):
    # at p = 101 the Hasse-Weil bound cannot guarantee the sampled points:
    # the prime is rejected with a clear error before any chain is built
    for module in (pipeline, chain):
        monkeypatch.setattr(module, "build_chain", _no_chain)
    demand = sum(pipeline.point_demand())
    message = "prime 101 is too small .* guarantees 0 .* request {}"
    with pytest.raises(PipelineError, match=message.format(demand)):
        run_pipeline(101, 1)
    with pytest.raises(PipelineError, match=message.format(chain.survey_point_demand())):
        sample_survey(101, count=2, base_seed=1)
    assert main(["--prime", "101", "pipeline"]) == 1
    err = capsys.readouterr().err
    assert "error: prime 101 is too small for point sampling" in err
    assert f"the stages request {demand}" in err


def test_pipeline_command_reports_a_non_prime_modulus(capsys):
    assert main(["--prime", "10006", "pipeline"]) == 1
    assert capsys.readouterr().err == "error: FieldError: modulus 10006 is not prime\n"


def test_gamma_command_reports_a_failed_stage(monkeypatch, capsys):
    # a chain whose cross forms share no squarefree quadratic fails in the
    # gamma stage: one line naming the error and the stage
    def no_pair(gmap, point, p):
        raise GammaError("preimage count != 2: the cross forms share the form [1, 5]")

    monkeypatch.setattr(pipeline, "singular_fiber_parameters", no_pair)
    assert main(["--seed", "2", "gamma"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: GammaError: ") and err.count("\n") == 1
    assert "preimage count != 2" in err and err.endswith("(stage net_and_gamma)\n")


def test_gamma_command_certifies_a_conjugate_pair(monkeypatch, tmp_path, capsys):
    # seed 2's two singular-fiber parameters are conjugate over F_p; the
    # command certifies them from its one chain
    built = _count_chains(monkeypatch)
    path = tmp_path / "gamma.json"
    assert main(["--seed", "2", "--json", str(path), "gamma"]) == 0
    assert built == [(10007, 2)]
    gamma = json.loads(path.read_text())["gamma"]
    assert len(gamma["fiberParameters"]) == 2 and len(gamma["fiberModulus"]) == 3
    assert gamma["smoothnessVerdict"] is True
    assert "smoothness verdict: True" in capsys.readouterr().out


def test_k3_command_rejects_a_small_prime_before_any_chain(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_chain", _no_chain)
    monkeypatch.setattr(pipeline, "build_chain", _no_chain)
    for command in ("k3", "gamma"):
        assert main(["--prime", "101", command]) == 1
        assert "error: prime 101 is too small for point sampling" in capsys.readouterr().err


def test_cli_lets_programming_errors_propagate(monkeypatch):
    def broken(prime, seed):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "build_chain", broken)
    monkeypatch.setattr(pipeline, "build_chain", broken)
    for command in ("betti", "k3", "gamma"):
        with pytest.raises(TypeError, match="unsupported operand"):
            main([command])


def test_modulus_of_a_wrong_type_is_a_type_error(monkeypatch):
    # a numpy integer or a bool is not reported as a non-prime
    monkeypatch.setattr(pipeline, "build_chain", _no_chain)
    with pytest.raises(TypeError, match="not int64"):
        run_pipeline(np.int64(10007), 1)
    with pytest.raises(TypeError, match="not bool"):
        run_pipeline(True, 1)


def test_sampling_prime_boundary(monkeypatch):
    # the pipeline rejects 661 and accepts 673; the survey, whose chains
    # stop after the Betti table, rejects 601 and accepts 607
    assert [n for n in range(640, 680) if is_prime(n)] == [641, 643, 647, 653, 659, 661, 673, 677]
    demand = sum(pipeline.point_demand())
    assert chain.guaranteed_points(661) < demand <= chain.guaranteed_points(673)
    assert [n for n in range(590, 610) if is_prime(n)] == [593, 599, 601, 607]
    survey_demand = chain.survey_point_demand()
    assert survey_demand == 2 * slice_point_demand() == 120
    assert chain.guaranteed_points(601) < survey_demand <= chain.guaranteed_points(607)
    for module in (pipeline, chain):
        monkeypatch.setattr(module, "build_chain", _no_chain)
    with pytest.raises(PipelineError, match="prime 661"):
        run_pipeline(661, 1)
    with pytest.raises(PipelineError, match="prime 601"):
        sample_survey(601, count=1)

    built = []

    def no_points(prime, seed):
        built.append(prime)
        raise InsufficientRationalPointsError("stub chain")

    for module in (pipeline, chain):
        monkeypatch.setattr(module, "build_chain", no_points)
    report = run_pipeline(673, 1, max_curve_attempts=1)
    assert report["error"] == {
        "stage": "curve_and_betti", "type": "InsufficientRationalPointsError",
        "message": "stub chain",
    }
    assert not sample_survey(607, count=1)["ok"]
    assert built == [673, 607]


def test_survey_certifies_at_its_smallest_prime():
    # the survey's own demand is enough: a chain at p = 607 finds its points
    summary = sample_survey(607, count=1, base_seed=1)
    assert summary["ok"] and summary["results"][0]["ok"]


def test_hasse_weil_bound_is_exact():
    # ceil(18 sqrt(p)) by integer arithmetic: (h - 1)^2 < 324 p <= h^2
    for p in (2, 101, 661, 673, 10007, 100003, 16777213, 2147483629):
        h = p + 1 - chain.SINGULAR_BRANCHES - chain.POINTS_AT_INFINITY \
            - chain.guaranteed_points(p)
        if chain.guaranteed_points(p):
            assert (h - 1) ** 2 < 324 * p <= h * h
    assert chain.guaranteed_points(10007) == 10007 + 1 - 1801 - 35 - 9


def test_point_requests_within_declared_demand(monkeypatch):
    requests = {0: [], 1: []}
    points = SliceContext.points

    def recording(self, batch, n):
        requests[batch].append(n)
        return points(self, batch, n)

    monkeypatch.setattr(SliceContext, "points", recording)
    assert run_pipeline(10007, 1)["ok"]
    batch0, batch1 = pipeline.point_demand()
    assert max(requests[0]) <= batch0 and max(requests[1]) <= batch1
    assert max(requests[0]) == pipeline.K3_CHECK_POINTS


@pytest.fixture(scope="module")
def small_survey():
    return sample_survey(10007, count=2, base_seed=5)


def _record_launches(monkeypatch, cpus: int = 8) -> list:
    """Pretend this process may use `cpus` CPUs, and record the arguments
    and the process of every worker the survey launches."""
    launched = []
    popen = subprocess.Popen

    def record(args, **kwargs):
        proc = popen(args, **kwargs)
        launched.append((args, kwargs, proc))
        return proc

    monkeypatch.setattr(survey, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(survey.subprocess, "Popen", record)
    return launched


def _all_reaped(launched) -> bool:
    return all(proc.returncode is not None and proc.stdin.closed and proc.stdout.closed
               for _args, _kwargs, proc in launched)


def test_survey_function_small(monkeypatch, small_survey):
    summary = small_survey
    assert summary["succeeded"] == 2
    assert summary["unbalanced"] == 2
    assert summary["matchesGenericTable"] == 2
    assert summary["ok"]
    with pytest.raises(ValueError, match="workers must be at least 1"):
        sample_survey(10007, count=2, base_seed=5, workers=0)
    # two worker processes, each with one BLAS thread and this checkout's
    # sources first on its path, give the serial results in seed order
    environ = dict(os.environ)
    launched = _record_launches(monkeypatch)
    assert sample_survey(10007, count=2, base_seed=5, workers=2) == summary
    assert len(launched) == 2 and _all_reaped(launched)
    src = str(Path(survey.__file__).resolve().parents[1])
    for args, kwargs, _proc in launched:
        assert args == [sys.executable, "-m", "scrollres.survey_worker", "10007"]
        env = kwargs["env"]
        assert env["PYTHONPATH"].split(os.pathsep)[0] == src
        assert all(env[name] == "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    assert dict(os.environ) == environ


def test_survey_launches_at_most_count_workers(monkeypatch, small_survey):
    launched = _record_launches(monkeypatch)
    assert sample_survey(10007, count=2, base_seed=5, workers=8) == small_survey
    assert len(launched) == 2 and _all_reaped(launched)


def test_survey_runs_in_order_with_one_usable_cpu(monkeypatch):
    launched = _record_launches(monkeypatch, cpus=1)
    seeds = []
    monkeypatch.setattr(survey, "survey_seed",
                        lambda prime, seed: seeds.append(seed) or {"seed": seed, "ok": False})
    assert sample_survey(10007, count=3, base_seed=5, workers=8)["results"] == [
        {"seed": s, "ok": False} for s in (5, 6, 7)]
    assert seeds == [5, 6, 7] and launched == []


def test_survey_worker_that_fails_is_an_error(monkeypatch):
    # a worker exiting non-zero is a bug, not a failed seed: the survey
    # raises, and no worker is left running
    launched = _record_launches(monkeypatch)
    monkeypatch.setattr(sys, "executable", "/bin/false")
    with pytest.raises(survey.SurveyWorkerError, match="exited with status 1"):
        sample_survey(10007, count=4, base_seed=1, workers=2)
    assert len(launched) == 2 and _all_reaped(launched)


def test_survey_worker_malformed_line_is_an_error(monkeypatch):
    # /bin/echo answers with its arguments, not a result for the seed
    launched = _record_launches(monkeypatch)
    monkeypatch.setattr(sys, "executable", "/bin/echo")
    with pytest.raises(survey.SurveyWorkerError, match="malformed line for seed"):
        sample_survey(10007, count=4, base_seed=1, workers=2)
    assert len(launched) == 2 and _all_reaped(launched)


def test_survey_worker_failing_after_its_answers_is_an_error(monkeypatch, tmp_path):
    # every seed answered, then a non-zero exit: still a failed survey
    worker = tmp_path / "worker.sh"
    worker.write_text('#!/bin/sh\nwhile read s; do echo "{\\"seed\\": $s, \\"ok\\": false}"; done\nexit 3\n')
    worker.chmod(0o755)
    launched = _record_launches(monkeypatch)
    monkeypatch.setattr(sys, "executable", str(worker))
    with pytest.raises(survey.SurveyWorkerError, match="exited with status 3"):
        sample_survey(10007, count=4, base_seed=1, workers=2)
    assert len(launched) == 2 and _all_reaped(launched)


def test_survey_checks_come_before_any_worker(monkeypatch):
    launched = _record_launches(monkeypatch)
    with pytest.raises(PipelineError, match="prime 601"):
        sample_survey(601, count=4, workers=2)
    with pytest.raises(ValueError, match="count must be at least 1"):
        sample_survey(10007, count=0, workers=2)
    assert launched == []


def test_survey_command_uses_every_usable_cpu(monkeypatch, capsys):
    calls = []

    def fake(prime, count, base_seed, workers):
        calls.append((prime, count, base_seed, workers))
        return {"fractionUnbalanced": "2/2", "matchesGenericTable": 2, "succeeded": 2,
                "ok": True}

    monkeypatch.setattr(cli, "sample_survey", fake)
    assert main(["--seed", "5", "survey", "--count", "2"]) == 0
    assert calls == [(10007, 2, 5, survey.usable_cpus())]


def test_programming_errors_are_not_retried(monkeypatch):
    # a bug must crash the run, not be re-seeded away as a bad curve
    def broken(prime, seed):
        raise TypeError("unsupported operand")

    for module in (pipeline, chain):
        monkeypatch.setattr(module, "build_chain", broken)
    with pytest.raises(TypeError):
        run_pipeline(10007, 1)
    with pytest.raises(TypeError):
        survey_seed(10007, 1)


def test_chain_errors_are_reported_once_not_retried(monkeypatch):
    # a mathematical failure is reported with its stage and exception type,
    # and no other chain is built
    seeds = []

    def too_few_points(prime, seed):
        seeds.append(seed)
        raise InsufficientRationalPointsError("found 3 of 50")

    for module in (pipeline, chain):
        monkeypatch.setattr(module, "build_chain", too_few_points)
    report = run_pipeline(10007, 1, max_curve_attempts=3)
    assert not report["ok"] and seeds == [1]
    assert report["error"] == {"stage": "curve_and_betti",
                               "type": "InsufficientRationalPointsError",
                               "message": "found 3 of 50"}
    assert "curveAttempts" not in report and "k3" not in report
    assert list(report["timings"]) == []
    tally = survey_seed(10007, 4)
    assert not tally["ok"] and tally["error"].startswith("InsufficientRationalPointsError")
    with pytest.raises(ValueError, match="at least 1"):
        run_pipeline(10007, 1, max_curve_attempts=0)


def test_a_later_stage_error_names_its_stage(monkeypatch):
    built = _count_chains(monkeypatch)

    def no_pair(gmap, point, p):
        raise GammaError("preimage count != 2: the cross forms share the form [1]")

    monkeypatch.setattr(pipeline, "singular_fiber_parameters", no_pair)
    report = run_pipeline(10007, 1)
    assert built == [(10007, 1)] and not report["ok"]
    assert report["error"] == {"stage": "net_and_gamma", "type": "GammaError",
                               "message": "preimage count != 2: the cross forms share the form [1]"}
    # the stages before it ran and kept their checks; the lattice stage did not run
    assert list(report["timings"]) == ["curve_and_betti", "k3"]
    assert report["checks"]["k3_shape_matches"] and "latticeCertificates" not in report


def test_net_dimension_is_computed_not_assumed(nonic_chain, monkeypatch):
    quartic_net = pipeline.quartic_net

    def with_extra_row(image_points, p):
        net = quartic_net(image_points, p)
        return dataclasses.replace(net, basis=np.vstack([net.basis, net.basis[:1]]))

    monkeypatch.setattr(pipeline, "quartic_net", with_extra_row)
    checks: dict = {}
    section, _net = pipeline.net_section(nonic_chain, checks)
    assert section["netDim"] == 4
    assert checks["net_dimension_3"] is False


def test_syzygy_space_dimension_is_computed_not_assumed(monkeypatch):
    space, member = pipeline.linear_syzygy_space, pipeline.pencil_member

    def with_extra_vector(steps, p):
        basis = space(steps, p)
        return basis + basis[:1]

    monkeypatch.setattr(pipeline, "linear_syzygy_space", with_extra_vector)
    monkeypatch.setattr(pipeline, "pencil_member",
                        lambda basis, lam, mu: member(basis[:2], lam, mu))
    report = run_pipeline(10007, 1)
    assert report["syzygySpaceDim"] == 3
    assert report["checks"]["linear_syzygy_space_dim_2"] is False
    assert not report["ok"]
