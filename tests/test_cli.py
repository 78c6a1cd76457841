import json

import pytest

import scrollres.pipeline as pipeline
from scrollres.cli import main
from scrollres.pipeline import canonical_json, run_pipeline, sample_survey, survey_seed
from scrollres.plane_curve import InsufficientRationalPointsError


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


def test_lattice_command_with_gram_file(tmp_path, capsys):
    gram = {"gram": [[14, 16, 5], [16, 16, 6], [5, 6, 0]], "labels": ["H", "C", "N"]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    assert main(["lattice", "--gram-file", str(path), "--ample-class", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "56" in out


def test_survey_rejects_zero_count(capsys):
    assert main(["survey", "--count", "0"]) == 2


def test_betti_command(tmp_path, capsys):
    path = tmp_path / "betti.json"
    assert main(["--seed", "1", "--json", str(path), "betti"]) == 0
    payload = json.loads(path.read_text())
    entries = {(e["i"], e["a"], e["b"]): e["multiplicity"] for e in payload["entries"]}
    assert entries[(4, 6, 2)] == 1


def test_pipeline_report_determinism_with_retry():
    # seed 2 has conjugate (non-rational) singular-fiber parameters, so the
    # pipeline must retry on the derived seed and still be deterministic
    a = run_pipeline(10007, 2)
    b = run_pipeline(10007, 2)
    assert a["ok"] and b["ok"]
    assert canonical_json(a) == canonical_json(b)
    assert len(a["curveAttempts"]) == 2
    assert "preimage count != 2" in a["curveAttempts"][0]["outcome"]
    assert a["curveAttempts"][1]["outcome"] == "ok"


def test_small_prime_failure_mode():
    # tiny primes cannot support the sampling; the failure is reported, not a crash
    report = run_pipeline(101, 1)
    assert not report["ok"]
    assert report["curveAttempts"]
    assert all(a["outcome"] != "ok" for a in report["curveAttempts"])


def test_survey_function_small():
    summary = sample_survey(10007, count=2, base_seed=5, workers=1)
    assert summary["succeeded"] == 2
    assert summary["unbalanced"] == 2
    assert summary["matchesGenericTable"] == 2
    assert summary["ok"]


def test_programming_errors_are_not_retried(monkeypatch):
    # a bug must crash the run, not be re-seeded away as a bad curve
    def broken(prime, seed):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(pipeline, "build_chain", broken)
    with pytest.raises(TypeError):
        run_pipeline(10007, 1)
    with pytest.raises(TypeError):
        survey_seed(10007, 1)


def test_mathematical_failures_are_still_retried(monkeypatch):
    seeds = []

    def too_few_points(prime, seed):
        seeds.append(seed)
        raise InsufficientRationalPointsError("found 3 of 50")

    monkeypatch.setattr(pipeline, "build_chain", too_few_points)
    report = run_pipeline(10007, 1, max_curve_attempts=3)
    assert not report["ok"] and seeds == [1, 7920, 15839]
    assert all(a["outcome"].startswith("InsufficientRationalPointsError") for a in report["curveAttempts"])
    tally = survey_seed(10007, 4)
    assert not tally["ok"] and tally["error"].startswith("InsufficientRationalPointsError")
