"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact: every assertion is an integer identity.
"""

import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from scrollres import DEFAULT_PRIME
from scrollres.lattice import (
    det_cofactor,
    lattice_h,
    lattice_h_prime,
)
from scrollres import pipeline, quartic_net
from scrollres.pipeline import canonical_json, run_pipeline
from scrollres.survey import sample_survey, usable_cpus
from scrollres.resolution import BigradedBettiTable, schreyer_rank, syzygy_slope

#: the expected resolution: generators (2H-R)^6 + (2H)^3, first syzygies
#: (3H-2R)^2 + (3H-R)^12 + (3H)^2, second (4H-2R)^3 + (4H-R)^6, last (6H-2R)
EXPECTED_TABLE = {
    (1, 2, 1): 6,
    (1, 2, 0): 3,
    (2, 3, 2): 2,
    (2, 3, 1): 12,
    (2, 3, 0): 2,
    (3, 4, 2): 3,
    (3, 4, 1): 6,
    (4, 6, 2): 1,
}

EXPECTED_K3_SHAPE = {
    (1, 2, 1): 4,
    (1, 2, 0): 1,
    (2, 3, 2): 1,
    (2, 3, 1): 4,
    (3, 5, 2): 1,
}

SURVEY_COUNT = 20


@pytest.fixture(scope="module")
def survey():
    # as `scrollres survey` runs it: one worker process per usable CPU
    return sample_survey(DEFAULT_PRIME, count=SURVEY_COUNT, base_seed=1,
                         workers=usable_cpus())


@functools.cache
def _counted_run(prime: int, seed: int) -> tuple:
    """run_pipeline(prime, seed), the seeds of the chains it built and the
    number of image_quartic calls it made; each (prime, seed) runs once
    per session."""
    built, members = [], []
    build, image = pipeline.build_chain, quartic_net.image_quartic

    def counted_build(p, s):
        built.append(s)
        return build(p, s)

    def counted_image(surface, net):
        members.append(surface)
        return image(surface, net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_chain", counted_build)
        # certify_fiber calls image_quartic from quartic_net
        for module in (pipeline, quartic_net):
            mp.setattr(module, "image_quartic", counted_image)
        run = run_pipeline(prime, seed)
    return run, built, len(members)


@pytest.fixture(scope="module")
def report():
    return _counted_run(DEFAULT_PRIME, 1)[0]


def _verdict(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _entries_dict(entry_list):
    return {(e["i"], e["a"], e["b"]): e["multiplicity"] for e in entry_list}


def test_criterion_1_betti_table(survey):
    head = survey["results"][:5]
    ok = len(head) == 5 and all(
        r["ok"] and _entries_dict(r["tableEntries"]) == EXPECTED_TABLE for r in head
    )
    _verdict(1, ok, "relative canonical resolution equals the expected table "
                    f"exactly for seeds {[r['seed'] for r in head]}")


def test_criterion_2_structural_formulas(report):
    table = BigradedBettiTable(
        9, 6, _entries_dict(report["bettiTable"]["entries"])
    )
    rank_ok = all(table.rank(i) == schreyer_rank(6, i) for i in (1, 2, 3))
    rank_ok &= (table.rank(1), table.rank(2), table.rank(3)) == (9, 16, 9)
    degree_ok = all(
        Fraction(table.degree(i)) == syzygy_slope(9, 6, i) * table.rank(i)
        for i in (1, 2, 3)
    )
    degree_ok &= (table.degree(1), table.degree(2), table.degree(3)) == (6, 16, 12)
    dual_ok = table.is_self_dual()
    _verdict(2, rank_ok and degree_ok and dual_ok,
             "rank sums 9/16/9, twist-degree sums 6/16/12, self-dual table")


def test_criterion_3_unbalancedness(survey):
    ok = (
        survey["succeeded"] == SURVEY_COUNT
        and survey["unbalanced"] == SURVEY_COUNT
        and survey["matchesGenericTable"] == SURVEY_COUNT
    )
    _verdict(3, ok, f"{survey['unbalanced']}/{survey['succeeded']} seeds have an "
                    "unbalanced second syzygy bundle (all match the generic splitting)")


def test_criterion_4_k3_syzygy_scheme(report):
    checks = report["checks"]
    shape_ok = _entries_dict(report["k3"]["shape"]) == EXPECTED_K3_SHAPE
    numbers = report["k3"]["intersectionNumbers"]
    numbers_ok = (
        numbers["H2"], numbers["HN"], numbers["N2"], numbers["chi"],
        numbers["C_H"], numbers["C_N"],
    ) == (14, 5, 0, 2, 16, 6)
    # the syzygy space, the member's rank, containment, the shape and the
    # numbers raise K3Error or PipelineError when they fail (no check key)
    stage_ok = checks["q5_in_curve_ideal"] and "error" not in report
    # chern balance of the 5x5 shape: 2*1 + 4 - 4 = 2
    chern_ok = 2 * 1 + 4 - 4 == 2
    _verdict(4, shape_ok and numbers_ok and stage_ok and chern_ok,
             "rank-4 syzygy, exact surface resolution shape, Pfaffian identity, "
             "intersection numbers (14, 5, 0) with chi = 2 and C.H = 16, C.N = 6")


def test_criterion_5_quartic_net(report):
    checks = report["checks"]
    gamma = report["gamma"]
    ok = (
        report["net"]["netDim"] == 3
        and report["net"]["residualModelDegree"] == 10
        and gamma["gammaDegree"] == 3
        and checks["gamma_is_cubic_not_conic"]
        and checks["unique_singular_point"]
        and checks["singular_point_is_node"]
        and len(gamma["fiberParameters"]) == 2
        and checks["third_parameter_maps_elsewhere"]
        and gamma["smoothnessVerdict"] is True
    )
    _verdict(5, ok, "net of quartics is 3-dimensional, the surface cubic has one "
                    "rational node with two pencil preimages, and the Macaulay "
                    "resultant certifies the singular-fiber quartic smooth")


def test_criterion_6_lattice_suite(report):
    lat = report["latticeCertificates"]
    checks = report["checks"]
    h_lat, hp_lat = lattice_h(), lattice_h_prime()
    sig_ok = (
        tuple(lat["h"]["signature"][:2]) == (1, 2)
        and tuple(lat["hPrime"]["signature"][:2]) == (1, 3)
    )
    disc_ok = (
        lat["h"]["discriminant"] == 56 == det_cofactor(h_lat.gram)
        and lat["hPrime"]["discriminant"] == -80 == det_cofactor(hp_lat.gram)
    )
    ample_ok = (
        lat["h"]["ampleCertificate"]["orthogonal_roots"] == []
        and lat["hPrime"]["ampleCertificate"]["orthogonal_roots"] == []
    )
    positivity_ok = checks["positivity_table"]
    derive_ok = tuple(lat["rank4Entries"]["literal_inequalities"]) == (16, 6)
    basis_ok = checks["basis_change_reproduces_hprime"]
    embed_ok = checks["h_embeds_primitively"]
    unique_ok = checks["h_determines_c_and_n"]
    _verdict(6, sig_ok and disc_ok and ample_ok and positivity_ok and derive_ok
             and basis_ok and embed_ok and unique_ok,
             "signatures (1,2)/(1,3), discriminants 56/-80 (cofactor-confirmed), "
             "ample certificates empty, positivity table matches, entries (16, 6) "
             "pinned exactly, basis change reproduces the rank-4 matrix, "
             "primitive embedding verified")


def test_criterion_7_dimension_audit(report):
    audit = report["dimensionAudit"]
    explicit = (
        17 == 19 - 2
        and 26 == 17 + 9 == 25 + 1
        and audit["rho_9_1_6"] == 1
        and 25 == 3 * 9 - 3 + 1
        and 27 == (20 - 2) + 9 == 25 + 2
        and audit["rank_of_quartic_lattice"] == 2
        and 25 == 16 + 9
    )
    _verdict(7, audit["ok"] and explicit,
             "17 = 19-2; 26 = 17+9 = 25+1; rho(9,1,6) = 1; 25 = 3g-3+1; "
             "27 = 18+9 forces rank 2; 25 = 16+9")


def test_overall_pipeline_verdict(report):
    failed = [k for k, v in report["checks"].items() if not v]
    _verdict(0, report["ok"] and not failed,
             "full pipeline report is green (exit status would be 0)")


def test_canonical_report_is_the_recorded_one(report, known_canonical_sha256):
    # the behaviour contract: canonical_json(run_pipeline(p, 1)) byte for byte
    known_canonical_sha256(report, DEFAULT_PRIME, 1)


#: what schema 2 added to a report: keys of the gamma section (no check names)
SCHEMA_2_GAMMA_KEYS = ("fiberModulus",)

#: the check keys schema 4 dropped: each could only read true, because the
#: certificate behind it raises a chain error before the key is written
SCHEMA_4_DROPPED_CHECKS = (
    "betti_self_dual", "rank_sums", "degree_sums", "linear_syzygy_space_dim_2",
    "generic_syzygy_rank_4", "surface_contains_curve", "k3_shape_matches",
    "intersection_numbers", "net_dimension_3", "two_singular_fiber_parameters",
)

#: the recorded digests: schema 4 under canonicalSha256, schemas 3 and 2 below
KNOWN = json.loads((Path(__file__).with_name("known_sha256.json")).read_text())


def _dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _as_schema_3(report: dict) -> str:
    """The canonical JSON a schema-3 run of the same (prime, seed) wrote:
    schemaVersion 3, and the ten check keys schema 4 dropped, each true.  A
    schema-3 run that wrote them wrote them true, and no other key changed."""
    data = json.loads(canonical_json(report))
    data["schemaVersion"] = 3
    data["checks"].update(dict.fromkeys(SCHEMA_4_DROPPED_CHECKS, True))
    return _dumps(data)


def _as_schema_2(report: dict) -> str:
    """The canonical JSON a schema-2 run of the same (prime, seed) wrote:
    the schema-3 report with schemaVersion 2, and the gamma loop's 17
    members with none skipped.  Schema 3 stops at the 9th rank-4 member;
    every recorded seed had 17 rank-4 members under schema 2, and no other
    key changed."""
    data = json.loads(_as_schema_3(report))
    data["schemaVersion"] = 2
    data["gamma"]["sampleCount"] = 17
    data["gamma"]["skippedParameters"] = []
    return _dumps(data)


def _as_schema_1(report: dict) -> str:
    """The canonical JSON a schema-1 run of the same seed wrote, when its
    first chain certified: the schema-2 report with schema 2's added keys
    dropped, schemaVersion 1, and the one-entry attempt list schema 1 kept."""
    data = json.loads(_as_schema_2(report))
    for key in SCHEMA_2_GAMMA_KEYS:
        del data["gamma"][key]
    data["schemaVersion"] = 1
    data["curveAttempts"] = [{"seed": report["seed"], "outcome": "ok"}]
    return _dumps(data)


@pytest.mark.parametrize("key", list(KNOWN["schema3Sha256"]))
def test_schema_4_reports_bridge_to_the_schema_3_digests(key, known_canonical_sha256):
    # every recorded schema-3 digest is reproduced byte for byte from the
    # schema-4 report with the dropped keys put back, none of which it has
    prime, seed = map(int, key.split("/"))
    run = _counted_run(prime, seed)[0]
    assert run["ok"], run.get("error")
    assert not set(SCHEMA_4_DROPPED_CHECKS) & set(run["checks"])
    digest = hashlib.sha256(_as_schema_3(run).encode()).hexdigest()
    assert digest == KNOWN["schema3Sha256"][key]
    known_canonical_sha256(run, prime, seed)


def test_every_recorded_case_has_a_digest_in_each_schema_since_3():
    assert list(KNOWN["canonicalSha256"]) == list(KNOWN["schema3Sha256"])
    assert len(KNOWN["canonicalSha256"]) == 18
    assert set(KNOWN["schema2Sha256"]) <= set(KNOWN["schema3Sha256"])


@pytest.mark.parametrize("key", sorted(KNOWN["schema2Sha256"]))
def test_schema_3_reports_bridge_to_the_schema_2_digests(key, known_canonical_sha256):
    # every schema-2 digest is reproduced byte for byte from the schema-4
    # report through schema 3, with one chain, 9 gamma members and one
    # image_quartic call per certified fiber (two rational ones, or a
    # conjugate pair at once)
    prime, seed = map(int, key.split("/"))
    run, built, members = _counted_run(prime, seed)
    assert run["ok"] and built == [seed]
    assert run["gamma"]["sampleCount"] == 9 and run["gamma"]["skippedParameters"] == []
    fibers = 1 if run["gamma"]["fiberModulus"] else 2
    assert members == 9 + fibers <= 11
    digest = hashlib.sha256(_as_schema_2(run).encode()).hexdigest()
    assert digest == KNOWN["schema2Sha256"][key]
    known_canonical_sha256(run, prime, seed)


@pytest.mark.parametrize("seed", [1, 3, 9])
def test_schema_2_reports_bridge_to_the_schema_1_digests(seed, known_canonical_sha256):
    # seeds whose first chain certified under schema 1 give the same
    # schema-2 report, byte for byte, apart from the schema, curveAttempts
    # and the new keys
    known = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "known_answers.json").read_text())
    assert known["schemaVersion"] == 1
    run = _counted_run(DEFAULT_PRIME, seed)[0]
    assert run["ok"] and run["gamma"]["fiberModulus"] is None
    digest = hashlib.sha256(_as_schema_1(run).encode()).hexdigest()
    assert digest == known["canonicalSha256"][f"{DEFAULT_PRIME}/{seed}"]
    known_canonical_sha256(run, DEFAULT_PRIME, seed)


@pytest.mark.parametrize("seed", [5, 6, 10])
def test_held_out_conjugate_seeds_certify_with_one_chain(seed, known_canonical_sha256):
    # under schema 1 these seeds were retried; now their one chain certifies
    run, built, _members = _counted_run(DEFAULT_PRIME, seed)
    assert run["ok"] and built == [seed]
    assert len(run["gamma"]["fiberParameters"]) == 2 and len(run["gamma"]["fiberModulus"]) == 3
    known_canonical_sha256(run, DEFAULT_PRIME, seed)


#: the digest atlas: every recorded key with no schema-2 digest to bridge to
#: (593, the smallest accepted prime, and 673, the smallest before the gate
#: fell to the points drawn; both sides of the limb split, 2^24 - 3 and both
#: sides of sqrt(2^53)), but 2147483647/1, which test_cli's largest-prime
#: test checks
ATLAS = sorted((key for key in KNOWN["canonicalSha256"]
                if key not in KNOWN["schema2Sha256"] and key != "2147483647/1"),
               key=lambda key: tuple(map(int, key.split("/"))))


@pytest.mark.parametrize("key", ATLAS)
def test_digest_atlas(key, known_canonical_sha256):
    # a guard for the arithmetic at primes far from 10007: each report is
    # the recorded one, byte for byte
    prime, seed = map(int, key.split("/"))
    run = _counted_run(prime, seed)[0]
    assert run["ok"], run.get("error")
    known_canonical_sha256(run, prime, seed)
