"""Every key of a report's checks can read false, and every certificate
that writes no key raises.

Each case of CAN_FAIL feeds the computation behind one check key a value
that the real callee can return without raising (another Betti table, a
solve result, other points, another lattice or class), and the key must
then read False.  Each case of RAISES breaks one certificate that schema 4
dropped from the checks (its key could only read true); the run must stop
with an error naming the stage and the exception type instead.  The chain
stages reuse one chain of (10007, 1); the lattice stage runs alone.
"""

import dataclasses

import numpy as np
import pytest

import scrollres.lattice as lattice
import scrollres.pipeline as pipeline
import scrollres.quartic_net as quartic_net
from scrollres.k3_syzygy import K3_GENUS, K3_SHAPE_TABLE, SurfacePencil
from scrollres.lattice import GramLattice
from scrollres.pipeline import STAGES, run_pipeline, run_stages
from scrollres.resolution import BigradedBettiTable, betti_table

from test_acceptance import SCHEMA_4_DROPPED_CHECKS

P = 10007


def _negated(gram) -> tuple:
    return tuple(tuple(-v for v in row) for row in gram)


def _tallied_as(entries: dict):
    """A case whose chain carries the Betti table that the real betti_table
    returns when its tally of the chain's steps is entries: every
    certificate of betti_table runs on that table."""
    def case(chain, mp):
        mp.setattr(BigradedBettiTable, "from_steps",
                   classmethod(lambda cls, g, k, steps: cls(g, k, dict(entries))))
        mp.setattr(pipeline, "build_chain", lambda prime, seed: dataclasses.replace(
            chain, table=betti_table(chain.ctx)[0]))
    return case


def _generic_but(*changes) -> dict:
    """GENERIC_BETTI_TABLE with multiplicity m added at each (key, m)."""
    entries = dict(pipeline.GENERIC_BETTI_TABLE)
    for key, m in changes:
        entries[key] = entries.get(key, 0) + m
    return entries


#: a balanced second syzygy bundle O(-3H+R)^16: the generic ranks, degree
#: sums, duality and Hilbert function, so betti_table returns it
BALANCED = _generic_but(((2, 3, 2), -2), ((2, 3, 1), 4), ((2, 3, 0), -2))


def _patch(name: str, make, module=pipeline):
    """A case that rebinds module.name to make(real), real the function
    it replaces."""
    def case(_chain, mp):
        mp.setattr(module, name, make(getattr(module, name)))
    return case


def _off_the_net(real):
    # the fit points stay, the check points move off the curve's image
    def image(values):
        img = real(values).copy()
        img[:, pipeline.NET_FIT_POINTS:] = (img[:, pipeline.NET_FIT_POINTS:] + 1) % P
        return img
    return image


def _other_cubic(real):
    def fit(samples, p):
        gamma = real(samples, p)
        return dataclasses.replace(gamma, cubic=np.eye(len(gamma.cubic), dtype=np.int64)[0])
    return fit


def _spare_at_the_node(real):
    # normalize_point is asked for the node, then for the spare sample's
    # image; both answers are the node
    seen = []

    def normalize(point, p):
        out = real(point, p)
        if len(point) != 3:
            return out
        seen.append(out)
        return seen[0]
    return normalize


def _singular_quartic(real):
    # x1^4 is singular along x1 = 0
    return lambda quartic, p: real(np.eye(len(quartic), dtype=np.int64)[0], p)


def _sig(real):
    return lambda lat: real(GramLattice(_negated(lat.gram), lat.labels))


#: check key -> (stage, case); case(chain, mp) rebinds one callee
CAN_FAIL = {
    "betti_table_matches_generic": ("curve_and_betti", _tallied_as(BALANCED)),
    "second_syzygy_unbalanced": ("curve_and_betti", _tallied_as(BALANCED)),
    "q5_in_curve_ideal": ("k3", _patch("solve_mod", lambda real: lambda a, b, p: None)),
    "net_verified_on_fresh_sample": ("net_and_gamma", _patch("residual_image", _off_the_net)),
    "residual_degree_10": ("net_and_gamma", _patch("residual_degree",
                                                   lambda real: lambda model, coords: 9)),
    "gamma_is_cubic_not_conic": ("net_and_gamma", _patch("fit_gamma", _other_cubic)),
    "unique_singular_point": ("net_and_gamma", _patch(
        "gamma_singular_point",
        lambda real: lambda gamma: dict(real(gamma), singular_count=0, is_node=False))),
    "singular_point_is_node": ("net_and_gamma", _patch(
        "gamma_singular_point",
        lambda real: lambda gamma: dict(real(gamma), quadratic_rank=1, is_node=False))),
    "third_parameter_maps_elsewhere": ("net_and_gamma", _patch("normalize_point",
                                                               _spare_at_the_node)),
    "singular_fiber_quartic_smooth": ("net_and_gamma", _patch("macaulay_resultant_smooth",
                                                              _singular_quartic)),
    "signatures": ("lattice_and_audit", _patch("signature", _sig)),
    "discriminants": ("lattice_and_audit", _patch("discriminant", _sig)),
    "discriminant_cofactor_oracle": ("lattice_and_audit", _patch(
        "det_cofactor", lambda real: lambda gram: real(_negated(gram)))),
    "ample_h_and_hprime": ("lattice_and_audit", _patch(
        "is_ample", lambda real: lambda lat, cls: real(lat, (0,) * len(cls)))),
    "positivity_table": ("lattice_and_audit", _patch(
        "is_nef", lambda real: lambda lat, h, cls: real(lat, h, tuple(-v for v in cls)))),
    "h_determines_c_and_n": ("lattice_and_audit", _patch(
        "unique_polarization_classes",
        lambda real: lambda lat, h, norm, pairing: real(lat, h, norm, pairing + 1))),
    "hprime_determines_q1_q2": ("lattice_and_audit", _patch(
        "unique_polarization_classes",
        lambda real: lambda lat, h, norm, pairing: real(lat, h, norm, pairing + 1))),
    "derive_entries_literal": ("lattice_and_audit", _patch(
        "derive_hprime_entries", lambda real: lattice.second_polarization_entries, lattice)),
    "basis_change_reproduces_hprime": ("lattice_and_audit", _patch(
        "hprime_from_basis_change",
        lambda real: lambda entries: real(lattice.derive_hprime_entries()))),
    "h_embeds_primitively": ("lattice_and_audit", _patch(
        "stated_embedding_columns",
        lambda real: lambda: [tuple(2 * v for v in col) for col in real()])),
    "dimension_audit": ("lattice_and_audit", _patch(
        "brill_noether_rho", lambda real: lambda g, r, d: real(g, r, d) + 1, lattice)),
}


@pytest.fixture(scope="module")
def recorded_keys():
    return list(run_pipeline(P, 1)["checks"])


def test_every_check_key_has_a_case(recorded_keys):
    assert sorted(CAN_FAIL) == sorted(recorded_keys) and len(recorded_keys) == 21
    assert not set(SCHEMA_4_DROPPED_CHECKS) & set(recorded_keys)
    assert set(RAISES) == set(SCHEMA_4_DROPPED_CHECKS)


@pytest.mark.parametrize("key", sorted(CAN_FAIL))
def test_audit_check_can_read_false(key, nonic_chain, monkeypatch):
    stage, case = CAN_FAIL[key]
    monkeypatch.setattr(pipeline, "build_chain", lambda prime, seed: nonic_chain)
    case(nonic_chain, monkeypatch)
    checks: dict = {}
    if stage == "lattice_and_audit":
        dict(STAGES)[stage]({}, {}, checks)
    else:
        report = run_stages(P, 1, last=stage)
        assert "error" not in report, report["error"]
        checks = report["checks"]
    assert checks[key] is False
    assert not set(SCHEMA_4_DROPPED_CHECKS) & set(checks)


# --- the certificates that write no key ---------------------------------------


def _grown_block(real):
    # a third vector in the (3, -2) kernel block
    def space(steps, p):
        block = steps[1].kernels[(3, -2)]
        grown = dataclasses.replace(block, kernel=np.vstack([block.kernel, block.kernel[:1]]))
        kernels = dict(steps[1].kernels) | {(3, -2): grown}
        return real([steps[0], dataclasses.replace(steps[1], kernels=kernels)] + steps[2:], p)
    return space


def _no_rank_4(_chain, mp):
    mp.setattr(SurfacePencil, "syzygy_rank", lambda self, lam, mu, modulus=(0,): 3)


def _other_shape(_chain, mp):
    real = BigradedBettiTable.from_steps.__func__

    def tally(cls, g, k, steps):
        table = real(cls, g, k, steps)
        return cls(g, k, table.entries | {(1, 2, 0): 2}) if g == K3_GENUS else table
    mp.setattr(BigradedBettiTable, "from_steps", classmethod(tally))


def _net_of_four(real):
    # one more kernel row of the 35 quartic monomials
    def kernel(matrix, p):
        out = real(matrix, p)
        return np.vstack([out, out[:1]]) if matrix.shape[1] == 35 else out
    return kernel


#: dropped check key -> (stage, type, message start, case(chain, mp))
RAISES = {
    "betti_self_dual": ("curve_and_betti", "ResolutionError", "table is not self-dual",
                        _tallied_as(_generic_but(((1, 2, 1), -1), ((1, 3, 1), 1)))),
    "rank_sums": ("curve_and_betti", "ResolutionError", "rank sum at index 1: 10 != 9",
                  _tallied_as(_generic_but(((1, 2, 1), 1)))),
    "degree_sums": ("curve_and_betti", "ResolutionError", "degree sum at index 1",
                    _tallied_as(_generic_but(((1, 2, 1), -1), ((1, 2, 2), 1)))),
    "linear_syzygy_space_dim_2": ("k3", "K3Error", "wrong dimension: linear syzygy space "
                                  "is 3-dimensional", _patch("linear_syzygy_space", _grown_block)),
    "generic_syzygy_rank_4": ("k3", "PipelineError", "no rank-4 member found", _no_rank_4),
    "surface_contains_curve": ("k3", "K3Error", "surface generator does not vanish", _patch(
        "verify_containment",
        lambda real: lambda surface, values: real(surface, (values + 1) % P))),
    "k3_shape_matches": ("k3", "K3Error", "shape mismatch", _other_shape),
    "intersection_numbers": ("k3", "K3Error", "non-quadratic", _patch(
        "k3_betti_shape", lambda real: lambda ctx, surface: dataclasses.replace(
            real(ctx, surface), entries=K3_SHAPE_TABLE | {(1, 2, 0): 2}))),
    "net_dimension_3": ("net_and_gamma", "NetError", "unexpected net dimension 4",
                        _patch("kernel_mod", _net_of_four, quartic_net)),
    "two_singular_fiber_parameters": ("net_and_gamma", "GammaError", "preimage count != 2", _patch(
        "singular_fiber_parameters", lambda real: lambda gmap, point, p: real(gmap, (1, 0, 0), p))),
}


@pytest.mark.parametrize("key", sorted(RAISES))
def test_audit_dropped_certificate_raises(key, nonic_chain, monkeypatch):
    stage, kind, message, case = RAISES[key]
    monkeypatch.setattr(pipeline, "build_chain", lambda prime, seed: nonic_chain)
    case(nonic_chain, monkeypatch)
    report = run_stages(P, 1, last=stage)
    assert not report["ok"]
    error = report["error"]
    assert (error["stage"], error["type"]) == (stage, kind)
    assert error["message"].startswith(message), error["message"]
    assert key not in report["checks"]
