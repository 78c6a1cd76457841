import hashlib
import json
from pathlib import Path

import pytest

from scrollres import DEFAULT_PRIME
from scrollres.plane_curve import construct_nodal_octic, sample_smooth_points
from scrollres.resolution import SliceContext, betti_table
from scrollres.scroll import canonical_coordinates, pencil_from_node


@pytest.fixture(scope="session")
def model():
    return construct_nodal_octic(DEFAULT_PRIME, seed=1)


@pytest.fixture(scope="session")
def sample_pool(model):
    return sample_smooth_points(model, 200, seed=11)


@pytest.fixture(scope="session")
def coords(model):
    return canonical_coordinates(model, pencil_from_node(model))


@pytest.fixture(scope="session")
def slice_ctx(model, coords):
    return SliceContext(model, coords)


@pytest.fixture(scope="session")
def betti_data(slice_ctx):
    return betti_table(slice_ctx)


@pytest.fixture(scope="session")
def generator_polys(betti_data):
    _, steps = betti_data
    return steps[0].gens


@pytest.fixture(scope="session")
def nonic_chain():
    from scrollres.chain import build_chain

    return build_chain(DEFAULT_PRIME, 1)


@pytest.fixture(scope="session")
def nonic_k3(nonic_chain):
    from scrollres.k3_syzygy import linear_syzygy_space, pencil_member, surface_pencil

    basis = linear_syzygy_space(nonic_chain.steps, DEFAULT_PRIME)
    gens = nonic_chain.steps[0].gens[:6]
    pencil = surface_pencil(pencil_member(basis, 1, 0), pencil_member(basis, 0, 1), gens)
    return {"basis": basis, "gens": gens, "pencil": pencil}


@pytest.fixture(scope="session")
def nonic_net(nonic_chain):
    from scrollres.quartic_net import quartic_net, residual_image

    img = residual_image(
        nonic_chain.model, nonic_chain.coords, nonic_chain.ctx.points(0, 60)
    )
    return quartic_net(img, DEFAULT_PRIME)


@pytest.fixture(scope="session")
def gamma_samples(nonic_k3, nonic_net):
    from scrollres.k3_syzygy import pencil_member, syzygy_rank
    from scrollres.quartic_net import image_quartic

    samples = []
    for lam, mu in [(1, m) for m in range(16)] + [(0, 1)]:
        member = pencil_member(nonic_k3["basis"], lam, mu)
        if syzygy_rank(member) != 4:
            continue
        _fvec, coords3 = image_quartic(nonic_k3["pencil"].member(lam, mu), nonic_net)
        samples.append(((lam, mu), tuple(int(v) for v in coords3)))
    return samples


@pytest.fixture(scope="session")
def known_canonical_sha256():
    """sha256 of canonical_json(report), checked against the answer recorded
    for (prime, seed) in known_sha256.json; the recorded schema must be the
    report's."""
    from scrollres.pipeline import canonical_json

    known = json.loads(Path(__file__).with_name("known_sha256.json").read_text())

    def check(report, prime, seed):
        assert report["schemaVersion"] == known["schemaVersion"]
        digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
        assert digest == known["canonicalSha256"][f"{prime}/{seed}"]

    return check
