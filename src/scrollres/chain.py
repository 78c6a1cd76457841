"""One curve chain: plane model to canonical coordinates to Betti table.

build_chain carries one (prime, seed) from the nodal nonic through the
scroll to the relative canonical resolution; survey_seed reads the
splitting type of the second syzygy bundle off that table.  Every chain
draws the same stream of resolution.point_demand() points, so
require_sampling_prime with that demand is the one gate of every chain.
This module imports only ffield, plane_curve, scroll and resolution, so a
survey worker (scrollres.survey_worker) loads nothing a Betti-only chain
never runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ffield import check_prime
from .plane_curve import (
    GENUS,
    DegenerateConfigurationError,
    InsufficientRationalPointsError,
    construct_nodal_nonic,
)
from .resolution import (
    GENERIC_BETTI_TABLE,
    ResolutionError,
    SliceContext,
    betti_table,
    is_balanced,
    splitting_type,
)
from .scroll import GENERIC_E, ScrollError, canonical_coordinates, pencil_from_node

#: F_p-rational branches the nonic can have over its singular points: three
#: over the triple point and two over each of the 16 nodes
SINGULAR_BRANCHES = 3 + 2 * 16
#: the nonic meets the line at infinity in at most nine points
POINTS_AT_INFINITY = 9


class PipelineError(RuntimeError):
    pass


# Mathematical outcomes of build_chain: survey_seed tallies them.  Anything
# else is a bug and propagates.
BUILD_ERRORS = (
    ResolutionError,
    ScrollError,
    DegenerateConfigurationError,
    InsufficientRationalPointsError,
    PipelineError,
)


@dataclass
class CurveChain:
    """Everything derived from one curve model, shared across stages."""

    model: object
    coords: object
    ctx: SliceContext
    table: object
    steps: list


def guaranteed_points(prime: int) -> int:
    """Hasse-Weil lower bound on the number of smooth affine F_p-points of a
    nonic model (0 when the bound is negative).

    Its genus-9 normalisation has at least p + 1 - 2g*sqrt(p) rational
    points; the branches over the singular points and the points at
    infinity, which the sampler never returns, are subtracted.
    ceil(2g*sqrt(p)) = ceil(sqrt(4g^2 p)) is computed exactly.
    """
    hasse_weil = math.isqrt(4 * GENUS * GENUS * prime - 1) + 1
    return max(0, prime + 1 - hasse_weil - SINGULAR_BRANCHES - POINTS_AT_INFINITY)


def require_sampling_prime(prime: int, demand: int) -> None:
    """Reject, before any chain is built, a prime at which the Hasse-Weil
    bound cannot guarantee the demand points a chain draws for its stream."""
    check_prime(prime)
    have = guaranteed_points(prime)
    if have < demand:
        raise PipelineError(
            f"prime {prime} is too small for point sampling: the Hasse-Weil bound "
            f"guarantees {have} smooth affine points, the stages request {demand}"
        )


def build_chain(prime: int, seed: int) -> CurveChain:
    model = construct_nodal_nonic(prime, seed)
    coords = canonical_coordinates(model, pencil_from_node(model))
    ctx = SliceContext(model, coords)
    if ctx.e != GENERIC_E:
        raise PipelineError(f"unexpected scroll type {ctx.e}")
    table, steps = betti_table(ctx)
    return CurveChain(model, coords, ctx, table, steps)


def survey_seed(prime: int, seed: int) -> dict:
    """Betti-only run for one seed: splitting type of the second syzygy bundle."""
    try:
        chain = build_chain(prime, seed)
    except BUILD_ERRORS as exc:
        return {"seed": seed, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    n2 = splitting_type(chain.table, 2)
    return {
        "seed": seed,
        "ok": True,
        "splitting": {str(k): v for k, v in sorted(n2.items())},
        "unbalanced": not is_balanced(n2),
        "matches_generic_table": chain.table.entries == GENERIC_BETTI_TABLE,
        "tableEntries": chain.table.to_json_entries(),
    }
