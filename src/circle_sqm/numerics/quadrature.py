"""Composite Gauss-Legendre quadrature with geometric endpoint refinement.

The refined rule exists for integrands with algebraic endpoint behavior like
(sin phi)^(2 nu), nu = 1/4: panels shrink geometrically toward each endpoint
so the non-smooth region is confined to panels of negligible width.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DomainError
from ..systems import interval, level_index


def gauss_legendre_rule(panel_count: int, order: int, a: float, b: float,
                        endpoint_refinement: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on the ``systems.interval`` (a, b).

    ``panel_count`` >= 1 uniform panels of ``order`` >= 2; with ``endpoint_refinement = L
    > 0`` the first and last panel are each split into L extra panels whose widths halve
    toward the endpoint (all three are ``systems.level_index`` counts).  Weights sum to
    b - a exactly up to roundoff.  Refinement so deep that panels or nodes collapse in
    floating point (break points not strictly increasing, or a node not strictly inside
    (a, b)) is refused with ``DomainError``.  The eight latest rules are cached, read-only
    since callers share them, so each :func:`norm_rule` is built once per process.
    """
    a, b = interval(a, b, "interval")
    order = level_index(order, 2, "order")
    panel_count = level_index(panel_count, 1, "panel_count")
    endpoint_refinement = level_index(endpoint_refinement, 0, "endpoint_refinement")
    return _rule(panel_count, order, a, b, endpoint_refinement)


@lru_cache(maxsize=8)
def _rule(panel_count: int, order: int, a: float, b: float, endpoint_refinement: int):
    width = (b - a) / panel_count
    breaks = a + np.arange(panel_count + 1) * width
    if endpoint_refinement > 0:
        halved = np.ldexp(width, -np.arange(1, endpoint_refinement + 1))  # width / 2^j, exact
        breaks = np.concatenate(([a], a + halved[::-1], breaks[1:-1], b - halved, [b]))
    if not np.all(breaks[:-1] < breaks[1:]):
        raise DomainError(f"rule ({panel_count}, {order}, {endpoint_refinement}) collapses "
                          f"panels on ({a!r}, {b!r})")

    xs, ws = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (breaks[:-1, None] + half[:, None] * (xs + 1.0)).ravel()
    if not np.all((nodes > a) & (nodes < b)):
        raise DomainError(f"rule ({panel_count}, {order}, {endpoint_refinement}) puts a node "
                          f"outside the open interval ({a!r}, {b!r})")
    weights = (half[:, None] * ws).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def norm_rule(hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The rule of every norm check on (0, hi): 48 panels of order 12, 40 refinement levels."""
    return gauss_legendre_rule(48, 12, 0.0, hi, endpoint_refinement=40)
