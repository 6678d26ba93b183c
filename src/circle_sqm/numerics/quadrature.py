"""Composite Gauss-Legendre quadrature with geometric endpoint refinement.

The refined rule exists for integrands with algebraic endpoint behavior like
(sin phi)^(2 nu), nu = 1/4: panels shrink geometrically toward each endpoint
so the non-smooth region is confined to panels of negligible width.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DomainError

@lru_cache(maxsize=32)
def _base_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=8, typed=True)
def gauss_legendre_rule(
    panel_count: int,
    order: int,
    a: float,
    b: float,
    endpoint_refinement: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on (a, b).

    ``panel_count`` uniform panels; with ``endpoint_refinement = L > 0`` the
    first and last panel are each split into L extra panels whose widths
    halve toward the endpoint.  Weights sum to b - a exactly up to roundoff.
    Refinement so deep that panels or nodes collapse in floating point (break
    points not strictly increasing, or a node not strictly inside (a, b)) is
    refused with ``DomainError``.  The eight latest rules are cached, read-only
    since callers share them, so each :func:`norm_rule` is built once per process.
    """
    if not b > a:
        raise DomainError(f"empty interval: a = {a!r}, b = {b!r}")
    if order < 2:
        raise DomainError(f"order must be >= 2, got {order}")
    if panel_count < 1:
        raise DomainError(f"panel_count must be >= 1, got {panel_count}")
    if endpoint_refinement < 0:
        raise DomainError(f"endpoint_refinement must be >= 0, got {endpoint_refinement}")

    width = (b - a) / panel_count
    breaks = a + np.arange(panel_count + 1) * width
    if endpoint_refinement > 0:
        halved = np.ldexp(width, -np.arange(1, endpoint_refinement + 1))  # width / 2^j, exact
        breaks = np.concatenate(([a], a + halved[::-1], breaks[1:-1], b - halved, [b]))
    if not np.all(breaks[:-1] < breaks[1:]):
        raise DomainError(f"rule ({panel_count}, {order}, {endpoint_refinement}) collapses "
                          f"panels on ({a!r}, {b!r})")

    xs, ws = _base_rule(order)
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
