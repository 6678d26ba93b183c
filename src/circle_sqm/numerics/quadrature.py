"""Composite Gauss-Legendre quadrature with geometric endpoint refinement.

The refined rule exists for integrands with algebraic endpoint behavior like
(sin phi)^(2 nu), nu = 1/4: panels shrink geometrically toward each endpoint
so the non-smooth region is confined to panels of negligible width.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DomainError

NORM_RULE = (48, 12, 40)  # panels, order, endpoint refinement levels of the norm checks


@lru_cache(maxsize=32)
def _base_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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
    refused with ``DomainError``.
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
    breaks = [a + i * width for i in range(panel_count + 1)]
    if endpoint_refinement > 0 and panel_count >= 1:
        left = [a + width / 2.0**j for j in range(endpoint_refinement, 0, -1)]
        right = [b - width / 2.0**j for j in range(1, endpoint_refinement + 1)]
        breaks = [a] + left + breaks[1:-1] + right + [b]
    if not all(lo < hi for lo, hi in zip(breaks[:-1], breaks[1:])):
        raise DomainError(f"rule ({panel_count}, {order}, {endpoint_refinement}) collapses "
                          f"panels on ({a!r}, {b!r})")

    xs, ws = _base_rule(order)
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (xs + 1.0))
        weights.append(half * ws)
    nodes = np.concatenate(nodes)
    if not np.all((nodes > a) & (nodes < b)):
        raise DomainError(f"rule ({panel_count}, {order}, {endpoint_refinement}) puts a node "
                          f"outside the open interval ({a!r}, {b!r})")
    return nodes, np.concatenate(weights)


def integrate(fn, panel_count: int, order: int, a: float, b: float,
              endpoint_refinement: int = 0) -> float | complex:
    """Convenience wrapper: integral of ``fn`` over (a, b) with the rule above."""
    nodes, weights = gauss_legendre_rule(panel_count, order, a, b, endpoint_refinement)
    return np.dot(weights, fn(nodes))
