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

# Highest level whose norm norm_rule resolves.  Over n <= 100 the norm routines meet 1 or
# 1/2 within 5.5e-9 wherever they serve: oscillator k1 in {0.05+-, 0.3-, 0.5+-, 0.75, 1.5,
# 3} at omega R^2 <= 100, Coulomb k1 in {0, 0.1-, 0.5+-, 1, 1.3, 1.41} at mu R <= 1e3; and
# within 5e-12 at omega R^2 <= 50 and mu R <= 300.  Above it the 12-point panels hold too
# many oscillations: 4.7e-12 at n = 120, 1.2e-10 at 135 and 5.1e-4 at 300 (omega R^2 = 1).
_NORM_MAX_N = 100


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


def norm_rule(hi: float, max_level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The rule of every norm check on (0, hi): 48 panels of order 12, 40 refinement levels,
    for states up to the ``systems.level_index`` ``max_level``; DomainError above 100."""
    if level_index(max_level) > _NORM_MAX_N:
        raise DomainError(f"the norm rule is not resolved at level {max_level} > {_NORM_MAX_N}")
    return gauss_legendre_rule(48, 12, 0.0, hi, endpoint_refinement=40)
