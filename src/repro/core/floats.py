"""The float namespace: one rule, written once, for a session or a cohort.

Rules that the fleet pool (:mod:`repro.fleet.pool`) applies to a whole
cohort and the scalar objects apply to one session — the Eqn. 11 pole,
the Eqn. 2 value difference, the budget remainder and target, the
enforcement ladder — are written once, as functions of an array
namespace ``xp``.  The pool passes :mod:`numpy`; the scalar objects
pass this module, which gives the same three names Python-float
meanings:

* ``where(condition, a, b)`` is ``a if condition else b``;
* ``maximum(a, b)`` / ``minimum(a, b)`` are ``max(a, b)`` /
  ``min(a, b)``, ties and NaNs included: ``b`` only if it compares
  strictly greater (resp. less) than ``a``.

A rule may use only these names, arithmetic, comparisons, and ``&`` /
``|`` on conditions (never ``~``, which is bitwise on a Python bool).
Both arguments of ``where`` are evaluated, so a branch must stay
finite on rows it does not select: divide by
``where(ok, x, 1.0)``, not by ``x``.  The scalar path never builds a
length-1 ndarray; a numpy scalar operation costs about 1 µs, a call
here about 40 ns.  The builtins ``max`` / ``min`` take about 120 ns
for two floats (they are written for any iterable), so they are not
used directly.
"""

from __future__ import annotations

from typing import TypeVar

__all__ = ["maximum", "minimum", "where"]

T = TypeVar("T")


def maximum(a: float, b: float) -> float:
    """``max(a, b)`` (``numpy.maximum`` for one row)."""
    return b if b > a else a


def minimum(a: float, b: float) -> float:
    """``min(a, b)`` (``numpy.minimum`` for one row)."""
    return b if b < a else a


def where(condition: bool, a: T, b: T) -> T:
    """``a`` if ``condition`` else ``b`` (``numpy.where`` for one row)."""
    return a if condition else b
