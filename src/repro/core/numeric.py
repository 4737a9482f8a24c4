"""The float tier of the cost algebra, and its exact certification.

Every quantity of :class:`~repro.core.CostModel` is an exact
:class:`~fractions.Fraction`, which keeps the reproduction bit-for-bit
faithful to the paper — and makes the search hot paths (branch-and-bound
node scoring, reparenting and placement local search, exhaustive scans) one
to two orders of magnitude slower than native floats.  This module holds
the **fast tier** of the two-tier numeric engine — no cost arithmetic of
its own, only the number type and the rules for trusting it:

* :class:`FloatCosts` is :class:`~repro.core.CostModel` with its
  number-type hook set to ``float`` — one Section-2.1 algebra
  (:mod:`repro.core.costs`), two number types;
* :class:`Exactness` names the certification contract a caller picks, and
  :data:`CERT_EPS` is the conservative relative slack every *certified*
  float comparison must leave;
* :func:`certified_threshold` and the running best :class:`Incumbent`
  built on it are the one float gate every certified search uses.

The **certification protocol**: searches rank, prune and accept/reject
candidates on the float tier, but a certified search may discard a
candidate only when its float lower bound exceeds the incumbent by more
than ``CERT_EPS`` *relative* — ``float_lb > incumbent * (1 + eps)`` — and
must re-score every surviving incumbent in exact ``Fraction``s.  Float
evaluation of the Section-2.1 algebra over ``n`` services accumulates at
most a few hundred ulps of relative error (``~1e-13``), so a slack of
``1e-9`` can never hide a true improvement: any candidate whose exact
value beats the exact incumbent also beats the float threshold, hence is
re-scored exactly and the returned optimum stays bit-for-bit the paper's.
See ``docs/performance.md`` for the full argument and measurements.

    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> from repro.core import CostModel
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> graph = ExecutionGraph.chain(app, ["A", "B"])
    >>> fast = FloatCosts(graph)
    >>> fast.period_lower_bound(CommModel.OVERLAP)
    4.0
    >>> float(CostModel(graph).period_lower_bound(CommModel.OVERLAP))
    4.0
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Union

from .costs import CostModel

#: Relative slack of every certified float comparison.  Float evaluation
#: of the cost algebra keeps ~1e-13 relative accuracy (a few hundred ulps
#: over the longest product chains we form), so 1e-9 leaves four orders of
#: magnitude of margin while still pruning everything that is not a
#: near-tie.  Near-ties inside the band fall back to exact arithmetic.
CERT_EPS = 1e-9


class Exactness(enum.Enum):
    """How much exactness a solve guarantees — the two-tier engine's knob.

    * ``EXACT`` — every comparison and every value in exact ``Fraction``
      arithmetic; the pre-fast-path behaviour, bit-for-bit.
    * ``CERTIFIED`` — rank/prune/scan on the float tier with the
      :data:`CERT_EPS` guard, re-score candidates that survive in exact
      ``Fraction``s.  Returned values are **bit-for-bit identical** to
      ``EXACT``; only the wall time changes.  The default everywhere.
    * ``FAST`` — float tier throughout; returned values are float images
      (exact binary ``Fraction(float)``) and optimality is *not*
      certified.  For scans and sweeps where speed beats the last ulp.
    """

    EXACT = "exact"
    CERTIFIED = "certified"
    FAST = "fast"

    @classmethod
    def coerce(cls, value: Union[str, "Exactness", None]) -> "Exactness":
        """Accept an :class:`Exactness`, its string value, or ``None``."""
        if value is None:
            return cls.CERTIFIED
        if isinstance(value, Exactness):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(e.value for e in cls)
            raise ValueError(
                f"unknown exactness {value!r}; expected one of: {names}"
            ) from None

    @property
    def uses_float(self) -> bool:
        """Does this mode run the float tier inside searches?"""
        return self is not Exactness.EXACT

    @property
    def memo_tier(self) -> str:
        """The cache/memo slot this tier's *values* belong to.

        ``CERTIFIED`` results are bit-for-bit the ``EXACT`` ones (the
        float tier only gates which candidates get exact scoring), so the
        two share the ``"exact"`` slot; ``FAST`` values are float images
        and must never be served to an exact or certified caller — they
        get their own slot.  The single source of truth for both the
        evaluation cache and the placement memo.
        """
        return "fast" if self is Exactness.FAST else "exact"


class FloatCosts(CostModel):
    """:class:`~repro.core.CostModel` in native floats — the fast tier.

    The same class, constructor and queries (``cin``/``ccomp``/``cout``,
    per-server sums, ``period_lower_bound``, ``latency_lower_bound``, the
    optional *arrays* and *weights*), with every input quantity converted
    through ``float`` once, so all arithmetic runs on doubles.  Relative
    agreement with the exact model is property-tested to 1e-9, and the
    doubles are bit-for-bit the ones the batched kernels replay.  An
    instance beyond float range raises :class:`OverflowError` when the
    model is built or first queried.
    """

    __slots__ = ()

    _num = staticmethod(float)


def certified_threshold(incumbent) -> float:
    """The float cut above which a certified search may prune outright.

    *incumbent* is the running best, exact (a ``Fraction``) or float.  A
    candidate whose float lower bound exceeds this can not have an exact
    value below the exact incumbent (the float error is orders of
    magnitude below :data:`CERT_EPS`); anything at or under it must be
    re-scored exactly before being discarded.  An incumbent beyond float
    range gives ``inf``: no float value can reject, everything is scored
    exactly.
    """
    try:
        return float(incumbent) * (1.0 + CERT_EPS)
    except OverflowError:
        return math.inf


class Incumbent:
    """The running best of a certified scan and its float cut.

    :meth:`offer` keeps the first strict minimum (ties keep the earlier
    item) and moves the cut to :func:`certified_threshold` of the new
    best; :meth:`rejects` is the one float gate — a candidate is skipped
    only when its float lower bound lies above the cut.  Before the first
    offer nothing is rejected.

        >>> best = Incumbent()
        >>> best.offer(3, "a"), best.offer(3, "b")
        (True, False)
        >>> best.item, best.rejects(3.0), best.rejects(3.1), best.rejects(None)
        ('a', False, True, False)
    """

    __slots__ = ("value", "item", "cut")

    def __init__(self) -> None:
        self.value = None
        self.item = None
        self.cut = math.inf

    def offer(self, value, item) -> bool:
        """Keep *item* if *value* strictly beats the best; report whether."""
        if self.value is not None and not value < self.value:
            return False
        self.value, self.item = value, item
        self.cut = certified_threshold(value)
        return True

    def rejects(self, fast: Optional[float]) -> bool:
        """Is the float bound *fast* provably no better than the best?

        ``None`` (no float value for this candidate) never rejects; a
        numpy array of bounds is answered elementwise.
        """
        return fast is not None and fast > self.cut


__all__ = [
    "CERT_EPS",
    "Exactness",
    "FloatCosts",
    "Incumbent",
    "certified_threshold",
]
