"""Uniform (cyclic) constraint graphs for periodic scheduling.

A periodic schedule assigns each *event* ``v`` a begin time ``t_v`` for data
set 0, the occurrence for data set ``n`` happening at ``t_v + n * lambda``.
A *uniform constraint* is an edge ``u -> v`` with weight ``w`` and height
``h`` meaning::

    t_v >= t_u + w - lambda * h

i.e. "the occurrence of ``v`` for data set ``n`` starts at least ``w`` time
units after the occurrence of ``u`` for data set ``n - h``".  Height-0 edges
are ordinary precedence constraints inside one data set; height-1 edges link
consecutive data sets (e.g. a server starting its next cycle).

The minimal feasible ``lambda`` is the **maximum cycle ratio**
``max_C sum(w) / sum(h)`` over directed cycles ``C`` — see
:mod:`repro.cyclic.mcr`.  This classical construction (event graphs /
max-plus algebra) is exactly what the paper's Section 2.3 example needs to
produce the optimal INORDER period of ``23/3``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, NamedTuple, Tuple

from ..core.service import Numeric, as_fraction


class ConstraintEdge(NamedTuple):
    """One uniform constraint ``t_v >= t_u + weight - lambda * height``."""

    src: int
    dst: int
    weight: Fraction
    height: int


class EventGraph:
    """A mutable uniform constraint graph over hashable event labels."""

    def __init__(self) -> None:
        self._labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self.edges: List[ConstraintEdge] = []

    # -- construction -----------------------------------------------------
    def add_event(self, label: Hashable) -> int:
        """Register *label* (idempotent); returns its dense index."""
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def add_constraint(
        self, src: Hashable, dst: Hashable, weight: Numeric, height: int = 0
    ) -> None:
        """Add ``t_dst >= t_src + weight - lambda * height``."""
        if height < 0:
            raise ValueError(f"height must be >= 0, got {height}")
        u = self.add_event(src)
        v = self.add_event(dst)
        self.edges.append(ConstraintEdge(u, v, as_fraction(weight), height))

    # -- queries ------------------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> Tuple[Hashable, ...]:
        return tuple(self._labels)

    def index(self, label: Hashable) -> int:
        return self._index[label]

    def label(self, idx: int) -> Hashable:
        return self._labels[idx]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventGraph({self.n_events} events, {len(self.edges)} constraints)"


__all__ = ["ConstraintEdge", "EventGraph"]
