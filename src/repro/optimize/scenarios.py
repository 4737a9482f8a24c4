"""Scenario-batched candidate scoring for robust planning.

Ranking R candidate graphs across K scenarios is an R×K evaluation
matrix — exactly the shape the batched numpy kernel
(:class:`repro.core.ForestBatch`) eats: encode each candidate once as a
parent-vector row, then price all rows per scenario in one vectorised
call.  The floats are the certified kernel's doubles (bit-for-bit the
float image of the exact values), so the robust solver uses this matrix
to *rank* and then certifies only the contenders exactly.

The batch path covers the common case — period objective under OVERLAP
(where the Theorem-1 bound is the evaluation at every effort tier),
forest candidates, unit/pinned-mapping scenarios.  Anything else returns
``None`` and the caller scores exactly; correctness never depends on
this module, only speed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core import CommModel, ExecutionGraph, ForestBatch


def scenario_period_matrix(
    candidates: Sequence[ExecutionGraph],
    scenarios: Sequence,  # repro.robust.Scenario
    model: CommModel,
    mapping=None,
) -> Optional["np.ndarray"]:
    """The ``(len(candidates), len(scenarios))`` float period matrix.

    ``None`` when the batch preconditions fail: a non-OVERLAP model
    (their exact period is not the Theorem-1 bound at every effort, so
    float ranks could disagree with exact certification), a non-forest
    candidate, or a scenario on a non-unit platform without a
    pinned mapping (per-row placement search is the scalar path's job).
    """
    if model is not CommModel.OVERLAP or not candidates:
        return None
    for scenario in scenarios:
        platform = scenario.platform
        if platform is not None and not platform.is_unit and mapping is None:
            return None
        if platform is not None and platform.has_contention:
            return None
    first = ForestBatch(
        scenarios[0].application, model,
        platform=scenarios[0].platform, mapping=mapping,
    )
    rows = []
    for graph in candidates:
        if not graph.is_forest:
            return None
        rows.append(first.encode(graph))
    row_matrix = np.stack(rows)
    columns: List["np.ndarray"] = []
    for scenario in scenarios:
        batch = ForestBatch(
            scenario.application, model,
            platform=scenario.platform, mapping=mapping,
        )
        valid, periods = batch.periods(row_matrix)
        if not bool(valid.all()):
            return None  # a candidate is no forest of this application
        columns.append(periods)
    return np.stack(columns, axis=1)


__all__ = ["scenario_period_matrix"]
