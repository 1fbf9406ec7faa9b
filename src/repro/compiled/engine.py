"""Compiled incremental connectivity engine.

The engine ``auto`` runs under the compiled backend for ``radius > 0``.  It
keeps no state: each step is one provider ``labels_batch`` call over every
active trial, the same work as the ``recompute`` path's labels function.
It stays a separate engine so that the compiled ``incremental`` choice
names the step its time is spent in
(``CompiledDeltaEngine.step``, which ``perfbench`` traces as the
``connectivity.engine`` layer).

Labels are ``row * k + min component member``, the provider's
``labels_batch`` values: non-negative, cross-row distinct and
partition-identical to the numpy engines' (the minimum member is the
representative), which is everything the flooding and process-kernel
consumers require.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class CompiledDeltaEngine:
    """Per-step component labels from a compiled provider's ``labels_batch``."""

    def __init__(self, ops: Any, n_points: int, radius: float, n_trials: int = 1) -> None:
        if radius <= 0:
            raise ValueError("CompiledDeltaEngine requires radius > 0")
        self._ops = ops
        self._radius = float(radius)

    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Return the labels of the active trials at ``positions``.

        ``positions`` has shape ``(A, k, 2)``; ``active`` (the batched loops'
        compaction contract) is accepted for the engine interface and
        unused, since nothing is carried between steps.
        """
        return self._ops.labels_batch(positions, self._radius)
