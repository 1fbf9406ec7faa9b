"""Provider-independent wrapper layer of the compiled backend.

A *provider* is an object exposing the compiled kernel set at numpy level
(``apply_lazy`` / ``apply_masked`` / ``apply_brownian`` / ``labels_batch``,
plus the cc-only ``broadcast_r0_block`` extension flagged by
``has_block_driver``).
:class:`LoopOps` adapts any namespace of loop kernels with the
:mod:`repro.compiled.kernels_py` signatures (the jitted numba module or the
plain-Python reference module itself) to that protocol; the cc provider
implements it natively in :class:`repro.compiled._cc.CcOps`.

On top of the raw protocol this module carries the glue the simulation loops
use: ``apply_kernel`` dispatches a :class:`~repro.mobility.kernels.BlockDrawStepper`
kernel spec, ``accelerate_stepper`` swaps a stepper's numpy apply for the
compiled one, and ``make_labels_fn`` stands in for the numpy labelling pass.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mobility.kernels import BlockDrawStepper


class LoopOps:
    """Adapt a kernels_py-style namespace to the provider protocol."""

    has_block_driver = False

    def __init__(self, kernels: Any, name: str) -> None:
        self._kernels = kernels
        self.name = name

    def apply_lazy(self, side: int, positions: np.ndarray, choice: np.ndarray) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        out = np.empty_like(positions)
        self._kernels.apply_lazy(side, positions, np.ascontiguousarray(choice), out)
        return out

    def apply_masked(
        self, side: int, free_mask: np.ndarray, positions: np.ndarray, choice: np.ndarray
    ) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        out = np.empty_like(positions)
        mask = np.ascontiguousarray(free_mask, dtype=np.uint8).ravel()
        self._kernels.apply_masked(side, mask, positions, np.ascontiguousarray(choice), out)
        return out

    def apply_brownian(
        self, side: int, positions: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        out = np.empty_like(positions)
        self._kernels.apply_brownian(
            side, positions, np.ascontiguousarray(displacement, dtype=np.float64), out
        )
        return out

    def labels_batch(self, positions: np.ndarray, radius: float) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        n_trials, k = positions.shape[:2]
        labels = np.empty((n_trials, k), dtype=np.int64)
        if n_trials and k:
            self._kernels.labels_batch(positions, float(radius), labels)
        return labels


# --------------------------------------------------------------------------- #
# Kernel-spec dispatch (mobility applies)
# --------------------------------------------------------------------------- #
#: Kernel-spec kinds the compiled apply path understands.
SUPPORTED_KERNELS = ("lazy", "masked", "brownian")


def apply_kernel(ops: Any, kernel: tuple, positions: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Apply one per-step draw slice through the provider's compiled kernel.

    ``kernel`` is the spec a mobility model attached to its
    :class:`~repro.mobility.kernels.BlockDrawStepper`:
    ``("lazy", side)``, ``("masked", side, free_mask)`` or
    ``("brownian", side)``.
    """
    kind = kernel[0]
    if kind == "lazy":
        return ops.apply_lazy(kernel[1], positions, draws)
    if kind == "masked":
        return ops.apply_masked(kernel[1], kernel[2], positions, draws)
    if kind == "brownian":
        return ops.apply_brownian(kernel[1], positions, draws)
    raise ValueError(f"unknown compiled kernel spec {kind!r}")


def accelerate_stepper(ops: Any, stepper: Any) -> Any:
    """Swap a block stepper's numpy apply for the provider's compiled kernel.

    Returns ``stepper`` unchanged when it carries no compiled kernel spec
    (per-trial steppers, models with data-dependent draws): those paths keep
    their numpy applies, which is still bit-for-bit correct — the compiled
    backend accelerates exactly the kernels that exist, never the contract.
    """
    kernel = getattr(stepper, "kernel", None)
    if not isinstance(stepper, BlockDrawStepper) or kernel is None:
        return stepper
    if kernel[0] not in SUPPORTED_KERNELS:
        return stepper
    stepper.set_apply(lambda positions, draws: apply_kernel(ops, kernel, positions, draws))
    return stepper


# --------------------------------------------------------------------------- #
# Labelling
# --------------------------------------------------------------------------- #
def make_labels_fn(ops: Any):
    """A drop-in for :func:`repro.connectivity.batched.batched_visibility_labels`.

    The returned labels are partition-identical (not value-identical) to the
    numpy path's: every downstream consumer — ``flood_informed_batch``,
    ``flood_rumors_batch``, the process kernels' label predicates — is
    invariant under relabelling, which the property suites pin.
    """

    def labels_fn(positions: np.ndarray, radius: float) -> np.ndarray:
        return ops.labels_batch(positions, radius)

    return labels_fn
