"""Provider-independent wrapper layer of the compiled backend.

A *provider* is an object exposing the compiled kernel set at numpy level
(``apply_lazy`` / ``apply_masked`` / ``apply_brownian`` / ``labels_batch``,
plus the cc-only native block kinds, ``broadcast_r0_block`` and its
siblings, flagged by ``has_block_driver``).
:class:`LoopOps` adapts a namespace of loop kernels with the
:mod:`repro.compiled.kernels_py` signatures (the plain-Python reference
module itself, the ``python`` provider) to that protocol; the cc provider
implements it natively in :class:`repro.compiled._cc.CcOps`.

On top of the raw protocol this module carries the glue the simulation loops
use: ``bind_apply`` resolves a :class:`~repro.mobility.kernels.BlockDrawStepper`
kernel spec into one apply closure per run, ``accelerate_stepper`` swaps a
stepper's numpy apply for it, and ``make_labels_fn`` stands in for the numpy
labelling pass.
"""

from __future__ import annotations

from typing import Any, Callable

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
# Kernel specs (mobility applies)
# --------------------------------------------------------------------------- #
#: Kernel-spec kinds the compiled apply path understands.
SUPPORTED_KERNELS = ("lazy", "masked", "brownian")


def bind_apply(ops: Any, kernel: tuple) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The apply ``(positions, draws) -> positions`` of a kernel spec, resolved once.

    ``kernel`` is the spec a mobility model attached to its
    :class:`~repro.mobility.kernels.BlockDrawStepper`:
    ``("lazy", side)``, ``("masked", side, free_mask)`` or
    ``("brownian", side)``.  The closure calls the provider's method of that
    name with the spec's arguments, so no step dispatches on the spec.
    """
    kind, side = kernel[0], kernel[1]
    if kind == "lazy":
        return lambda positions, draws: ops.apply_lazy(side, positions, draws)
    if kind == "masked":
        mask = kernel[2]
        return lambda positions, draws: ops.apply_masked(side, mask, positions, draws)
    if kind == "brownian":
        return lambda positions, draws: ops.apply_brownian(side, positions, draws)
    raise ValueError(f"unknown compiled kernel spec {kind!r}")


def accelerate_stepper(ops: Any, stepper: Any) -> Any:
    """Swap a block stepper's numpy apply for the provider's compiled kernel.

    Returns ``stepper`` unchanged when it carries no compiled kernel spec
    (per-trial steppers, models with data-dependent draws): those paths keep
    their numpy applies, which is still bit-for-bit correct — the compiled
    backend accelerates exactly the kernels that exist, never the contract.

    An obstacle spec's mask, a read-only bool array, is replaced by its
    C-contiguous uint8 copy, made once per run: the compiled apply of every
    step and every native block then read it unconverted.
    """
    kernel = getattr(stepper, "kernel", None)
    if not isinstance(stepper, BlockDrawStepper) or kernel is None:
        return stepper
    if kernel[0] not in SUPPORTED_KERNELS:
        return stepper
    if kernel[0] == "masked":
        mask = np.ascontiguousarray(kernel[2], dtype=np.uint8)
        kernel = stepper.kernel = ("masked", kernel[1], mask)
    stepper.set_apply(bind_apply(ops, kernel))
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
