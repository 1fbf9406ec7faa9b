"""The ``cc`` provider: bundled C kernels built with the host toolchain.

The C translation unit in :mod:`repro.compiled._csrc` is compiled once per
source hash into a shared object cached under ``REPRO_COMPILED_CACHE``
(default ``~/.cache/repro-compiled``) and bound through :mod:`ctypes` — no
third-party dependency, so the compiled backend works wherever a C compiler
does, numba installed or not.  Build failures of any kind (no compiler, no
writable cache, broken toolchain) raise :class:`CcBuildError`, which the
provider probe in :mod:`repro.compiled` treats as "provider unavailable".

All kernels are single-threaded; determinism needs no environment pinning.
ctypes releases the GIL around every native call, which is what lets the
fused driver (:mod:`repro.compiled.driver`) draw the next block on a helper
thread while ``repro_broadcast_r0_block`` runs the current one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.compiled._csrc import C_SOURCE

_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_F64P = ctypes.POINTER(ctypes.c_double)

#: Compiler candidates tried in order (first one present wins).
_COMPILERS = ("cc", "gcc", "clang")

#: ``-falign-loops=32`` starts every loop on a 32-byte boundary, so the fused
#: kernel's speed does not depend on where the linker places it: at default
#: alignment, moving it within the shared object changed the speed of its
#: inner loops by 5-10% (docs/PERFORMANCE.md).
_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-falign-loops=32"]


class CcBuildError(RuntimeError):
    """The bundled C kernels could not be built on this host."""


def cache_dir() -> Path:
    """Directory holding the compiled shared objects (env-overridable)."""
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-compiled"


def _i64(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.cast(arr.ctypes.data, _I64P)


def _i32(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.cast(arr.ctypes.data, _I32P)


def _u8(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.cast(arr.ctypes.data, _U8P)


def _f64(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.cast(arr.ctypes.data, _F64P)


def _contig_i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _build_library() -> ctypes.CDLL:
    """Compile (or reuse) the shared object and load it."""
    digest = hashlib.sha256(("\n".join(_CFLAGS) + C_SOURCE).encode("utf-8")).hexdigest()[:16]
    directory = cache_dir()
    lib_path = directory / f"repro_kernels_{digest}.so"
    if not lib_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CcBuildError(f"cannot create kernel cache {directory}: {exc}") from exc
        src_path = directory / f"repro_kernels_{digest}.c"
        src_path.write_text(C_SOURCE, encoding="utf-8")
        error: Optional[str] = None
        for compiler in _COMPILERS:
            # Build into a temp file first so a crashed compile never leaves
            # a half-written .so behind for other processes to dlopen.
            fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(directory))
            os.close(fd)
            cmd = [compiler, *_CFLAGS, "-o", tmp_name, str(src_path), "-lm"]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            except (OSError, subprocess.SubprocessError) as exc:
                error = f"{compiler}: {exc}"
                os.unlink(tmp_name)
                continue
            if proc.returncode != 0:
                error = f"{compiler}: {proc.stderr.strip()[:500]}"
                os.unlink(tmp_name)
                continue
            os.replace(tmp_name, lib_path)
            break
        else:
            raise CcBuildError(f"no working C compiler found ({error})")
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise CcBuildError(f"cannot load {lib_path}: {exc}") from exc


#: The fused kernel's ``apply_kind`` per mobility kernel spec (0: static).
_BLOCK_KINDS = {"lazy": 1, "masked": 2, "brownian": 3}


class CcOps:
    """Provider object binding the C kernels behind the common kernel API.

    Array arguments are converted to C-contiguous buffers of the exact
    dtype the C side expects; ``informed`` masks are numpy bool arrays
    (one byte per entry) addressed as ``uint8``.
    """

    name = "cc"
    #: cc-only extension (the numba/python providers fall back without it).
    has_block_driver = True

    def __init__(self) -> None:
        self._lib = _build_library()
        for fn in (
            "repro_apply_lazy",
            "repro_apply_masked",
            "repro_apply_brownian",
            "repro_broadcast_r0_block",
            "repro_labels_batch",
        ):
            getattr(self._lib, fn).restype = ctypes.c_int64

    # -- mobility applies ------------------------------------------------- #
    def apply_lazy(self, side: int, positions: np.ndarray, choice: np.ndarray) -> np.ndarray:
        positions = _contig_i64(positions)
        choice = np.ascontiguousarray(choice, dtype=np.int32)
        out = np.empty_like(positions)
        self._lib.repro_apply_lazy(
            ctypes.c_int64(choice.size), ctypes.c_int64(side),
            _i64(positions), _i32(choice), _i64(out),
        )
        return out

    def apply_masked(
        self, side: int, free_mask: np.ndarray, positions: np.ndarray, choice: np.ndarray
    ) -> np.ndarray:
        positions = _contig_i64(positions)
        choice = np.ascontiguousarray(choice, dtype=np.int32)
        mask = np.ascontiguousarray(free_mask, dtype=np.uint8).ravel()
        out = np.empty_like(positions)
        self._lib.repro_apply_masked(
            ctypes.c_int64(choice.size), ctypes.c_int64(side),
            _u8(mask), _i64(positions), _i32(choice), _i64(out),
        )
        return out

    def apply_brownian(
        self, side: int, positions: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        positions = _contig_i64(positions)
        displacement = np.ascontiguousarray(displacement, dtype=np.float64)
        out = np.empty_like(positions)
        self._lib.repro_apply_brownian(
            ctypes.c_int64(positions.size // 2), ctypes.c_int64(side),
            _i64(positions), _f64(displacement), _i64(out),
        )
        return out

    # -- labelling --------------------------------------------------------- #
    def labels_batch(self, positions: np.ndarray, radius: float) -> np.ndarray:
        positions = _contig_i64(positions)
        n_trials, k = positions.shape[:2]
        labels = np.empty((n_trials, k), dtype=np.int64)
        if n_trials == 0 or k == 0:
            return labels
        ki = np.empty((2 * k, 2), dtype=np.int64)  # struct {i64 key; i64 idx;} x 2k
        parent = np.empty(k, dtype=np.int64)
        rank = np.empty(k, dtype=np.int64)
        minid = np.empty(k, dtype=np.int64)
        self._lib.repro_labels_batch(
            ctypes.c_int64(n_trials), ctypes.c_int64(k), _i64(positions),
            ctypes.c_double(float(radius)), _i64(labels),
            _i64(ki), _i64(parent), _i64(rank), _i64(minid),
        )
        return labels

    # -- cc-only extension ------------------------------------------------ #
    def broadcast_r0_block(
        self,
        kernel: Optional[tuple],
        side: int,
        draws: Optional[np.ndarray],
        positions: np.ndarray,
        informed: np.ndarray,
        marks: np.ndarray,
        done_at: np.ndarray,
        counts_out: np.ndarray,
    ) -> int:
        """Run up to ``counts_out.shape[0]`` fused steps, trial-major.

        ``draws`` (int32 choices, or float64 displacements for brownian) is
        read in place when each trial's slice is contiguous.  ``marks`` is
        the shared all-zero uint8 table of ``side * side`` cells.
        ``done_at`` (A,) and ``counts_out`` (steps, A) arrive filled with
        -1; steps after a trial completed keep their -1.  Returns the steps
        the longest-running trial ran.
        """
        n_steps, n_trials = counts_out.shape
        k = informed.shape[1]
        if not positions.flags["C_CONTIGUOUS"] or not informed.flags["C_CONTIGUOUS"]:
            raise ValueError("positions and informed must be C-contiguous (mutated in place)")
        if marks.dtype != np.uint8 or marks.size < side * side:
            raise ValueError("marks must be a uint8 table of side * side cells")
        # Keep every marshalled temporary referenced for the call's duration.
        mask_arr: Optional[np.ndarray] = None
        mask_ptr = ctypes.cast(None, _U8P)
        ichoice = ctypes.cast(None, _I32P)
        fdisp = ctypes.cast(None, _F64P)
        kind = stride = 0
        if kernel is not None:
            kind = _BLOCK_KINDS[kernel[0]]
            expected = (n_trials, n_steps, k) + ((2,) if kind == 3 else ())
            if draws is None or draws.shape != expected:
                raise ValueError(f"draws must have shape {expected}")
            dtype = np.float64 if kind == 3 else np.int32
            if (
                draws.dtype != dtype
                or not draws[:1].flags["C_CONTIGUOUS"]
                or draws.strides[0] % draws.itemsize
            ):
                draws = np.ascontiguousarray(draws, dtype=dtype)
            stride = draws.strides[0] // draws.itemsize
            if kind == 3:
                fdisp = _f64(draws)
            else:
                ichoice = _i32(draws)
            if kind == 2:
                mask_arr = np.ascontiguousarray(kernel[2], dtype=np.uint8).ravel()
                mask_ptr = _u8(mask_arr)
        return int(
            self._lib.repro_broadcast_r0_block(
                ctypes.c_int64(n_trials), ctypes.c_int64(k), ctypes.c_int64(side),
                ctypes.c_int64(n_steps), ctypes.c_int64(kind), mask_ptr, ichoice, fdisp,
                ctypes.c_int64(stride), _i64(positions), _u8(informed), _u8(marks),
                _i64(done_at), _i64(counts_out),
            )
        )
