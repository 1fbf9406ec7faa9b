"""The ``cc`` provider: bundled C kernels built with the host toolchain.

The C translation unit in :mod:`repro.compiled._csrc` is compiled once per
source hash into a shared object cached under ``REPRO_COMPILED_CACHE``
(default ``~/.cache/repro-compiled``) and bound through :mod:`ctypes` — no
third-party dependency, so the compiled backend works wherever a C compiler
does.  Each build prunes the cached builds of other source hashes that no
process has loaded for a day.  Build failures of any kind (no compiler, no
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
import re
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.compiled._csrc import C_SOURCE

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


def _library_path() -> Path:
    """The cached shared object built from the current source and flags."""
    digest = hashlib.sha256(("\n".join(_CFLAGS) + C_SOURCE).encode("utf-8")).hexdigest()[:16]
    return cache_dir() / f"repro_kernels_{digest}.so"


def _build_library() -> ctypes.CDLL:
    """Compile (or reuse) the shared object and load it.

    A load refreshes the shared object's mtime, which is how
    :func:`_prune_stale` tells a build in use from an abandoned one.  A
    concurrent prune may remove a stale shared object between the existence
    check and ``dlopen``; it is then built again.
    """
    lib_path = _library_path()
    for _ in range(2):
        if not lib_path.exists():
            _compile(lib_path)
            _prune_stale(lib_path)
        try:
            library = ctypes.CDLL(str(lib_path))
        except OSError as exc:
            if lib_path.exists():
                raise CcBuildError(f"cannot load {lib_path}: {exc}") from exc
            continue
        try:
            os.utime(lib_path)
        except OSError:
            pass  # a read-only cache: nothing prunes it either
        return library
    raise CcBuildError(f"cannot load {lib_path}: removed from the cache twice while loading")


def _compile(lib_path: Path) -> None:
    """Build ``lib_path`` from the bundled source with the first working compiler."""
    directory = lib_path.parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CcBuildError(f"cannot create kernel cache {directory}: {exc}") from exc
    src_path = lib_path.with_suffix(".c")
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
        return
    raise CcBuildError(f"no working C compiler found ({error})")


#: A cached build whose files are all older than this (seconds) is pruned
#: after the next build of another source hash.
_STALE_SECONDS = 24 * 3600

_CACHED_FILE = re.compile(r"repro_kernels_[0-9a-f]{16}\.(?:c|so)")


def _prune_stale(current: Path) -> None:
    """Delete other source hashes' ``.c``/``.so`` pairs unused for a day.

    A pair's age is that of its newest file: loads refresh the ``.so`` and a
    build rewrites the ``.c``, so neither a tree in use nor a concurrent
    build is pruned.  The ``current`` pair and the builders' temp files
    (which do not match the cache names) are never touched.
    """
    pairs: dict[str, list[Path]] = {}
    for path in current.parent.iterdir():
        if _CACHED_FILE.fullmatch(path.name) and path.stem != current.stem:
            pairs.setdefault(path.stem, []).append(path)
    cutoff = time.time() - _STALE_SECONDS
    for paths in pairs.values():
        try:
            newest = max(path.stat().st_mtime for path in paths)
        except OSError:
            continue  # another process is pruning or rebuilding it
        if newest < cutoff:
            for path in paths:
                try:
                    path.unlink()
                except OSError:
                    pass


#: The fused kernel's ``apply_kind`` per mobility kernel spec (0: static).
_BLOCK_KINDS = {"lazy": 1, "masked": 2, "brownian": 3}

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: ``(restype, argtypes)`` of every exported kernel, declared once at load.
_SIGNATURES = {
    "repro_apply_lazy": (None, (_I64, _I64, _PTR, _PTR, _PTR)),
    "repro_apply_masked": (None, (_I64, _I64, _PTR, _PTR, _PTR, _PTR)),
    "repro_apply_brownian": (None, (_I64, _I64, _PTR, _PTR, _PTR)),
    "repro_broadcast_r0_block": (
        _I64,
        (_I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR),
    ),
    "repro_labels_batch": (_I64, (_I64, _I64, _PTR, ctypes.c_double, _PTR)),
}


def _buffer(arr: np.ndarray) -> Any:
    """A C-contiguous array's first byte, as a pointer argument.

    ``byref(c_byte.from_buffer(arr))`` costs a third of ``arr.ctypes.data``,
    but ``from_buffer`` refuses read-only and empty buffers, which pass the
    address numpy reports instead.
    """
    try:
        return ctypes.byref(ctypes.c_byte.from_buffer(arr))
    except (TypeError, ValueError):
        if not arr.flags.c_contiguous:
            raise ValueError("kernel arrays must be C-contiguous") from None
        return arr.ctypes.data


class CcOps:
    """Provider object binding the C kernels behind the common kernel API.

    Every kernel is bound once, with its argument types, so a call costs
    the C routine plus one ctypes call.  Array arguments of another dtype or
    layout are first copied to C-contiguous arrays of the exact dtype the C
    side expects; ``informed`` masks are numpy bool arrays (one byte per
    entry) and obstacle masks nonzero bytes, both read as ``uint8``.
    """

    name = "cc"
    #: cc-only extension (the python provider falls back without it).
    has_block_driver = True

    def __init__(self) -> None:
        self._lib = _build_library()
        for fn, (restype, argtypes) in _SIGNATURES.items():
            getattr(self._lib, fn).restype = restype
            getattr(self._lib, fn).argtypes = argtypes

    # -- mobility applies ------------------------------------------------- #
    def apply_lazy(self, side: int, positions: np.ndarray, choice: np.ndarray) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        choice = np.ascontiguousarray(choice, dtype=np.int32)
        if positions.size != 2 * choice.size:
            raise ValueError("positions must hold one (x, y) pair per choice")
        out = np.empty_like(positions)
        self._lib.repro_apply_lazy(
            choice.size, side, _buffer(positions), _buffer(choice), _buffer(out)
        )
        return out

    def apply_masked(
        self, side: int, free_mask: np.ndarray, positions: np.ndarray, choice: np.ndarray
    ) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        choice = np.ascontiguousarray(choice, dtype=np.int32)
        mask = np.ascontiguousarray(free_mask, dtype=np.uint8)
        if positions.size != 2 * choice.size or mask.size < side * side:
            raise ValueError("need one (x, y) pair per choice and a side * side mask")
        out = np.empty_like(positions)
        self._lib.repro_apply_masked(
            choice.size, side, _buffer(mask), _buffer(positions), _buffer(choice), _buffer(out)
        )
        return out

    def apply_brownian(
        self, side: int, positions: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        displacement = np.ascontiguousarray(displacement, dtype=np.float64)
        if positions.size % 2 or displacement.size != positions.size:
            raise ValueError("need one (dx, dy) pair per (x, y) pair")
        out = np.empty_like(positions)
        self._lib.repro_apply_brownian(
            positions.size // 2, side, _buffer(positions), _buffer(displacement), _buffer(out)
        )
        return out

    # -- labelling --------------------------------------------------------- #
    def labels_batch(self, positions: np.ndarray, radius: float) -> np.ndarray:
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError("positions must have shape (n_trials, k, 2)")
        n_trials, k = positions.shape[:2]
        labels = np.empty((n_trials, k), dtype=np.int64)
        if self._lib.repro_labels_batch(n_trials, k, _buffer(positions), radius, _buffer(labels)):
            raise MemoryError("repro_labels_batch could not allocate its scratch")
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
        ``positions`` (A, k, 2) and ``informed`` (A, k) are advanced in
        place; ``done_at`` (A,) and ``counts_out`` (steps, A) arrive filled
        with -1, and steps after a trial completed keep their -1.  All four
        are C-contiguous and never converted.  Returns the steps the
        longest-running trial ran.
        """
        n_steps, n_trials = counts_out.shape
        k = informed.shape[1]
        if (
            positions.shape != (n_trials, k, 2)
            or positions.dtype != np.int64
            or informed.shape != (n_trials, k)
            or informed.itemsize != 1
            or done_at.shape != (n_trials,)
            or done_at.dtype != np.int64
            or counts_out.dtype != np.int64
        ):
            raise ValueError("positions, informed, done_at or counts_out: wrong shape or dtype")
        if marks.dtype != np.uint8 or marks.size < side * side:
            raise ValueError("marks must be a uint8 table of side * side cells")
        # Pointer arguments: NULL unless the kernel spec reads them.
        mask: Any = None
        ichoice: Optional[int] = None
        fdisp: Optional[int] = None
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
            # A draw view's trials are contiguous but strided apart, which
            # from_buffer refuses: the kernel gets the view's base address.
            if kind == 3:
                fdisp = draws.ctypes.data
            else:
                ichoice = draws.ctypes.data
            if kind == 2:
                free_mask = np.ascontiguousarray(kernel[2], dtype=np.uint8)
                if free_mask.size < side * side:
                    raise ValueError("the obstacle mask must cover side * side cells")
                mask = _buffer(free_mask)
        return self._lib.repro_broadcast_r0_block(
            n_trials,
            k,
            side,
            n_steps,
            kind,
            mask,
            ichoice,
            fdisp,
            stride,
            _buffer(positions),
            _buffer(informed),
            _buffer(marks),
            _buffer(done_at),
            _buffer(counts_out),
        )
