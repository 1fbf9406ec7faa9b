"""The ``numba`` provider: ``@njit``-compiled reference kernels.

Jit-compiles the loop kernels of :mod:`repro.compiled.kernels_py` verbatim.
Import is strictly lazy — this module raises :class:`ImportError` when numba
is absent, which the provider probe in :mod:`repro.compiled` treats as
"provider unavailable" — and compilation is deferred to first call per
kernel (numba's lazy dispatch), so merely probing availability stays cheap.

Every kernel is a plain sequential loop (no ``prange``), so execution is
single-threaded and deterministic regardless of ``NUMBA_NUM_THREADS``; see
``docs/COMPILED.md``.
"""

from __future__ import annotations

import types

import numba

from repro.compiled import kernels_py

_jit = numba.njit(cache=True, fastmath=False)

# Helpers first: the top-level kernels call them, so the jitted clones must
# see jitted versions in their globals.
_JITTED_HELPERS = {
    "_reflect": _jit(kernels_py._reflect),
    "_uf_find": _jit(kernels_py._uf_find),
    "_uf_union": _jit(kernels_py._uf_union),
    "_radix_sort": _jit(kernels_py._radix_sort),
}
_JITTED_HELPERS["_min_label_pass"] = _jit(
    types.FunctionType(
        kernels_py._min_label_pass.__code__,
        {**kernels_py._min_label_pass.__globals__, **_JITTED_HELPERS},
        kernels_py._min_label_pass.__name__,
    )
)


def _rebind(fn):
    """Jit ``fn`` with its helper globals swapped for the jitted versions."""
    clone = types.FunctionType(
        fn.__code__, {**fn.__globals__, **_JITTED_HELPERS}, fn.__name__, fn.__defaults__
    )
    return _jit(clone)


apply_lazy = _rebind(kernels_py.apply_lazy)
apply_masked = _rebind(kernels_py.apply_masked)
apply_brownian = _rebind(kernels_py.apply_brownian)
labels_batch = _rebind(kernels_py.labels_batch)
