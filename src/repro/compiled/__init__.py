"""Compiled step-loop backend: beyond-numpy hot kernels, bit-for-bit.

``backend="compiled"`` runs the batched replication loops with the per-step
hot kernels — mobility apply, component labelling and the ``r = 0``
flood/label scatter — executed by a *compiled provider* instead of
interpreted numpy, while consuming the identical per-trial RNG streams (all
draws stay on the numpy generators; only the apply/labelling passes move).
Results are therefore bit-for-bit identical to the serial and batched
backends, which the property suites verify trial for trial.

Three providers, selected via ``REPRO_COMPILED_PROVIDER``:

* ``numba`` — ``@njit``-compiled reference kernels (requires the optional
  ``numba`` dependency: ``pip install repro-pettarin2011[compiled]``);
* ``cc`` — bundled C kernels built once with the host C compiler and bound
  through ctypes (no third-party dependency); the only provider carrying
  the fused multi-step broadcast driver;
* ``python`` — the uncompiled reference kernels (test-only; never selected
  automatically and deliberately *not* counted as "available").

``auto`` (the default) probes numba first, then the C toolchain.  The probe
result is cached per process; :func:`available` never raises.  Setting
``REPRO_COMPILED_PROVIDER=none`` disables the backend outright (useful for
exercising the fallback path).  All kernels are single-threaded by
construction, so no thread-count pinning is needed for determinism; with
the numba provider, ``NUMBA_NUM_THREADS=1`` additionally pins numba's
internal thread pool for strict run-to-run environment parity.

See ``docs/COMPILED.md`` for the kernel contract and how to add a kernel.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Optional

#: Provider names accepted by ``REPRO_COMPILED_PROVIDER``.
PROVIDERS = ("auto", "numba", "cc", "python", "none")

_OPS: Optional[Any] = None
_PROBED = False
_PROBE_ERRORS: dict[str, str] = {}
_WARNED_NO_NUMBA = False


def _provider_request() -> str:
    request = os.environ.get("REPRO_COMPILED_PROVIDER", "auto").strip().lower()
    if request not in PROVIDERS:
        raise ValueError(
            f"REPRO_COMPILED_PROVIDER must be one of {PROVIDERS}, got {request!r}"
        )
    return request


def _try_numba() -> Optional[Any]:
    try:
        from repro.compiled import _numba, api

        return api.LoopOps(_numba, "numba")
    except ImportError as exc:
        _PROBE_ERRORS["numba"] = str(exc)
        return None


def _try_cc() -> Optional[Any]:
    try:
        from repro.compiled._cc import CcBuildError, CcOps

        try:
            return CcOps()
        except CcBuildError as exc:
            _PROBE_ERRORS["cc"] = str(exc)
            return None
    except Exception as exc:  # pragma: no cover - defensive
        _PROBE_ERRORS["cc"] = str(exc)
        return None


def _python_ops() -> Any:
    from repro.compiled import api, kernels_py

    return api.LoopOps(kernels_py, "python")


def _probe() -> Optional[Any]:
    global _OPS, _PROBED
    if _PROBED:
        return _OPS
    request = _provider_request()
    ops: Optional[Any] = None
    if request == "numba":
        ops = _try_numba()
    elif request == "cc":
        ops = _try_cc()
    elif request == "python":
        ops = _python_ops()
    elif request == "auto":
        ops = _try_numba() or _try_cc()
    # request == "none": stay unavailable.
    _OPS = ops
    _PROBED = True
    return ops


def reset_probe() -> None:
    """Forget the cached provider probe (tests re-probe after env changes)."""
    global _OPS, _PROBED, _WARNED_NO_NUMBA
    _OPS = None
    _PROBED = False
    _WARNED_NO_NUMBA = False
    _PROBE_ERRORS.clear()


def available() -> bool:
    """Whether a compiled provider is usable on this host (never raises).

    This is the probe the ``"auto"`` backend resolution consults: ``True``
    when numba is importable or the bundled C kernels build (or when a
    specific working provider is pinned via ``REPRO_COMPILED_PROVIDER``).
    """
    try:
        return _probe() is not None
    except Exception:  # pragma: no cover - defensive
        return False


def provider_name() -> Optional[str]:
    """Name of the active provider (``None`` when unavailable)."""
    ops = _probe()
    return None if ops is None else ops.name


def require_ops() -> Any:
    """The active provider, or a clear error explaining how to get one.

    Emits a one-time warning when ``backend="compiled"`` runs without numba
    (i.e. on the bundled-C fallback), so a user who expected the ``[compiled]``
    extra to be active finds out without the run failing.
    """
    global _WARNED_NO_NUMBA
    ops = _probe()
    if ops is None:
        detail = "; ".join(f"{name}: {err}" for name, err in _PROBE_ERRORS.items())
        raise RuntimeError(
            "backend='compiled' requested but no compiled provider is available "
            "(install the optional numba dependency with "
            "`pip install repro-pettarin2011[compiled]`, or provide a C "
            "toolchain for the bundled kernels)"
            + (f" [{detail}]" if detail else "")
        )
    if ops.name == "cc" and not _WARNED_NO_NUMBA and "numba" in _PROBE_ERRORS:
        _WARNED_NO_NUMBA = True
        warnings.warn(
            "numba is not installed; backend='compiled' is using the bundled "
            "C kernel provider (install the [compiled] extra to use numba)",
            RuntimeWarning,
            stacklevel=2,
        )
    return ops


__all__ = [
    "PROVIDERS",
    "available",
    "provider_name",
    "require_ops",
    "reset_probe",
]
