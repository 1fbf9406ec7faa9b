"""Compiled step-loop backend: beyond-numpy hot kernels, bit-for-bit.

``backend="compiled"`` runs the batched replication loop with the per-step
hot kernels — mobility apply and component labelling, or, for the
``r_eff = 0`` processes, whole native blocks of steps — executed by a *compiled provider*
instead of interpreted numpy, while consuming the identical per-trial RNG streams (all
draws stay on the numpy generators; only the apply/labelling passes move).
Results are therefore bit-for-bit identical to the serial and batched
backends, which the property suites verify trial for trial.

Two providers, selected via ``REPRO_COMPILED_PROVIDER``:

* ``cc`` — bundled C kernels built once with the host C compiler and bound
  through ctypes (no third-party dependency), carrying the native
  multi-step block kinds;
* ``python`` — the uncompiled reference kernels (test-only; never selected
  automatically and deliberately *not* counted as "available").

``auto`` (the default) probes the C toolchain.  The probe result is cached
per process; :func:`available` never raises.  Setting
``REPRO_COMPILED_PROVIDER=none`` disables the backend outright (useful for
exercising the fallback path).  All kernels are single-threaded by
construction, so no thread-count pinning is needed for determinism.  The
block loop draws the next block on one helper thread while the kernel runs
the current one, where the process has a CPU to spare; each generator is
still drawn by one thread at a time, in block order, so no value changes
(:mod:`repro.compiled.driver`).

See ``docs/COMPILED.md`` for the kernel contract and how to add a kernel.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: Provider names accepted by ``REPRO_COMPILED_PROVIDER``.
PROVIDERS = ("auto", "cc", "python", "none")

_OPS: Optional[Any] = None
_PROBED = False
_PROBE_ERRORS: dict[str, str] = {}


def _provider_request() -> str:
    request = os.environ.get("REPRO_COMPILED_PROVIDER", "auto").strip().lower()
    if request not in PROVIDERS:
        raise ValueError(
            f"REPRO_COMPILED_PROVIDER must be one of {PROVIDERS}, got {request!r}"
        )
    return request


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
    if request in ("auto", "cc"):
        ops = _try_cc()
    elif request == "python":
        ops = _python_ops()
    # request == "none": stay unavailable.
    _OPS = ops
    _PROBED = True
    return ops


def reset_probe() -> None:
    """Forget the cached provider probe (tests re-probe after env changes)."""
    global _OPS, _PROBED
    _OPS = None
    _PROBED = False
    _PROBE_ERRORS.clear()


def available() -> bool:
    """Whether a compiled provider is usable on this host (never raises).

    This is the probe the ``"auto"`` backend resolution consults: ``True``
    when the bundled C kernels build (or when a specific working provider
    is pinned via ``REPRO_COMPILED_PROVIDER``).
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
    """The active provider, or a clear error explaining how to get one."""
    ops = _probe()
    if ops is None:
        detail = "; ".join(f"{name}: {err}" for name, err in _PROBE_ERRORS.items())
        raise RuntimeError(
            "backend='compiled' requested but no compiled provider is available "
            f"(REPRO_COMPILED_PROVIDER={_provider_request()}; the bundled C "
            "kernels need cc, gcc or clang and a writable REPRO_COMPILED_CACHE)"
            + (f" [{detail}]" if detail else "")
        )
    return ops


__all__ = [
    "PROVIDERS",
    "available",
    "provider_name",
    "require_ops",
    "reset_probe",
]
