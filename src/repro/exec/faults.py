"""Deterministic fault injection for the sharded executor.

A :class:`FaultPlan` decides — as a pure function of a unit's content hash
and its submission number — whether an execution attempt should crash its
worker process, hang past the unit timeout, raise, or return a corrupted
record.  Because the decision is derived by hashing, the *same* plan makes
the *same* units fail in the *same* way in every process and on every run,
which is what lets the chaos suite assert that a sweep completed under
injected faults is bit-for-bit identical to a fault-free ``jobs=1`` run.

Faults fire only on submissions below :attr:`FaultPlan.max_faulted_submissions`
(default: the first), so a retried or requeued unit succeeds — the plan
models transient infrastructure failure, the normal case the retry layer
exists for.  Sticky failures are modelled by raising the threshold.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Optional

#: Fault kinds a plan can select, in threshold order.
FAULT_KINDS = ("crash", "hang", "error", "corrupt")


class FaultInjectionError(RuntimeError):
    """Raised by an ``"error"`` fault (and by process faults run in-process)."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic per-unit fault schedule, keyed off unit hashes.

    Attributes
    ----------
    crash_rate:
        Probability that an execution SIGKILLs its worker process mid-unit
        (the pool breaks; in-process execution raises
        :class:`FaultInjectionError` instead of killing the interpreter).
    hang_rate:
        Probability that an execution sleeps :attr:`hang_seconds` before
        running — long enough to trip a configured unit timeout.
    error_rate:
        Probability that an execution raises :class:`FaultInjectionError`.
    corrupt_rate:
        Probability that an execution completes but returns a truncated
        record (one trial dropped), which record validation must catch.
    hang_seconds:
        Sleep duration of a ``"hang"`` fault.  Keep it bounded: with no
        timeout configured a hung unit simply completes late.
    salt:
        Extra hash input so distinct plans fault distinct unit subsets.
    max_faulted_submissions:
        Submissions ``0 .. max_faulted_submissions-1`` of a unit are
        eligible to fault; later ones never do, so retries converge.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 30.0
    salt: int = 0
    max_faulted_submissions: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "error_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.crash_rate + self.hang_rate + self.error_rate + self.corrupt_rate
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")
        if self.max_faulted_submissions < 0:
            raise ValueError(
                f"max_faulted_submissions must be >= 0, got {self.max_faulted_submissions}"
            )

    def fault_for(self, token: str, submission: int) -> Optional[str]:
        """The fault kind for submission ``submission`` of unit ``token``.

        ``token`` is any stable identity of the unit (the executor passes the
        unit's content hash).  Returns one of :data:`FAULT_KINDS` or ``None``;
        the same arguments always return the same answer, in any process.
        """
        if submission >= self.max_faulted_submissions:
            return None
        digest = hashlib.sha256(
            f"{self.salt}:{token}:{submission}".encode("utf-8")
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        threshold = 0.0
        for kind, rate in zip(
            FAULT_KINDS,
            (self.crash_rate, self.hang_rate, self.error_rate, self.corrupt_rate),
        ):
            threshold += rate
            if u < threshold:
                return kind
        return None

    def apply(self, token: str, submission: int, in_worker: bool) -> Optional[str]:
        """Apply any pre-execution fault; return the kind that still applies.

        ``"crash"`` SIGKILLs the current process when ``in_worker`` (a pool
        worker, whose death the dispatcher recovers from) and raises
        :class:`FaultInjectionError` otherwise — in-process execution must
        degrade to an exception, never take the whole run down.  ``"hang"``
        sleeps and then lets execution proceed.  ``"error"`` raises.
        ``"corrupt"`` is returned to the caller, which corrupts the record
        *after* executing the unit.
        """
        fault = self.fault_for(token, submission)
        if fault == "crash":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise FaultInjectionError(
                f"injected crash (in-process) for unit {token} submission {submission}"
            )
        if fault == "hang":
            time.sleep(self.hang_seconds)
            return None
        if fault == "error":
            raise FaultInjectionError(
                f"injected error for unit {token} submission {submission}"
            )
        return fault


def corrupt_record(record: dict[str, Any]) -> dict[str, Any]:
    """A truncated copy of ``record``: the last entry of every trial-shaped
    list is dropped, so the record no longer matches its unit's trial count.

    This is the shape of real corruption the validation layer must catch —
    plausible JSON, wrong content — rather than something trivially broken.
    """
    mangled = dict(record)
    for name in ("values", "results", "trials"):
        if isinstance(mangled.get(name), list):
            mangled[name] = mangled[name][:-1]
    return mangled
