"""Closed-loop op execution with oracle checks and failure counting.

One caller issues library calls back to back.  Every op is timed around
the library call alone; its answer is then checked against an exact or
closed-form oracle outside the timed region.  A raised ComputationError
and a wrong answer both count as a failed op.  Any other exception is a
failed op too, and is flagged as unexpected because it points at a bug
rather than at a documented limit of the library.

Right before each op the runner times a fixed pure-Python loop.  The
reference machine is shared: identical work runs up to about 1.8 times
slower in phases of seconds to minutes, and the loop slows with it.  Its
time gives each op a speed factor, REFERENCE_LOOP_S / loop time, that
scales the op's time to the reference speed (see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

Note = Callable[[str, float], None]
Check = Callable[[object, Note], Optional[str]]
Corrupt = Callable[[object], object]

REFERENCE_LOOP = 10000
REFERENCE_LOOP_S = 0.55e-3  # the loop's time on an unloaded core of the reference machine


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop; it tracks the CPU's current speed."""
    start = time.perf_counter()
    sum(i * i for i in range(REFERENCE_LOOP))
    return time.perf_counter() - start


@dataclass
class OpRecord:
    kind: str
    label: str
    slot: int  # position within its pass; every pass repeats the same op in a slot
    seconds: float  # the library calls
    check_seconds: float  # the oracle check
    speed: float  # REFERENCE_LOOP_S / reference loop time just before the op
    error: Optional[str]  # None when the answer matched its oracle
    domain: bool  # False for inputs outside the range the library gets right today
    unexpected: bool  # raised something other than ComputationError


class Runner:
    def __init__(self, error_type: type):
        self.error_type = error_type
        self.tracer = None
        self.passes: List[List[OpRecord]] = [[]]
        self.quality: Dict[str, float] = {}
        # last passing answer of each op kind, kept for the corruption self-test
        self.samples: Dict[str, Tuple[object, Check, Corrupt]] = {}

    @property
    def records(self) -> List[OpRecord]:
        return [r for p in self.passes for r in p]

    def begin_pass(self) -> None:
        if self.passes[-1]:
            self.passes.append([])

    def note(self, name: str, value: float) -> None:
        """Keep the worst (largest) value of an accuracy figure."""
        self.quality[name] = max(self.quality.get(name, 0.0), float(value))

    def op(self, kind: str, label: str, fn: Callable[[], object], check: Check,
           corrupt: Corrupt, domain: bool = True):
        """Run one op; return its answer when it passed, else None."""
        current = self.passes[-1]
        op_id = f"{len(self.passes) - 1}.{len(current)}"
        tracer = self.tracer
        speed = REFERENCE_LOOP_S / reference_loop()
        if tracer is not None:
            tracer.op = op_id
        unexpected = False
        result = None
        start = time.perf_counter()
        try:
            result = fn()
            error = None
        except self.error_type as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # counted and reported; the run must go on
            error = f"{type(exc).__name__}: {exc}"
            unexpected = True
        seconds = time.perf_counter() - start
        if error is None:
            if tracer is not None:
                tracer.op = f"{op_id}:check"
            error = check(result, self.note)
            if error is None:
                self.samples[kind] = (result, check, corrupt)
        if tracer is not None:
            tracer.op = None
        check_seconds = time.perf_counter() - start - seconds
        current.append(OpRecord(kind, label, len(current), seconds, check_seconds, speed,
                                error, domain, unexpected))
        return result if error is None else None


def self_test(samples: Dict[str, Tuple[object, Check, Corrupt]], kinds, error_type) -> Dict[str, bool]:
    """Show that a corrupted answer counts as failed, for every op kind.

    Each kind's last good answer goes through a fresh Runner twice: as it
    is (must pass) and corrupted (must be counted as failed).  A kind with
    no good answer in the run cannot be tested and reports False.
    """
    report = {}
    for kind in kinds:
        if kind not in samples:
            report[kind] = False
            continue
        result, check, corrupt = samples[kind]
        fresh = Runner(error_type)
        fresh.op(kind, "selftest-good", lambda: result, check, corrupt)
        fresh.op(kind, "selftest-corrupt", lambda: corrupt(result), check, corrupt)
        report[kind] = [r.error is None for r in fresh.records] == [True, False]
    return report
