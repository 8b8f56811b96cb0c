"""Exception hierarchy for the discrete-event simulation kernel."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimError):
    """An event was triggered or scheduled in an invalid state."""


class DeadlockError(SimError):
    """run() was asked to reach a condition but the event heap drained first."""


class ProcessCrashed(SimError):
    """A simulation process terminated with an unhandled exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process_name: str, message: str = "") -> None:
        super().__init__(f"process {process_name!r} crashed{': ' + message if message else ''}")
        self.process_name = process_name


class FaultError(SimError):
    """Base class for injected-fault and fault-recovery failures."""


class GatewayCrashed(FaultError):
    """Thrown into processes of a node that an armed fault plan crashed.

    Crash-aware processes (channel listeners, forwarding workers) catch it
    and park/exit cleanly; everything else surfaces it as a process crash.
    """

    def __init__(self, node_name: str = "", message: str = "") -> None:
        detail = f": {message}" if message else ""
        super().__init__(f"node {node_name!r} crashed{detail}")
        self.node_name = node_name


class RetryExhausted(FaultError, TimeoutError):
    """A reliable transfer ran out of its retry budget.

    Carries enough context to diagnose which transfer died and how far it
    got; raised instead of hanging when the fabric keeps eating fragments.
    """

    def __init__(self, message: str, attempts: int = 0,
                 acked_fragments: int = 0, total_fragments: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.acked_fragments = acked_fragments
        self.total_fragments = total_fragments
