"""Deterministic discrete-event simulation kernel (clock in microseconds).

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process` — the event loop and
  generator-based processes (:mod:`repro.sim.engine`);
* :class:`Semaphore`, :class:`Mutex`, :class:`Queue`, :class:`Barrier` —
  FIFO synchronization (:mod:`repro.sim.sync`);
* :class:`FluidNetwork`, :class:`FluidResource`, :class:`FluidPath`,
  :class:`Flow` — fluid-flow bandwidth sharing with priority arbitration
  (:mod:`repro.sim.fluid`);
* :class:`TraceRecorder` — simulated-time instrumentation
  (:mod:`repro.sim.trace`).
"""

from .engine import (AllOf, AnyOf, Event, Process, Simulator, Timeout,
                     PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT)
from .errors import (DeadlockError, FaultError, GatewayCrashed, ProcessCrashed,
                     RetryExhausted, SchedulingError, SimError)
from .fluid import DMA, PIO, Flow, FluidNetwork, FluidPath, FluidResource
from .sync import Barrier, Mutex, Queue, Semaphore
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "AllOf", "AnyOf", "Event", "Process", "Simulator", "Timeout",
    "PRIORITY_LATE", "PRIORITY_NORMAL", "PRIORITY_URGENT",
    "DeadlockError", "FaultError", "GatewayCrashed", "ProcessCrashed",
    "RetryExhausted", "SchedulingError", "SimError",
    "DMA", "PIO", "Flow", "FluidNetwork", "FluidPath", "FluidResource",
    "Barrier", "Mutex", "Queue", "Semaphore",
    "TraceRecord", "TraceRecorder",
]
