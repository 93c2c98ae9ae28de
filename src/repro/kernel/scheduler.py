"""The discrete-event simulator: evaluate / update / notify phases.

The scheduling algorithm follows the SystemC reference semantics:

1. **Evaluate** — run every runnable process until it suspends.  Immediate
   notifications issued here make processes runnable within the same phase.
2. **Update** — apply pending primitive-channel updates (signals).
3. **Delta notification** — fire events notified with a delta delay; if any
   process became runnable, start a new delta cycle at the same time.
4. **Timed notification** — otherwise advance simulated time to the earliest
   pending timed notification and fire it.

Simulation ends when no runnable process and no pending notification remain,
or when an optional time limit is reached.

Fast paths
----------

The kernel carries two scheduling representations for the common wait
patterns, selected per :class:`Simulator` by the ``fast`` flag (default on,
overridable process-wide with :func:`set_default_fast`):

* ``yield SimTime(...)`` normally builds a throwaway :class:`Event`, routes
  it through the notification machinery and tears it down again.  The fast
  path instead parks the process directly on the timed heap (a
  :class:`_Wake` entry) — one heap entry, no Event, no subscribe /
  unsubscribe churn.
* ``yield park`` (a :class:`~repro.kernel.process.Park` request) suspends
  a process with nothing scheduled; the component holding the request
  resumes it later with :meth:`Simulator._wake_parked` at a time of its
  choosing.  The VTA bus grant uses this to park the requesting master
  straight on the timed heap at burst completion.
* components can post a reusable end-of-delta callback entry
  (:meth:`Simulator._delta_call`) onto the delta queue, which lets bus
  arbiters and Shared-Object schedulers run as end-of-delta callbacks
  instead of always-on processes.
* with no profiler and no telemetry attached, :meth:`Simulator.run` is one
  flat loop with the evaluate / update / delta / timed phases and the
  process step inlined (:meth:`Simulator._run_flat`).

Timed-heap entries are ``(at_fs, seq, entry)`` tuples, so heap ordering
compares integers in C rather than calling a Python ``__lt__``.

Both representations produce identical simulated timestamps and delta
counts for the visible behaviour; the reference (slow) mode is kept alive
so property tests can diff the two schedulers on random process graphs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from time import perf_counter
from typing import Callable, Optional

from .event import Event
from .process import Park, Process, ProcessBody, ProcessState, Timeout
from .time import SimTime, ZERO_TIME
from .. import telemetry as _telemetry

#: Process-level default for the per-simulator ``fast`` flag.
_DEFAULT_FAST = True


def set_default_fast(enabled: bool) -> bool:
    """Set the default ``fast`` mode of newly built simulators.

    Returns the previous default so callers (benchmark harnesses mainly)
    can restore it in a ``finally`` block.
    """
    global _DEFAULT_FAST
    previous = _DEFAULT_FAST
    _DEFAULT_FAST = bool(enabled)
    return previous


def default_fast() -> bool:
    """The current default of the ``fast`` flag."""
    return _DEFAULT_FAST


class SimulationError(RuntimeError):
    """A process raised, or the kernel detected an inconsistency."""


class ProcessError(SimulationError):
    """Wraps an exception escaping a process body."""

    def __init__(self, process: Process, cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class _Notify:
    """Delta-queue or timed-heap entry firing an event (lazily cancellable)."""

    __slots__ = ("event", "cancelled")

    def __init__(self, event: Event):
        self.event = event
        self.cancelled = False

    def fire(self) -> None:
        self.event._fire()


class _Wake:
    """Delta-queue or timed-heap entry waking one process directly."""

    __slots__ = ("proc", "cancelled")

    def __init__(self, proc: Process):
        self.proc = proc
        self.cancelled = False

    def fire(self) -> None:
        self.proc._wake_from_timer()


class _DeltaCall:
    """Reusable delta-queue entry running a component's callback.

    The owner allocates one per decision site and appends it to
    ``sim._delta_queue`` at most once per delta cycle; it is never
    cancelled.
    """

    __slots__ = ("fire",)
    cancelled = False

    def __init__(self, fn: Callable[[], None]):
        self.fire = fn


class Simulator:
    """Owns simulated time, the event queues, and all processes."""

    def __init__(self, fast: Optional[bool] = None):
        self._now_fs = 0
        self._now_cache: Optional[SimTime] = ZERO_TIME
        self._runnable: deque[Process] = deque()
        self._delta_queue: list = []
        #: Heap of ``(at_fs, seq, entry)``; *seq* breaks ties in FIFO order.
        self._timed_queue: list = []
        self._update_queue: list[Callable[[], None]] = []
        self._seq = itertools.count()
        self.processes: list[Process] = []
        self.delta_count = 0
        #: Raised process errors abort the run; kept for post-mortem access.
        self.failure: Optional[ProcessError] = None
        self._running = False
        #: Enables the kernel fast paths (direct timed process wakes,
        #: parked waits, delta callbacks and the flat run loop).  Components
        #: such as the VTA channels consult this flag to pick their own
        #: fast/reference scheduling.
        self.fast = _DEFAULT_FAST if fast is None else bool(fast)
        #: When set (see :class:`~repro.kernel.tracing.SimProfiler`), every
        #: process step is timed and attributed.
        self.profiler = None
        #: The telemetry recorder active at construction time, or ``None``.
        #: Components reach telemetry through this cached reference, so a
        #: disabled run costs one attribute read and a branch per site; the
        #: kernel loops below additionally hoist that check out of the hot
        #: path entirely.
        self.telemetry = _telemetry.active()
        if self.telemetry is not None:
            self.telemetry.bind_sim(self)

    # -- public API ----------------------------------------------------------

    @property
    def now(self) -> SimTime:
        cached = self._now_cache
        if cached is not None and cached._fs == self._now_fs:
            return cached
        cached = SimTime.from_fs(self._now_fs)
        self._now_cache = cached
        return cached

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    def spawn(self, body: ProcessBody, name: str = "process") -> Process:
        """Register a generator as a process, runnable at the current time."""
        proc = Process(self, body, name)
        self.processes.append(proc)
        self._runnable.append(proc)
        return proc

    def spawn_resettable(self, factory, name: str = "process") -> Process:
        """Spawn from a zero-argument generator factory; supports restart().

        This is the kernel hook behind reset semantics: asserting a reset
        re-creates the body from the factory and runs it from the top.
        """
        proc = Process(self, factory(), name, factory=factory)
        self.processes.append(proc)
        self._runnable.append(proc)
        return proc

    def run(self, until: Optional[SimTime] = None) -> SimTime:
        """Run until quiescence or *until* (inclusive); returns final time."""
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        limit_fs = until.femtoseconds if until is not None else None
        observing = (
            _telemetry.log_enabled()
            or _telemetry.flight_recorder() is not None
        )
        if observing:
            _telemetry.log_event(
                "kernel.run", processes=len(self.processes),
                from_fs=self._now_fs, until_fs=limit_fs,
            )
        try:
            if self.fast and self.profiler is None and self.telemetry is None:
                self._run_flat(limit_fs)
            else:
                self._run_phased(limit_fs)
        except BaseException as error:
            if observing:
                _telemetry.log_event(
                    "kernel.failed", error=type(error).__name__,
                    now_fs=self._now_fs,
                )
            raise
        finally:
            self._running = False
        if observing:
            _telemetry.log_event(
                "kernel.quiescent", now_fs=self._now_fs,
                deltas=self.delta_count,
            )
        return self.now

    def run_for(self, duration: SimTime) -> SimTime:
        """Run for at most *duration* beyond the current time."""
        return self.run(until=self.now + duration)

    # -- scheduler internals ---------------------------------------------------

    def _run_flat(self, limit_fs: Optional[int]) -> None:
        """The fast, uninstrumented run loop.

        Identical in order and delta count to :meth:`_run_phased`, with the
        phases, the process step (:meth:`Process._step`) and the common
        wait requests (:meth:`Process._suspend_on`) inlined; rarer requests
        fall back to the process methods.
        """
        runnable = self._runnable
        popleft = runnable.popleft
        make_runnable = runnable.append
        timed = self._timed_queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq = self._seq
        ready = ProcessState.READY
        waiting = ProcessState.WAITING
        simtime = SimTime
        event_type = Event
        timeout_type = Timeout
        while True:
            # Delta cycles at the current time point.
            while runnable or self._delta_queue or self._update_queue:
                self.delta_count += 1
                # Evaluate phase.
                while runnable:
                    proc = popleft()
                    if proc.state is not ready:
                        continue
                    try:
                        request = proc.body.send(None)
                    except StopIteration as stop:
                        proc._finish(stop.value)
                        continue
                    except Exception as exc:
                        proc._fail(exc)
                        break
                    proc.state = waiting
                    kind = type(request)
                    if kind is simtime:
                        delay_fs = request._fs
                        entry = _Wake(proc)
                        proc._timed_handle = entry
                        if delay_fs:
                            heappush(timed, (self._now_fs + delay_fs, next(seq), entry))
                        else:
                            self._delta_queue.append(entry)
                    elif kind is event_type:
                        proc._waiting_on = (request,)
                        request._waiting.append(proc)
                    elif isinstance(request, Park):
                        request.proc = proc
                        proc._timed_handle = request
                    elif kind is timeout_type:
                        event = request.event
                        proc._waiting_on = (event,)
                        event._waiting.append(proc)
                        delay_fs = request.delay._fs
                        entry = _Wake(proc)
                        proc._timed_handle = entry
                        if delay_fs:
                            heappush(timed, (self._now_fs + delay_fs, next(seq), entry))
                        else:
                            self._delta_queue.append(entry)
                    else:
                        try:
                            proc._suspend_on(request)
                        except Exception as exc:
                            proc.body.close()
                            proc._fail(exc)
                            break
                if self.failure is not None:
                    raise self.failure
                # Update phase.
                if self._update_queue:
                    updates, self._update_queue = self._update_queue, []
                    for update in updates:
                        update()
                # Delta-notification phase.
                if self._delta_queue:
                    deltas, self._delta_queue = self._delta_queue, []
                    for entry in deltas:
                        if entry.cancelled:
                            continue
                        if type(entry) is _Wake:
                            proc = entry.proc
                            if proc.state is waiting:
                                proc._timed_handle = None
                                if proc._waiting_on:
                                    # A zero-delay Timeout expired.
                                    for event in proc._waiting_on:
                                        event._unsubscribe(proc)
                                    proc._waiting_on = ()
                                proc.state = ready
                                make_runnable(proc)
                        else:
                            entry.fire()
            # Timed phase: advance to the earliest live entry.
            while timed and timed[0][2].cancelled:
                heappop(timed)
            if not timed:
                return
            now_fs = timed[0][0]
            if limit_fs is not None and now_fs > limit_fs:
                self._now_fs = limit_fs
                return
            self._now_fs = now_fs
            while timed and timed[0][0] == now_fs:
                entry = heappop(timed)[2]
                if entry.cancelled:
                    continue
                if type(entry) is _Wake:
                    proc = entry.proc
                    if proc.state is waiting:
                        proc._timed_handle = None
                        if proc._waiting_on:
                            # A Timeout wait expired: drop its subscription.
                            for event in proc._waiting_on:
                                event._unsubscribe(proc)
                            proc._waiting_on = ()
                        proc.state = ready
                        make_runnable(proc)
                else:
                    entry.fire()

    def _run_phased(self, limit_fs: Optional[int]) -> None:
        """The reference run loop, one method per scheduler phase.

        Runs every reference-mode simulator and every run with a profiler
        or telemetry attached.
        """
        while True:
            self._evaluate_and_update()
            if self.failure is not None:
                raise self.failure
            next_at = self._peek_timed()
            if next_at is None:
                return
            if limit_fs is not None and next_at > limit_fs:
                self._now_fs = limit_fs
                return
            self._now_fs = next_at
            self._fire_due_timed()

    def _evaluate_and_update(self) -> None:
        """One or more delta cycles at the current time point.

        Process steps are timed when a profiler is attached; the step and
        delta totals flush into the telemetry registry (when one is bound)
        once per time point, keeping the enabled overhead to one local int
        add per step.
        """
        runnable = self._runnable
        ready = ProcessState.READY
        steps = 0
        deltas_run = 0
        try:
            while runnable or self._delta_queue or self._update_queue:
                self.delta_count += 1
                deltas_run += 1
                # Evaluate phase.
                profiler = self.profiler
                if profiler is None:
                    while runnable:
                        proc = runnable.popleft()
                        if proc.state is ready:
                            proc._step()
                            steps += 1
                            if self.failure is not None:
                                return
                else:
                    while runnable:
                        proc = runnable.popleft()
                        if proc.state is ready:
                            started = perf_counter()
                            proc._step()
                            profiler._record(
                                proc, perf_counter() - started, self.delta_count
                            )
                            steps += 1
                            if self.failure is not None:
                                return
                # Update phase.
                if self._update_queue:
                    updates, self._update_queue = self._update_queue, []
                    for update in updates:
                        update()
                # Delta-notification phase.
                if self._delta_queue:
                    deltas, self._delta_queue = self._delta_queue, []
                    for entry in deltas:
                        if not entry.cancelled:
                            entry.fire()
        finally:
            tel = self.telemetry
            if tel is not None and deltas_run:
                metrics = tel.metrics
                metrics.count("kernel.delta_cycles", deltas_run)
                metrics.count("kernel.process_steps", steps)

    def _peek_timed(self) -> Optional[int]:
        queue = self._timed_queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        return queue[0][0]

    def _fire_due_timed(self) -> None:
        """Fire every entry due now — same-timestamp wakes are batched."""
        queue = self._timed_queue
        now_fs = self._now_fs
        pop = heapq.heappop
        fired = 0
        while queue and queue[0][0] == now_fs:
            entry = pop(queue)[2]
            if not entry.cancelled:
                entry.fire()
                fired += 1
        tel = self.telemetry
        if tel is not None and fired:
            tel.metrics.count("kernel.timer_pops", fired)

    # -- hooks used by Event / Process / primitive channels ---------------------

    def _trigger_now(self, event: Event) -> None:
        event._fire()

    def _schedule_delta(self, event: Event) -> _Notify:
        entry = _Notify(event)
        self._delta_queue.append(entry)
        return entry

    def _schedule_delta_wake(self, proc: Process) -> _Wake:
        """Fast path: wake *proc* in the next delta cycle (zero-delay wait)."""
        entry = _Wake(proc)
        self._delta_queue.append(entry)
        return entry

    def _delta_call(self, fn: Callable[[], None]) -> _DeltaCall:
        """A reusable entry running *fn* in a delta-notification phase.

        The owner posts it with ``sim._delta_queue.append(entry)``, at most
        once per delta cycle.  The callback then runs exactly where an
        always-on arbiter process woken by a delta-notified event would
        make its decision visible, so event-driven arbiters built on this
        hook reproduce the reference process-based timing without paying
        a process wake per decision.
        """
        return _DeltaCall(fn)

    def _schedule_timed(self, event: Event, at_fs: int) -> _Notify:
        entry = _Notify(event)
        heapq.heappush(self._timed_queue, (at_fs, next(self._seq), entry))
        return entry

    def _schedule_timed_wake(self, proc: Process, at_fs: int) -> _Wake:
        """Fast path: park *proc* directly on the timed heap (no Event)."""
        entry = _Wake(proc)
        heapq.heappush(self._timed_queue, (at_fs, next(self._seq), entry))
        return entry

    def _wake_parked(self, park: Park, at_fs: int) -> None:
        """Resume the process parked on *park* at *at_fs*.

        A wake at the current time lands in the next delta cycle, exactly
        where a delta notification would wake an event waiter; a later
        one goes straight onto the timed heap.  A park cancelled by
        :meth:`Process.kill` or :meth:`Process.restart` is ignored.
        """
        if park.cancelled:
            return
        proc = park.proc
        entry = _Wake(proc)
        proc._timed_handle = entry
        if at_fs == self._now_fs:
            self._delta_queue.append(entry)
        else:
            heapq.heappush(self._timed_queue, (at_fs, next(self._seq), entry))

    def _make_runnable(self, proc: Process) -> None:
        self._runnable.append(proc)

    def _request_update(self, update: Callable[[], None]) -> None:
        self._update_queue.append(update)

    def _process_finished(self, proc: Process) -> None:
        pass  # nothing to clean up; kept as an extension point

    def _process_failed(self, proc: Process, exc: BaseException) -> None:
        self.failure = ProcessError(proc, exc)

    # -- convenience -----------------------------------------------------------

    def wait_fs(self, duration_fs: int) -> SimTime:
        """Helper mainly for tests: a SimTime of *duration_fs* femtoseconds."""
        return SimTime.from_fs(duration_fs)

    def __repr__(self) -> str:
        return f"Simulator(now={self.now}, processes={len(self.processes)})"
