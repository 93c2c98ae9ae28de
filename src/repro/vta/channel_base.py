"""The OSSS Channel abstraction: word-oriented physical transport.

A channel moves serialised payloads between *masters* (RMI clients, memory
initiators) and its single medium.  The only operation behavioural code
reaches — through the RMI layer, never directly — is :meth:`transport`: a
blocking generator that consumes however much simulated time the physical
protocol needs (arbitration, address phases, data beats).

Concrete channels: :class:`~repro.vta.opb.OpbBus` (shared, arbitrated) and
:class:`~repro.vta.p2p.P2PChannel` (dedicated link).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..kernel import Event, Park, SimTime, Simulator
from ..core.arbiter import ArbitrationPolicy, Fcfs, Request


class MasterHandle:
    """Identity of one connected initiator."""

    __slots__ = ("master_id", "name", "priority")

    def __init__(self, master_id: int, name: str, priority: int):
        self.master_id = master_id
        self.name = name
        self.priority = priority

    def __repr__(self) -> str:
        return f"MasterHandle({self.master_id}, {self.name!r})"


class ChannelStats:
    """Traffic counters per channel, reported by the exploration runs."""

    def __init__(self):
        self.transactions = 0
        self.words = 0
        self.busy_fs = 0
        self.wait_fs = 0

    def as_dict(self) -> dict:
        """The counters as plain types, ready for tables and JSON."""
        return {
            "transactions": self.transactions,
            "words": self.words,
            "busy_fs": self.busy_fs,
            "wait_fs": self.wait_fs,
        }

    def utilisation(self, elapsed) -> float:
        """Fraction of *elapsed* the medium was occupied.

        *elapsed* is a :class:`~repro.kernel.time.SimTime` or a plain
        femtosecond count; zero elapsed reads as zero utilisation.
        """
        elapsed_fs = getattr(elapsed, "femtoseconds", elapsed)
        if not elapsed_fs:
            return 0.0
        return self.busy_fs / elapsed_fs

    def __repr__(self) -> str:
        return f"ChannelStats(transactions={self.transactions}, words={self.words})"


class _TransportRequest(Park):
    """A queued transfer; carries the arbitration-request interface
    (``client_id``/``priority``/``arrival_fs``/``seq``) so policies can
    rank it directly without a translation layer.

    In fast mode the requesting process parks on the request itself and
    the grant decision wakes it at burst completion; the reference path
    waits on the :attr:`granted` event instead.
    """

    __slots__ = (
        "master",
        "granted",
        "client_id",
        "priority",
        "arrival_fs",
        "seq",
        "words",
        "grant_fs",
    )

    def __init__(self, master: MasterHandle, seq: int, arrival_fs: int,
                 words: int = 0, granted: Optional[Event] = None):
        self.proc = None
        self.cancelled = False
        self.master = master
        self.granted = granted
        self.client_id = master.master_id
        self.priority = master.priority
        self.arrival_fs = arrival_fs
        self.seq = seq
        #: Fast mode: burst size and grant timestamp, so the grant decision
        #: can schedule the completion wake analytically.
        self.words = words
        self.grant_fs = 0


class OsssChannel:
    """Base class implementing a single shared transport medium.

    Subclasses set the protocol cost parameters; the arbitration and
    occupancy machinery lives here.  A point-to-point channel is simply a
    channel that refuses more than the fixed number of masters.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        word_bits: int,
        cycle: SimTime,
        arbitration_cycles: int,
        setup_cycles: int,
        cycles_per_word: float,
        policy: Optional[ArbitrationPolicy] = None,
        max_masters: Optional[int] = None,
        full_duplex: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.word_bits = word_bits
        self.cycle = cycle
        self.arbitration_cycles = arbitration_cycles
        self.setup_cycles = setup_cycles
        self.cycles_per_word = cycles_per_word
        self.policy = policy or Fcfs()
        self.max_masters = max_masters
        #: Full-duplex media (dedicated wire pairs) carry concurrent
        #: transfers without mutual exclusion; a shared bus serialises.
        self.full_duplex = full_duplex
        self.masters: list[MasterHandle] = []
        self.stats = ChannelStats()
        self._busy = False
        self._last_master: Optional[int] = None
        self._pending: list[_TransportRequest] = []
        self._state_changed = Event(sim, f"{name}.state_changed")
        self._seq = itertools.count()
        #: Fast mode replaces the always-on arbiter process with grant
        #: decisions scheduled as end-of-delta callbacks; requests posted
        #: within one evaluate phase still compete before anyone is granted.
        self._fast = bool(getattr(sim, "fast", False))
        self._decision_pending = False
        self._decision = sim._delta_call(self._decide)
        #: words -> (occupancy, occupancy+arbitration).  Protocol parameters
        #: are fixed before traffic starts, so transfer times are pure in the
        #: word count and transactions of a given size repeat constantly.
        self._time_cache: dict[int, tuple[SimTime, SimTime]] = {}
        self._arb_fs = cycle.femtoseconds * arbitration_cycles
        if self._fast:
            # Transport schedules decisions directly; the parked watcher
            # only exists so an *external* ``_state_changed`` notification
            # (not part of the transport protocol) still triggers one.
            sim.spawn(self._external_wakeup_loop(), name=f"{name}.arbiter")
        else:
            sim.spawn(self._arbiter_loop(), name=f"{name}.arbiter")

    # -- connection -------------------------------------------------------------

    def connect_master(self, name: str, priority: int = 0) -> MasterHandle:
        if self.max_masters is not None and len(self.masters) >= self.max_masters:
            raise RuntimeError(
                f"channel {self.name!r} accepts at most {self.max_masters} masters"
            )
        master = MasterHandle(len(self.masters), name, priority)
        self.masters.append(master)
        return master

    # -- transport ---------------------------------------------------------------

    def transfer_time(self, words: int) -> SimTime:
        """Pure occupancy time of a granted transaction of *words* words."""
        cycles = self.setup_cycles + self.cycles_per_word * words
        return SimTime.intern(round(self.cycle.femtoseconds * cycles))

    def _times(self, words: int) -> tuple[SimTime, SimTime]:
        """Memoised ``(occupancy, occupancy + arbitration)`` for *words*."""
        entry = self._time_cache.get(words)
        if entry is None:
            occupancy = self.transfer_time(words)
            total = SimTime.intern(self._arb_fs + occupancy._fs)
            entry = self._time_cache[words] = (occupancy, total)
        return entry

    def transport(self, master: MasterHandle, words: int):
        """Blocking transfer of *words* channel words; runs in caller process."""
        if words < 0:
            raise ValueError("word count must be non-negative")
        if self.full_duplex:
            occupancy = self._times(words)[0]
            if occupancy._fs:
                yield occupancy
            self.stats.transactions += 1
            self.stats.words += words
            self.stats.busy_fs += occupancy._fs
            tel = self.sim.telemetry
            if tel is not None:
                end_fs = self.sim._now_fs
                tel.complete(
                    "bus", self.name, master.name,
                    end_fs - occupancy._fs, end_fs,
                    {"master": master.name, "words": words, "wait_fs": 0},
                )
            return
        if self._fast:
            # Every request — even one finding the medium idle — waits for
            # the end-of-delta grant decision: a competing master stepping
            # later in the *same* delta cycle must still be able to win the
            # arbitration, exactly as it would against the reference
            # arbiter process (which only wakes after the delta completes).
            # The process parks on its request, and the grant decision
            # wakes it directly at the burst's *completion* time (grant +
            # arbitration + setup + data beats), so the whole transaction
            # costs one wake instead of a grant wake plus a completion
            # wake.  Timestamps and statistics match the reference chain;
            # contention still bites because later requests queue on
            # ``_pending`` until the release below.  One known exception:
            # the completion wake is queued two delta cycles before the
            # reference master queues its own, so when another process
            # queues a wake for the same instant in between, the two run
            # in the opposite order (pinned as an expected failure in
            # ``tests/property/test_vta_substrate_parity.py``).
            sim = self.sim
            wait_start_fs = sim._now_fs
            request = _TransportRequest(master, next(self._seq), wait_start_fs, words)
            self._pending.append(request)
            if not self._decision_pending:
                self._decision_pending = True
                sim._delta_queue.append(self._decision)
            yield request  # woken at completion, not at grant
            now_fs = sim._now_fs
            grant_fs = request.grant_fs
            stats = self.stats
            stats.wait_fs += grant_fs - wait_start_fs
            stats.transactions += 1
            stats.words += words
            stats.busy_fs += now_fs - grant_fs
            self._busy = False
            if self._pending:
                self._schedule_decision()
            tel = sim.telemetry
            if tel is not None:
                # Span = the granted occupancy (grant → completion), so the
                # per-channel span durations sum exactly to ``busy_fs``.
                tel.complete(
                    "bus", self.name, master.name, grant_fs, now_fs,
                    {"master": master.name, "words": words,
                     "wait_fs": grant_fs - wait_start_fs},
                )
            return
        # Reference path, kept verbatim for differential testing.
        request = _TransportRequest(
            master, next(self._seq), self.sim._now_fs,
            granted=Event(self.sim, f"bus_grant.{master.name}"),
        )
        self._pending.append(request)
        self._state_changed.notify(delta=True)
        wait_start_fs = self.sim._now_fs
        yield request.granted
        grant_fs = self.sim._now_fs
        self.stats.wait_fs += grant_fs - wait_start_fs
        occupancy = self.transfer_time(words)
        arbitration_fs = self.cycle.femtoseconds * self.arbitration_cycles
        total = SimTime.intern(arbitration_fs + occupancy.femtoseconds)
        if total:
            yield total
        self.stats.transactions += 1
        self.stats.words += words
        self.stats.busy_fs += total.femtoseconds
        self._busy = False
        self._state_changed.notify(delta=True)
        tel = self.sim.telemetry
        if tel is not None:
            tel.complete(
                "bus", self.name, master.name, grant_fs, self.sim._now_fs,
                {"master": master.name, "words": words,
                 "wait_fs": grant_fs - wait_start_fs},
            )

    # -- arbitration ---------------------------------------------------------------

    def _arbiter_loop(self):
        while True:
            granted = self._try_grant()
            if not granted:
                yield self._state_changed

    def _external_wakeup_loop(self):
        while True:
            yield self._state_changed
            self._schedule_decision()

    def _schedule_decision(self) -> None:
        """Fast mode: decide grants at the end of the current delta cycle.

        Deferring to the delta-notification phase means every request posted
        during this evaluate phase competes in the same decision, exactly as
        they would all be visible to the reference arbiter process woken by
        ``_state_changed``.  :meth:`transport` inlines this for each new
        request.
        """
        if not self._decision_pending:
            self._decision_pending = True
            self.sim._delta_queue.append(self._decision)

    def _decide(self) -> None:
        """Fast mode: the end-of-delta grant decision.

        Decisions run at the end of the delta cycle, where the reference
        arbiter's grant becomes visible too.  Rather than waking the
        master now only for it to park again for the burst duration, the
        decision wakes the parked master *at the burst's completion time*
        — a zero total wakes it in the next delta at the same timestamp,
        exactly like the reference grant.
        """
        self._decision_pending = False
        pending = self._pending
        if self._busy or not pending:
            return
        if len(pending) == 1 and self.policy.stateless:
            # Any stateless policy picks the only eligible request.
            chosen = pending[0]
            pending.clear()
        else:
            # _TransportRequest exposes the Request interface directly.
            chosen = self.policy.select(pending, self._last_master)
            pending.remove(chosen)
        self._busy = True
        self._last_master = chosen.client_id
        sim = self.sim
        now_fs = sim._now_fs
        chosen.grant_fs = now_fs
        sim._wake_parked(chosen, now_fs + self._times(chosen.words)[1]._fs)

    def _try_grant(self) -> bool:
        """Reference path, kept verbatim for differential testing: build
        explicit arbitration requests and map the choice back."""
        if self._busy or not self._pending:
            return False
        pending = self._pending
        requests = {
            id(req): Request(req.master.master_id, req.master.priority, req.arrival_fs, req.seq)
            for req in pending
        }
        chosen_request = self.policy.select(list(requests.values()), self._last_master)
        chosen = next(req for req in pending if requests[id(req)] is chosen_request)
        pending.remove(chosen)
        self._busy = True
        self._last_master = chosen.master.master_id
        chosen.granted.notify(delta=True)
        return True

    # -- reporting -----------------------------------------------------------------

    def utilisation(self, elapsed: SimTime) -> float:
        return self.stats.utilisation(elapsed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, masters={len(self.masters)})"
