"""Differential property test: the fast VTA substrate against the reference.

Hypothesis draws small bus systems — 2 to 4 masters with priorities, an
arbitration policy, raw transfers of sizes including 0 and above the RMI
chunk size, and polled RMI clients calling a guarded, capacity-bounded
Shared Object over an OPB, plus one unpolled client on a P2P link.  The
same system runs under ``Simulator(fast=True)`` and ``fast=False``; every
observable must match: per-process completion times, channel statistics,
RMI call and poll counts, Shared Object statistics and the final time.
The bus keeps the OPB's arbitration and setup cycles, as every modelled
design does; the last test pins a known divergence on a bus without them.

The final time compared is the last completion.  The reference RMI poll
loop waits on ``AnyOf(grant, timer)`` with a fresh timer event per round;
when the grant wins, that timer stays notified and its expiry later
advances the reference ``run()`` result without waking anyone, whereas
the fast path's ``Timeout`` cancels its timer.  So the reference
``run()`` result may be later than the fast one, never earlier.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Fcfs,
    FunctionTask,
    RoundRobin,
    SharedObject,
    StaticPriority,
    guarded,
    osss_method,
)
from repro.core.serialisation import Serialisable
from repro.kernel import SimTime, Simulator, ns
from repro.vta import ObjectSocket, OpbBus, P2PChannel, RmiClient

CYCLE = ns(10)
CHUNK_WORDS = 8
POLICIES = {"fcfs": Fcfs, "round_robin": RoundRobin, "static_priority": StaticPriority}
#: A safety net only: balanced producers and consumers always finish.
HORIZON = SimTime(1, "s")


class Words(Serialisable):
    """A payload of a given number of 32-bit channel words."""

    def __init__(self, words: int):
        self.words = words

    def payload_bits(self) -> int:
        return self.words * 32


class BoundedBuffer:
    """A FIFO of payloads: ``put`` waits for space, ``get`` for data."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list = []

    @osss_method(guard=guarded(lambda self: len(self.items) < self.capacity),
                 eet=ns(30))
    def put(self, item):
        self.items.append(item)

    @osss_method(guard=guarded(lambda self: bool(self.items)), eet=ns(20))
    def get(self):
        return self.items.pop(0)


@st.composite
def systems(draw):
    """One bus system: masters, their roles and traffic, and the policies."""
    n_masters = draw(st.integers(2, 4))
    masters = []
    for index in range(n_masters):
        role = ("put", "get")[index] if index < 2 else draw(st.sampled_from(("put", "get")))
        masters.append({
            "role": role,
            "priority": draw(st.integers(0, 3)),
            "start_ns": draw(st.integers(0, 200)),
            "poll_ns": draw(st.sampled_from((50, 100, 400))),
            "raw_words": draw(st.lists(
                st.integers(0, 3 * CHUNK_WORDS), min_size=0, max_size=3)),
        })
    p2p_role = draw(st.sampled_from(("put", "get")))
    # Balance puts and gets so no polled client waits forever.
    roles = [master["role"] for master in masters] + [p2p_role]
    counts = [draw(st.integers(1, 3)) for _ in roles]
    puts = sum(count for role, count in zip(roles, counts) if role == "put")
    gets = sum(count for role, count in zip(roles, counts) if role == "get")
    short_role = "put" if puts < gets else "get"
    short = roles.index(short_role)
    counts[short] += abs(puts - gets)
    return {
        "masters": masters,
        "p2p_role": p2p_role,
        "counts": counts,
        "payload_words": draw(st.lists(
            st.integers(0, 3 * CHUNK_WORDS), min_size=1, max_size=4)),
        "bus_policy": draw(st.sampled_from(sorted(POLICIES))),
        "so_policy": draw(st.sampled_from(sorted(POLICIES))),
        "capacity": draw(st.integers(1, 2)),
        "grant_overhead_ns": draw(st.sampled_from((0, 10))),
    }


def simulate(system: dict, fast: bool, arbitration_cycles: int = 2,
             setup_cycles: int = 1) -> dict:
    """Run *system* on one substrate; the bus cycles default to the OPB's."""
    sim = Simulator(fast=fast)
    bus = OpbBus(
        sim, CYCLE, policy=POLICIES[system["bus_policy"]](),
        arbitration_cycles=arbitration_cycles, setup_cycles=setup_cycles,
    )
    link = P2PChannel(sim, CYCLE)
    shared = SharedObject(
        sim, "buffer", BoundedBuffer(system["capacity"]),
        policy=POLICIES[system["so_policy"]](),
        grant_overhead=ns(system["grant_overhead_ns"]),
    )
    socket = ObjectSocket(shared)
    payloads = system["payload_words"]
    finished: dict = {}
    clients: dict = {}

    def body(task, role, count, raw_handle, raw_words, start_ns):
        if start_ns:
            yield ns(start_ns)
        for step in range(count):
            if raw_handle is not None and step < len(raw_words):
                yield from bus.transport(raw_handle, raw_words[step])
            if role == "put":
                words = payloads[step % len(payloads)]
                yield from task.p.call("put", Words(words))
            else:
                yield from task.p.call("get")
        finished[task.name] = sim._now_fs

    def attach(name, channel, role, count, priority=0, poll_ns=None,
               raw_words=(), start_ns=0):
        client = RmiClient(
            channel, socket, name=f"{name}.rmi", chunk_words=CHUNK_WORDS,
            poll_interval=ns(poll_ns) if poll_ns else None,
        )
        raw_handle = (
            bus.connect_master(f"{name}.raw", priority) if raw_words else None
        )
        task = FunctionTask(sim, name, body, role, count, raw_handle,
                            list(raw_words), start_ns)
        task.p = task.port("p", priority=priority)
        task.p.bind(client)
        clients[name] = client
        task.start()

    counts = system["counts"]
    for index, master in enumerate(system["masters"]):
        attach(f"m{index}", bus, master["role"], counts[index],
               priority=master["priority"], poll_ns=master["poll_ns"],
               raw_words=master["raw_words"], start_ns=master["start_ns"])
    attach("p2p", link, system["p2p_role"], counts[-1])
    final = sim.run(until=HORIZON)
    stats = shared.stats
    return {
        "finished": finished,
        "bus": bus.stats.as_dict(),
        "p2p": link.stats.as_dict(),
        "rmi": {name: (client.calls, client.polls)
                for name, client in clients.items()},
        "shared": (stats.requests, stats.grants, stats.contended_grants,
                   stats.guard_blocked, stats.busy_fs),
        "final_fs": final.femtoseconds,
    }


def assert_substrates_agree(system: dict, **bus_cycles) -> None:
    fast = simulate(system, fast=True, **bus_cycles)
    reference = simulate(system, fast=False, **bus_cycles)
    assert fast["final_fs"] == max(fast["finished"].values())
    assert reference["final_fs"] >= fast["final_fs"]
    reference["final_fs"] = max(reference["finished"].values())
    assert fast == reference
    # Every task finished (balanced traffic), well inside the horizon.
    assert len(fast["finished"]) == len(system["masters"]) + 1
    assert fast["final_fs"] < HORIZON.femtoseconds
    assert fast["bus"]["transactions"] > 0


#: A chunked P2P transfer ends at the instant an OPB transfer does, and
#: both clients then request the Shared Object in that instant: the FCFS
#: tie goes to whichever process runs first, so the P2P chunks must be
#: timed one by one on both substrates (a single fast-forwarded wait
#: reached the heap earlier and ran first).
CHUNKED_P2P_TIE = {
    "masters": [
        {"role": "put", "priority": 0, "start_ns": 0, "poll_ns": 50,
         "raw_words": []},
        {"role": "get", "priority": 0, "start_ns": 1, "poll_ns": 400,
         "raw_words": []},
        {"role": "get", "priority": 0, "start_ns": 0, "poll_ns": 50,
         "raw_words": []},
    ],
    "p2p_role": "put",
    "counts": [1, 3, 1, 3],
    "payload_words": [16],
    "bus_policy": "fcfs",
    "so_policy": "fcfs",
    "capacity": 1,
    "grant_overhead_ns": 10,
}


@given(systems())
@example(CHUNKED_P2P_TIE)
@settings(max_examples=100, deadline=None)
def test_fast_substrate_matches_reference(system):
    assert_substrates_agree(system)


@pytest.mark.xfail(strict=True, reason=(
    "known divergence: the fast grant schedules the burst-completion wake "
    "two delta cycles before the reference master posts its completion "
    "wait, so a wake another process posts in between for the same "
    "instant runs after the bus master instead of before it, and an FCFS "
    "tie on the next request goes the other way"
))
def test_equal_instant_completion_order_on_a_zero_overhead_bus():
    """A bus with no arbitration or setup cycles lets a 1-word transfer end
    exactly when a Shared Object method does (20 ns); the two substrates
    then order the two wakes differently (m0 finishes at 180 ns fast,
    190 ns reference)."""
    system = {
        "masters": [
            {"role": "put", "priority": 0, "start_ns": 0, "poll_ns": 50,
             "raw_words": []},
            {"role": "get", "priority": 0, "start_ns": 0, "poll_ns": 50,
             "raw_words": []},
        ],
        "p2p_role": "put",
        "counts": [2, 3, 1],
        "payload_words": [0],
        "bus_policy": "fcfs",
        "so_policy": "fcfs",
        "capacity": 2,
        "grant_overhead_ns": 0,
    }
    assert_substrates_agree(system, arbitration_cycles=0, setup_cycles=0)
