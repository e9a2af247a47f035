"""Vectorized-scheduler parity: batched round planning is bit-identical
to the scalar reference loop.

The scalar paths in :mod:`repro.server.scheduler` are the semantic
oracle; these property tests pin the vectorized planner against them
over randomized stream sets, backends, fault schedules, disk health
states, and protection schemes — comparing :class:`RoundReport`
sequences, the per-stream hiccup ledger, the planner's cumulative
:class:`ReadStats`, final stream states, and the seeded obs event
sequence (``deterministic_view``).

Physical disk ids come from a process-global counter, so two identical
stacks built in one process label the same logical disk differently;
comparisons normalize dict keys to logical indices first.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Obs
from repro.server.cmserver import CMServer
from repro.server.faults import FaultInjector
from repro.server.reads import build_degraded_stack
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog

BITS = 32
BACKENDS = ("scaddar", "jump_hash", "consistent_hash", "directory")


def normalized_report(report, array):
    """Report fields with physical-id dict keys mapped to logical order."""
    logical = {pid: i for i, pid in enumerate(array.physical_ids)}
    fields = dict(report.__dict__)
    for key in ("load_by_physical", "spare_by_physical", "health_by_physical"):
        fields[key] = {
            logical.get(pid, -1): value for pid, value in fields[key].items()
        }
    return fields


def normalized_stats(stats, array):
    """ReadStats fields with per-primary counters keyed logically."""
    logical = {pid: i for i, pid in enumerate(array.physical_ids)}
    fields = dict(stats.__dict__)
    for key in ("hiccups_by_primary", "failovers_by_primary"):
        fields[key] = {
            logical.get(pid, -1): value
            for pid, value in dict(fields[key]).items()
        }
    return fields


def stream_snapshot(scheduler):
    return [
        (s.stream_id, s.position, s.state, s.blocks_consumed, s.stall_rounds)
        for s in scheduler.streams
    ]


@st.composite
def serving_scenarios(draw):
    """A randomized serving workload shared by both scheduler variants."""
    seed = draw(st.integers(0, 2**20))
    n_disks = draw(st.integers(3, 8))
    bandwidth = draw(st.integers(1, 4))
    n_objects = draw(st.integers(2, 4))
    blocks_per_object = draw(st.integers(30, 60))
    streams = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_objects - 1),  # object
                st.integers(0, 20),  # start block
                st.integers(1, 3),  # blocks per round
            ),
            min_size=1,
            max_size=12,
        )
    )
    rounds = draw(st.integers(1, 10))
    return {
        "seed": seed,
        "n_disks": n_disks,
        "bandwidth": bandwidth,
        "n_objects": n_objects,
        "blocks_per_object": blocks_per_object,
        "streams": streams,
        "rounds": rounds,
    }


def make_server(scenario, backend):
    catalog = uniform_catalog(
        scenario["n_objects"],
        scenario["blocks_per_object"],
        master_seed=scenario["seed"],
        bits=BITS,
    )
    specs = [
        DiskSpec(
            capacity_blocks=5000,
            bandwidth_blocks_per_round=scenario["bandwidth"],
        )
    ] * scenario["n_disks"]
    return CMServer(catalog, specs, bits=BITS, backend=backend)


def admit_streams(scheduler, catalog, scenario):
    from dataclasses import replace

    for sid, (obj, start, rate) in enumerate(scenario["streams"]):
        media = catalog.get(obj)
        stream = Stream(
            sid,
            replace(media, blocks_per_round=rate),
            start_block=min(start, media.num_blocks - 1),
        )
        try:
            scheduler.admit(stream)
        except ValueError:
            pass  # admission denied: same decision both variants


#: Eight reads a round over eight one-read disks: some disk is
#: over-subscribed every round, beside disks that are not.
OVERSUBSCRIBED = {
    "seed": 7, "n_disks": 8, "bandwidth": 1, "n_objects": 3,
    "blocks_per_object": 40, "streams": [(0, 0, 3), (1, 4, 3), (2, 9, 2)],
    "rounds": 4,
}
#: Three reads a round against four-read disks: no disk can miss.
UNDERSUBSCRIBED = {
    "seed": 7, "n_disks": 4, "bandwidth": 4, "n_objects": 2,
    "blocks_per_object": 40, "streams": [(0, 0, 1), (1, 3, 1), (0, 12, 1)],
    "rounds": 4,
}
#: Rates 1 and 2 in one round on ten-block objects.  Round 0 mixes
#: one- and two-block windows (the repeat expansion); in round 1 the
#: rate-2 stream at block 7 wants only the object's last block, so every
#: demanding row wants one (the one-block gather, a rate-2 row included).
MIXED_RATES = {
    "seed": 11, "n_disks": 3, "bandwidth": 2, "n_objects": 3,
    "blocks_per_object": 10,
    "streams": [(0, 0, 1), (1, 7, 2), (2, 8, 2), (0, 5, 1)],
    "rounds": 6,
}
#: Every stream at rate 1, six reads a round on three two-read disks:
#: the one-block gather, feeding the settle pass whenever placement puts
#: three reads on one disk.
UNIT_RATES = {
    "seed": 3, "n_disks": 3, "bandwidth": 2, "n_objects": 3,
    "blocks_per_object": 30,
    "streams": [(0, 0, 1), (1, 4, 1), (2, 9, 1), (0, 14, 1), (1, 20, 1),
                (2, 25, 1)],
    "rounds": 8,
}


class TestSimplePathParity:
    @given(scenario=serving_scenarios(), backend=st.sampled_from(BACKENDS))
    @example(scenario=OVERSUBSCRIBED, backend="scaddar")
    @example(scenario=UNDERSUBSCRIBED, backend="scaddar")
    @example(scenario=MIXED_RATES, backend="scaddar")
    @example(scenario=UNIT_RATES, backend="jump_hash")
    @settings(max_examples=40, deadline=None)
    def test_reports_and_streams_match(self, scenario, backend):
        results = []
        for vectorized in (False, True):
            server = make_server(scenario, backend)
            locator = (
                server.computed_batch_locator() if vectorized else None
            )
            scheduler = RoundScheduler(
                server.array,
                locator=server.computed_locator(),
                vectorized=vectorized,
                batch_locator=locator,
            )
            admit_streams(scheduler, server.catalog, scenario)
            reports = scheduler.run_rounds(scenario["rounds"])
            results.append(
                (
                    [normalized_report(r, server.array) for r in reports],
                    dict(scheduler.hiccups_by_stream),
                    scheduler.total_hiccups,
                    stream_snapshot(scheduler),
                )
            )
        assert results[0] == results[1]

    @given(scenario=serving_scenarios())
    @example(scenario=OVERSUBSCRIBED)
    @example(scenario=UNDERSUBSCRIBED)
    @example(scenario=MIXED_RATES)
    @example(scenario=UNIT_RATES)
    @settings(max_examples=20, deadline=None)
    def test_inventory_locator_matches(self, scenario):
        """Default (inventory home_of) locator: sequential batch wrapper."""
        results = []
        for vectorized in (False, True):
            server = make_server(scenario, "scaddar")
            scheduler = RoundScheduler(server.array, vectorized=vectorized)
            admit_streams(scheduler, server.catalog, scenario)
            reports = scheduler.run_rounds(scenario["rounds"])
            results.append(
                (
                    [normalized_report(r, server.array) for r in reports],
                    dict(scheduler.hiccups_by_stream),
                    stream_snapshot(scheduler),
                )
            )
        assert results[0] == results[1]


@st.composite
def degraded_scenarios(draw):
    scenario = draw(serving_scenarios())
    scenario["protection"] = draw(
        st.sampled_from(("mirror", "parity", None))
    )
    scenario["dead_disks"] = draw(
        st.sets(st.integers(0, scenario["n_disks"] - 1), max_size=2)
    )
    scenario["tripped_disks"] = draw(
        st.sets(st.integers(0, scenario["n_disks"] - 1), max_size=2)
    )
    scenario["fault_rates"] = draw(
        st.sampled_from(
            (
                None,  # healthy hybrid path (the vectorized fast lane)
                (0.0, 0.0, 0.0),  # injector attached but silent
                (0.3, 0.0, 0.0),  # transient read errors
                (0.15, 0.1, 0.02),  # errors + slow reads + divergence
            )
        )
    )
    return scenario


class TestDegradedPathParity:
    @given(scenario=degraded_scenarios(), backend=st.sampled_from(BACKENDS))
    @settings(max_examples=40, deadline=None)
    def test_full_stack_matches(self, scenario, backend):
        # Mirror/parity protection needs the SCADDAR mapper arithmetic,
        # and parity groups (k = 4) need at least k + 1 disks.
        protection = scenario["protection"] if backend == "scaddar" else None
        if protection == "parity" and scenario["n_disks"] < 5:
            protection = "mirror"
        results = []
        for vectorized in (False, True):
            server = make_server(scenario, backend)
            obs = Obs()
            rates = scenario["fault_rates"]
            injector = (
                None
                if rates is None
                else FaultInjector(
                    seed=scenario["seed"],
                    read_error_rate=rates[0],
                    read_slow_rate=rates[1],
                    scrub_divergence_rate=rates[2],
                )
            )
            stack = build_degraded_stack(
                server,
                injector=injector,
                protection=protection,
                obs=obs,
                vectorized=vectorized,
            )
            table = server.array.physical_ids
            for logical in sorted(scenario["dead_disks"]):
                stack.monitor.mark_dead(table[logical])
            for logical in sorted(scenario["tripped_disks"]):
                for _ in range(3):
                    stack.monitor.observe_failure(table[logical], 0)
            admit_streams(stack.scheduler, server.catalog, scenario)
            reports = stack.scheduler.run_rounds(scenario["rounds"])
            results.append(
                (
                    [normalized_report(r, server.array) for r in reports],
                    dict(stack.scheduler.hiccups_by_stream),
                    stack.scheduler.total_hiccups,
                    normalized_stats(stack.planner.stats, server.array),
                    stream_snapshot(stack.scheduler),
                    obs.log.deterministic_view(),
                )
            )
        assert results[0] == results[1]

    @given(scenario=degraded_scenarios())
    @settings(max_examples=20, deadline=None)
    def test_backend_locator_matches(self, scenario):
        """The computed (backend-kernel) locator path, SCADDAR only."""
        protection = scenario["protection"]
        if protection == "parity" and scenario["n_disks"] < 5:
            protection = "mirror"
        results = []
        for vectorized in (False, True):
            server = make_server(scenario, "scaddar")
            obs = Obs()
            stack = build_degraded_stack(
                server,
                protection=protection,
                obs=obs,
                vectorized=vectorized,
                locator="backend",
            )
            table = server.array.physical_ids
            for logical in sorted(scenario["dead_disks"]):
                stack.monitor.mark_dead(table[logical])
            admit_streams(stack.scheduler, server.catalog, scenario)
            reports = stack.scheduler.run_rounds(scenario["rounds"])
            results.append(
                (
                    [normalized_report(r, server.array) for r in reports],
                    normalized_stats(stack.planner.stats, server.array),
                    obs.log.deterministic_view(),
                )
            )
        assert results[0] == results[1]


@st.composite
def churn_scenarios(draw):
    """A serving workload plus an interleaved sequence of stream
    operations and rounds (each op's integer picks its target)."""
    scenario = draw(serving_scenarios())
    scenario["ops"] = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("admit", "admit", "admit", "depart", "depart", "seek",
                     "pause", "resume", "round", "round")
                ),
                st.integers(0, 2**16),
            ),
            min_size=10,
            max_size=60,
        )
    )
    scenario["degraded"] = draw(st.booleans())
    scenario["dead_disks"] = draw(
        st.sets(st.integers(0, scenario["n_disks"] - 1), max_size=1)
    )
    return scenario


def run_churn(scenario, vectorized):
    """Drive one scheduler through the scenario's ops; returns what the
    two variants must agree on."""
    from dataclasses import replace

    from repro.server.admission import AdmissionRefusedError

    server = make_server(scenario, "scaddar")
    if scenario["degraded"]:
        stack = build_degraded_stack(
            server, protection="mirror", obs=Obs(), vectorized=vectorized
        )
        table = server.array.physical_ids
        for logical in sorted(scenario["dead_disks"]):
            stack.monitor.mark_dead(table[logical])
        scheduler = stack.scheduler
    else:
        scheduler = RoundScheduler(
            server.array,
            locator=server.computed_locator(),
            vectorized=vectorized,
            batch_locator=(
                server.computed_batch_locator() if vectorized else None
            ),
        )
    handles = {}
    trace = []
    for op, pick in scenario["ops"]:
        if op == "admit":
            obj, start, rate = scenario["streams"][pick % len(scenario["streams"])]
            media = replace(server.catalog.get(obj), blocks_per_round=rate)
            stream = Stream(
                len(handles), media, start_block=min(start, media.num_blocks - 1)
            )
            handles[stream.stream_id] = stream
            try:
                scheduler.admit(stream)
            except AdmissionRefusedError:
                trace.append("refused")
            continue
        if op == "round":
            trace.append(
                normalized_report(scheduler.run_round(), server.array)
            )
            continue
        live = [s.stream_id for s in scheduler.streams]
        if not live:
            continue
        stream = handles[live[pick % len(live)]]
        if op == "depart":
            assert scheduler.depart(stream.stream_id) is stream
        elif op == "seek":
            stream.seek(pick % stream.media.num_blocks)
        elif op == "pause":
            stream.pause()
        else:
            stream.resume()
        trace.append(scheduler.active_demand)
    return (
        trace,
        dict(scheduler.hiccups_by_stream),
        [
            (sid, s.position, s.state, s.stall_rounds, s.blocks_consumed)
            for sid, s in sorted(handles.items())
        ],
        [s.stream_id for s in scheduler.streams],
    )


class TestChurnParity:
    """Admit/depart/seek/pause/resume interleaved with rounds, on both
    serving paths, with the stream table compacting as it goes: the
    vectorized rounds equal the scalar oracle, and every handle —
    admitted or departed — ends with the same values."""

    @given(scenario=churn_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_churn_matches_scalar(self, scenario):
        from unittest import mock

        from repro.server.streams import StreamTable

        # Compact after two vacant rows, so short sequences cross it.
        with mock.patch.object(StreamTable, "MIN_COMPACT", 2):
            scalar = run_churn(scenario, vectorized=False)
            vectorized = run_churn(scenario, vectorized=True)
        assert scalar == vectorized
        # Rows keep admission order: the live ids ascend.
        assert vectorized[3] == sorted(vectorized[3])
