"""Disk health: state machine, circuit breakers, and the scrubber."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.health import ClusterHealthMonitor, ShardHealth
from repro.health import Health
from repro.obs import Obs
from repro.server.cmserver import CMServer
from repro.server.faults import FaultInjector
from repro.server.health import (
    CircuitBreaker,
    DiskHealth,
    DiskHealthMonitor,
    HealthTransitionError,
    Scrubber,
)
from repro.storage.disk import DiskSpec


@pytest.fixture
def server(small_catalog):
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=8)
    return CMServer(small_catalog, [spec] * 4, bits=32, default_spec=spec)


class TestCircuitBreaker:
    def test_closed_allows_reads(self):
        breaker = CircuitBreaker(trip_after=3)
        assert not breaker.is_open
        assert breaker.allows(0)

    def test_trips_after_k_consecutive_failures(self):
        breaker = CircuitBreaker(trip_after=3)
        assert not breaker.record_failure(0)
        assert not breaker.record_failure(0)
        assert breaker.record_failure(0)  # third in a row trips
        assert breaker.is_open
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(trip_after=3)
        breaker.record_failure(0)
        breaker.record_failure(0)
        breaker.record_success()
        assert not breaker.record_failure(0)  # streak restarted
        assert not breaker.is_open

    def test_open_blocks_until_cooldown_elapses(self):
        breaker = CircuitBreaker(trip_after=1, cooldown_rounds=4)
        breaker.record_failure(10)
        for r in range(10, 14):
            assert not breaker.allows(r)
        assert breaker.allows(14)  # half-open probe

    def test_half_open_admits_one_probe_per_round(self):
        breaker = CircuitBreaker(trip_after=1, cooldown_rounds=1)
        breaker.record_failure(0)
        assert breaker.allows(1)
        assert not breaker.allows(1)  # second read same round: blocked
        breaker.new_round()
        assert breaker.allows(2)

    def test_failed_probe_doubles_cooldown_up_to_cap(self):
        breaker = CircuitBreaker(
            trip_after=1, cooldown_rounds=2, max_cooldown_rounds=4
        )
        breaker.record_failure(0)
        assert breaker.allows(2)
        assert breaker.record_failure(2)  # probe fails: re-open, cooldown 4
        assert not breaker.allows(5)
        assert breaker.allows(6)
        assert breaker.record_failure(6)  # cooldown capped at 4, not 8
        assert breaker.allows(10)

    def test_successful_probe_closes_and_resets_backoff(self):
        breaker = CircuitBreaker(trip_after=1, cooldown_rounds=2)
        breaker.record_failure(0)
        assert breaker.allows(2)
        breaker.record_success()
        assert not breaker.is_open
        breaker.record_failure(7)
        assert not breaker.allows(8)  # back to the base 2-round cooldown
        assert breaker.allows(9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(trip_after=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_rounds=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_rounds=8, max_cooldown_rounds=4)


class TestCircuitBreakerBackoffProperty:
    """Satellite: the capped-exponential cooldown law, under any probe
    outcome sequence — doubles per failed half-open probe, caps at
    ``max_cooldown_rounds``, resets to base on success."""

    @given(
        base=st.integers(1, 8),
        doublings=st.integers(0, 4),
        outcomes=st.lists(st.booleans(), min_size=1, max_size=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_cooldown_doubles_caps_and_resets(self, base, doublings, outcomes):
        max_cooldown = base * 2**doublings
        breaker = CircuitBreaker(
            trip_after=1,
            cooldown_rounds=base,
            max_cooldown_rounds=max_cooldown,
        )
        breaker.record_failure(0)
        assert breaker.current_cooldown == base
        expected = base
        round_index = 0
        for ok in outcomes:
            # The breaker blocks the whole cooldown, then admits exactly
            # one half-open probe.
            assert not breaker.allows(round_index + expected - 1)
            round_index += expected
            breaker.new_round()
            assert breaker.allows(round_index)
            if ok:
                breaker.record_success()
                assert not breaker.is_open
                assert breaker.current_cooldown == base
                # Re-trip so the next iteration starts from an open
                # breaker with the backoff freshly reset.
                breaker.record_failure(round_index)
                expected = base
            else:
                assert breaker.record_failure(round_index)
                expected = min(expected * 2, max_cooldown)
            assert breaker.is_open
            assert breaker.current_cooldown == expected
            assert breaker.current_cooldown <= max_cooldown


class TestDiskHealthMonitor:
    def test_disks_default_to_healthy(self, server):
        monitor = DiskHealthMonitor(server.array)
        for pid in server.array.physical_ids:
            assert monitor.state(pid) is DiskHealth.HEALTHY
            assert monitor.is_readable(pid, 0)

    def test_breaker_trip_demotes_to_suspect(self, server):
        monitor = DiskHealthMonitor(server.array, trip_after=2)
        pid = server.array.physical_at(0)
        monitor.observe_failure(pid, 0)
        assert monitor.state(pid) is DiskHealth.HEALTHY
        monitor.observe_failure(pid, 0)
        assert monitor.state(pid) is DiskHealth.SUSPECT
        assert not monitor.is_readable(pid, 1)  # cooling down

    def test_successful_probe_restores_healthy(self, server):
        monitor = DiskHealthMonitor(
            server.array, trip_after=1, cooldown_rounds=2
        )
        pid = server.array.physical_at(0)
        monitor.observe_failure(pid, 0)
        assert monitor.state(pid) is DiskHealth.SUSPECT
        assert monitor.is_readable(pid, 2)  # the half-open probe
        monitor.observe_success(pid)
        assert monitor.state(pid) is DiskHealth.HEALTHY
        assert monitor.is_readable(pid, 2)

    def test_dead_and_rebuilding_never_serve(self, server):
        monitor = DiskHealthMonitor(server.array)
        pid = server.array.physical_at(1)
        monitor.mark_dead(pid)
        assert not monitor.is_readable(pid, 0)
        monitor.begin_rebuild(pid)
        assert monitor.state(pid) is DiskHealth.REBUILDING
        assert not monitor.is_readable(pid, 0)

    def test_only_dead_disks_can_begin_rebuild(self, server):
        monitor = DiskHealthMonitor(server.array)
        pid = server.array.physical_at(0)
        with pytest.raises(HealthTransitionError):
            monitor.begin_rebuild(pid)

    def test_dead_disks_cannot_jump_to_healthy(self, server):
        monitor = DiskHealthMonitor(server.array)
        pid = server.array.physical_at(0)
        monitor.mark_dead(pid)
        with pytest.raises(HealthTransitionError):
            monitor.mark_healthy(pid)

    def test_snapshot_and_transition_log(self, server):
        monitor = DiskHealthMonitor(server.array)
        pid = server.array.physical_at(2)
        monitor.mark_dead(pid)
        monitor.begin_rebuild(pid)
        monitor.mark_healthy(pid)
        snap = monitor.snapshot()
        assert set(snap) == set(server.array.physical_ids)
        assert snap[pid] == "healthy"
        assert [(f.value, t.value) for p, f, t in monitor.transitions
                if p == pid] == [
            ("healthy", "dead"),
            ("dead", "rebuilding"),
            ("rebuilding", "healthy"),
        ]


class TestSharedStateMachine:
    """Disks and shards run one state machine (:mod:`repro.health`);
    only their event kinds, payload key and exit from rebuilding
    differ."""

    @staticmethod
    def build(layer, server, obs):
        # Either member's event label is 2: the disk's logical position,
        # the shard's stable id.
        if layer == "disk":
            monitor = DiskHealthMonitor(
                server.array, trip_after=2, cooldown_rounds=1, obs=obs
            )
            return monitor, server.array.physical_at(2), "", "disk"
        monitor = ClusterHealthMonitor(
            trip_after=2, cooldown_rounds=1, obs=obs
        )
        return monitor, 2, "cluster.", "shard"

    @pytest.mark.parametrize("layer", ["disk", "shard"])
    def test_one_transition_script(self, layer, server):
        obs = Obs()
        monitor, member, prefix, key = self.build(layer, server, obs)
        monitor.observe_failure(member, 0)
        monitor.observe_failure(member, 0)  # trips: suspect
        monitor.new_round()
        assert monitor.is_readable(member, 1)  # the half-open probe
        monitor.observe_success(member)  # recovers
        monitor.mark_dead(member)
        monitor.begin_rebuild(member)
        if layer == "disk":
            monitor.mark_healthy(member)  # the scrubber's edge
        else:
            with pytest.raises(HealthTransitionError):
                monitor.mark_healthy(member)
            monitor.forget(member)  # detached
        assert monitor.state(member) is Health.HEALTHY
        healthy, suspect, dead, rebuilding = Health
        log = [
            (healthy, suspect),
            (suspect, healthy),
            (healthy, dead),
            (dead, rebuilding),
        ]
        if layer == "disk":
            log.append((rebuilding, healthy))
        assert monitor.transitions == [(member, f, t) for f, t in log]

        def moved(old, new):
            return (prefix + "health.transition",
                    [(key, 2), ("old", old.value), ("new", new.value)])

        expected = [
            (prefix + "breaker.trip",
             [(key, 2), ("round", 0), ("trips", 1), ("cooldown", 1)]),
            moved(healthy, suspect),
            (prefix + "breaker.probe", [(key, 2), ("ok", True)]),
        ] + [moved(f, t) for f, t in log[1:]]
        assert [
            (event.kind, list(event.fields.items()))
            for event in obs.log.events
        ] == expected

    def test_both_layers_name_one_enum(self):
        assert DiskHealth is ShardHealth is Health


class TestScrubber:
    def test_rebuild_is_rate_bounded_and_promotes(self, server):
        monitor = DiskHealthMonitor(server.array)
        pid = server.array.physical_at(1)
        resident = len(server.array.blocks_on_physical(pid))
        assert resident > 0
        monitor.mark_dead(pid)
        monitor.begin_rebuild(pid)
        rate = max(1, resident // 4)
        scrubber = Scrubber(server.array, monitor, rate_per_round=rate)
        rounds = 0
        while monitor.state(pid) is DiskHealth.REBUILDING:
            report = scrubber.run_round(rounds)
            assert report.rebuilt_blocks + report.checked <= rate
            rounds += 1
            assert rounds < 100
        assert monitor.state(pid) is DiskHealth.HEALTHY
        assert scrubber.total_rebuilt == resident
        assert scrubber.rebuild_progress(pid) == 1.0
        # Promotion takes ceil(resident / rate) rounds: bounded, not instant.
        assert rounds == -(-resident // rate)

    def test_patrol_checks_and_repairs_divergence(self, server):
        monitor = DiskHealthMonitor(server.array)
        injector = FaultInjector(seed=7, scrub_divergence_rate=0.999999)
        repaired = []
        scrubber = Scrubber(
            server.array,
            monitor,
            rate_per_round=5,
            injector=injector,
            on_repair=repaired.append,
        )
        report = scrubber.run_round(0)
        assert report.checked == 5
        assert report.repaired == 5  # near-certain divergence: every check
        assert len(repaired) == 5
        assert scrubber.total_checked == scrubber.total_repaired == 5

    def test_patrol_walks_deterministically(self, server):
        def checked_blocks():
            monitor = DiskHealthMonitor(server.array)
            seen = []
            scrubber = Scrubber(
                server.array,
                monitor,
                rate_per_round=8,
                injector=FaultInjector(
                    seed=3, scrub_divergence_rate=0.999999
                ),
                on_repair=seen.append,
            )
            for r in range(4):
                scrubber.run_round(r)
            return seen

        assert checked_blocks() == checked_blocks()

    def test_rate_validation(self, server):
        monitor = DiskHealthMonitor(server.array)
        with pytest.raises(ValueError):
            Scrubber(server.array, monitor, rate_per_round=0)
