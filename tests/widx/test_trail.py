"""Tests for walker-trail capture: the recorder and the offload wiring."""

from repro.config import DEFAULT_CONFIG
from repro.obs import Trail
from repro.widx.offload import offload_probe
from repro.widx.trail import TrailRecorder
from tests.conftest import build_direct_index, materialized_probe_column


class TestRecorder:
    def test_start_hop_commit_lands_in_the_ring(self):
        recorder = TrailRecorder(Trail(capacity=4))
        recorder.start("walker0", [7], 10.0)
        recorder.hop("walker0", 0x1000, "L1", 12.0)
        recorder.hop("walker0", 0x2000, "DRAM", 20.0)
        recorder.commit("walker0", 25.0)
        entry = recorder.trail.entries[0]
        assert entry["walker"] == "walker0"
        assert entry["key"] == [7]
        assert entry["start"] == 10.0 and entry["end"] == 25.0
        assert entry["hops"] == [[12.0, 0x1000, "L1"], [20.0, 0x2000, "DRAM"]]
        assert recorder.open_walkers == []

    def test_interleaved_walkers_keep_separate_open_entries(self):
        recorder = TrailRecorder(Trail(capacity=4))
        recorder.start("walker0", [1], 0.0)
        recorder.start("walker1", [2], 1.0)
        recorder.hop("walker0", 0xA, "L1", 2.0)
        recorder.hop("walker1", 0xB, "LLC", 3.0)
        recorder.commit("walker1", 4.0)
        recorder.commit("walker0", 5.0)
        walkers = [e["walker"] for e in recorder.trail.entries]
        assert walkers == ["walker1", "walker0"]  # commit order
        assert recorder.trail.entries[1]["hops"] == [[2.0, 0xA, "L1"]]

    def test_hop_for_unknown_walker_is_ignored(self):
        recorder = TrailRecorder(Trail(capacity=4))
        recorder.hop("dispatcher", 0x1000, "L1", 1.0)  # never started
        recorder.commit("dispatcher", 2.0)
        assert len(recorder.trail) == 0

    def test_hops_past_max_hops_are_counted_in_the_entry(self):
        recorder = TrailRecorder(Trail(capacity=4, max_hops=2))
        recorder.start("walker0", [1], 0.0)
        for i in range(5):
            recorder.hop("walker0", 0x1000 + i, "L1", float(i))
        recorder.commit("walker0", 10.0)
        entry = recorder.trail.entries[0]
        assert len(entry["hops"]) == 2
        assert entry["dropped"] == 3
        assert recorder.trail.dropped_hops == 3

    def test_abort_all_commits_partial_trails(self):
        recorder = TrailRecorder(Trail(capacity=4))
        recorder.start("walker1", [2], 0.0)
        recorder.start("walker0", [1], 0.0)
        recorder.hop("walker0", 0x1000, "L1", 1.0)
        recorder.abort_all(9.0)
        assert recorder.open_walkers == []
        assert len(recorder.trail) == 2
        assert all(e["end"] == 9.0 for e in recorder.trail.entries)


class TestOffloadCapture:
    def run_probe(self, space, trail=None, probes=60, walkers=2):
        index, keys, _truth = build_direct_index(space, num_keys=400)
        column = materialized_probe_column(space, keys, count=probes)
        config = DEFAULT_CONFIG.with_widx(mode="shared", num_walkers=walkers)
        return offload_probe(index, column, config=config, probes=probes,
                             trail=trail)

    def test_trails_capture_real_traversals(self, space):
        trail = Trail(capacity=1024)
        outcome = self.run_probe(space, trail=trail)
        # Every probe's invocation committed one trail.
        assert trail.recorded == 60
        walkers = {e["walker"] for e in trail.entries}
        assert walkers <= {"walker0", "walker1"}
        assert len(walkers) == 2  # both walkers served requests
        levels = {level for e in trail.entries
                  for _ts, _addr, level in e["hops"]}
        assert levels <= {"L1", "LLC", "DRAM"}
        assert levels  # traversals actually touched memory
        for entry in trail.entries:
            assert entry["start"] <= entry["end"]
            hops = entry["hops"]
            assert all(hops[i][0] <= hops[i + 1][0]
                       for i in range(len(hops) - 1))
        assert "widx.trails" in outcome.stats
        assert outcome.stats["widx.trails"]["recorded"] == 60

    def test_ring_bound_holds_under_offload(self, space):
        trail = Trail(capacity=16)
        self.run_probe(space, trail=trail, probes=60)
        assert len(trail) == 16
        assert trail.recorded == 60
        assert trail.dropped_entries == 44

    def test_disabled_capture_has_no_footprint(self, space):
        outcome = self.run_probe(space, trail=None)
        assert "widx.trails" not in outcome.stats

    def test_capture_does_not_change_simulated_results(self):
        from repro.mem.layout import AddressSpace

        plain = self.run_probe(AddressSpace(), trail=None)
        traced = self.run_probe(AddressSpace(), trail=Trail(capacity=64))
        assert traced.run.total_cycles == plain.run.total_cycles
        assert traced.run.matches == plain.run.matches
        assert traced.payloads == plain.payloads
