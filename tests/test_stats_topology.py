"""Rank statistics aggregation."""

import pytest

from repro.cluster.stats import RankStats, RunStats


class TestRankStats:
    def test_merge_adds_fields(self):
        a = RankStats(compute_time=1.0, bytes_read=100)
        b = RankStats(compute_time=2.0, bytes_read=50, messages_sent=3)
        m = a.merge(b)
        assert m.compute_time == pytest.approx(3.0)
        assert m.bytes_read == 150
        assert m.messages_sent == 3

    def test_busy_time_excludes_idle(self):
        s = RankStats(compute_time=1.0, io_time=2.0, comm_time=3.0, idle_time=99.0)
        assert s.busy_time() == pytest.approx(6.0)

    def test_as_dict_roundtrip(self):
        s = RankStats(io_calls=7)
        assert s.as_dict()["io_calls"] == 7

    def test_run_total(self):
        run = RunStats(per_rank=[RankStats(bytes_read=10), RankStats(bytes_read=30)])
        assert run.total.bytes_read == 40

    def test_imbalance_perfect(self):
        run = RunStats(per_rank=[RankStats(io_time=2.0), RankStats(io_time=2.0)])
        assert run.imbalance("io_time") == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        run = RunStats(per_rank=[RankStats(io_time=3.0), RankStats(io_time=1.0)])
        assert run.imbalance("io_time") == pytest.approx(1.5)

    def test_imbalance_of_method_attr(self):
        run = RunStats(per_rank=[RankStats(compute_time=1.0), RankStats(io_time=1.0)])
        assert run.imbalance("busy_time") == pytest.approx(1.0)

    def test_imbalance_all_zero_is_one(self):
        run = RunStats(per_rank=[RankStats(), RankStats()])
        assert run.imbalance("io_time") == 1.0
