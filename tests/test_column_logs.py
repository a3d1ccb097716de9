"""The store and region logs: records kept as one column per field."""

import json

import pytest

from repro.engine.batched import run_cohort
from repro.orchestrator.points import make_point
from repro.pipeline.stats import (
    Columns,
    CoreStats,
    RegionLog,
    RegionRecord,
    StoreLog,
    StoreRecord,
)

INF = float("inf")


def _store(i, durable=INF):
    return StoreRecord(seq=3 * i, pc=4 * i, addr=64 * i + 8,
                       line_addr=64 * i, value=2 ** 64 - 1 - i,
                       data_preg=i % 7, data_cls=i % 2,
                       commit_time=float(i), region_id=i // 2,
                       durable_at=durable)


def _region(i, cause="prf"):
    return RegionRecord(region_id=i, start_seq=10 * i, end_seq=10 * i + 10,
                        store_count=i % 3, boundary_time=5.0 * i,
                        drain_wait=0.5 * i, cause=cause)


RECORDS = [_store(0), _store(1, 7.5), _store(2, float("-inf")),
           _store(3, -0.0)]
REGIONS = [_region(0), _region(1, "csq"), _region(2, "end")]
# Their to_dict rows: field order, non-finite durable_at as strings.
STORE_ROWS = [[0, 0, 8, 0, 2 ** 64 - 1, 0, 0, 0.0, 0, "inf"],
              [3, 4, 72, 64, 2 ** 64 - 2, 1, 1, 1.0, 0, 7.5],
              [6, 8, 136, 128, 2 ** 64 - 3, 2, 0, 2.0, 1, "-inf"],
              [9, 12, 200, 192, 2 ** 64 - 4, 3, 1, 3.0, 1, -0.0]]
REGION_ROWS = [[0, 0, 10, 0, 0.0, 0.0, "prf"],
               [1, 10, 20, 1, 5.0, 0.5, "csq"],
               [2, 20, 30, 2, 10.0, 1.0, "end"]]
ROWS = {StoreLog: STORE_ROWS, RegionLog: REGION_ROWS}


@pytest.mark.parametrize("kind,records", [(StoreLog, RECORDS),
                                          (RegionLog, REGIONS)])
class TestLogSequence:
    def test_len_iteration_and_indexing(self, kind, records):
        log = kind.of(records)
        assert len(log) == len(records)
        assert list(log) == records
        assert [log[i] for i in range(len(records))] == records
        assert log[-1] == records[-1]
        assert log[1:3] == records[1:3]
        assert log[::-1] == records[::-1]
        with pytest.raises(IndexError):
            log[len(records)]

    def test_append_and_extend(self, kind, records):
        log = kind()
        for record in records:
            log.append(record)
        assert log == kind.of(records) == records
        log.extend(kind.of(records))
        log.extend(iter(records))
        assert list(log) == records * 3
        log.extend(log)
        assert len(log) == 6 * len(records)

    def test_records_are_copies(self, kind, records):
        log = kind.of(records)
        record = log[0]
        setattr(record, kind.fields[-1], "changed")
        assert log[0] == records[0]

    def test_equality(self, kind, records):
        log = kind.of(records)
        assert log == kind.of(list(records))
        assert log != kind.of(records[:-1])
        assert log == records and records == log
        assert log != records[:-1]
        assert kind.of(records) != object()

    def test_columns_by_field_name(self, kind, records):
        log = kind.of(records)
        for name, column in zip(kind.fields, log.columns):
            assert getattr(log, name) is column
            assert column == [getattr(r, name) for r in records]
        assert isinstance(log.columns, Columns)

    def test_rows_are_the_records_rows(self, kind, records):
        rows = kind.of(records).rows()
        assert json.dumps(rows) == json.dumps(ROWS[kind])
        assert kind.from_json(rows) == records
        assert kind.from_json([]) == kind() == []

    def test_wrong_column_count_is_refused(self, kind, records):
        with pytest.raises(ValueError, match="columns"):
            kind([[]])


class TestCoreStatsDict:
    def test_to_dict_is_byte_identical_to_the_record_list_form(self):
        as_lists = CoreStats(name="x", scheme="ppa", stores=list(RECORDS),
                             regions=list(REGIONS),
                             commit_times=[1.0, 2.5])
        as_logs = CoreStats(name="x", scheme="ppa",
                            stores=StoreLog.of(RECORDS),
                            regions=RegionLog.of(REGIONS))
        as_logs.commit_times.extend([1.0, 2.5])
        want = json.dumps({**as_lists.to_dict(), "regions": REGION_ROWS,
                           "stores": STORE_ROWS})
        assert json.dumps(as_logs.to_dict()) == want
        assert json.dumps(as_lists.to_dict()) == want
        again = CoreStats.from_dict(json.loads(want))
        assert json.dumps(again.to_dict()) == want

    def test_region_properties_read_columns(self):
        stats = CoreStats(regions=RegionLog.of(REGIONS), cycles=100.0)
        assert stats.region_end_stall_cycles == sum(
            r.drain_wait for r in REGIONS)
        assert stats.mean_region_instrs == 10.0
        assert stats.mean_region_stores == 1.0


class TestSiblingLanes:
    """Lanes of one cohort share their lane-invariant store columns."""

    @pytest.fixture
    def lanes(self, untraced_unsanitized):
        config = make_point("rb", "ppa").config
        points = [make_point("rb", "ppa", length=1_500,
                             config=config.with_prf(i, f))
                  for i, f in ((180, 168), (120, 112), (90, 90))]
        stats = [lane.stats for lane in run_cohort(points)]
        assert stats[0].stores.seq is stats[1].stores.seq
        return stats

    def test_merge_leaves_the_other_lanes_unchanged(self, lanes):
        a, b, c = lanes
        before = [json.dumps(s.to_dict()) for s in (b, c)]
        stores = len(a.stores)
        a.merge(b)
        a.stores.append(a.stores[0])
        a.regions.extend(c.regions)
        assert len(a.stores) == 2 * stores + 1
        assert [json.dumps(s.to_dict()) for s in (b, c)] == before
