"""Tests for the tiered metric history (``repro.history/v1``).

Covers bucket alignment and min/max/sum/count folding, bounded memory
(raw-ring and bucket-ring eviction with counted evictions), the
bit-exact ``to_dict``/``from_dict`` round trip, the fleet merge
(aligned-bucket combination, raw-ring truncation, order independence,
associativity through re-merge, tier-layout rejection), document
validation, the renderer, and the ``repro history`` / ``--emit-history``
CLI surface.
"""

import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.obs.history import (
    DEFAULT_RAW_CAPACITY,
    DEFAULT_SERIES,
    DEFAULT_TIERS,
    HISTORY_SCHEMA,
    HistoryStore,
    check_history_document,
    merge_history_documents,
    render_history,
)
from repro.obs.sampler import Sample


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_sample(cycle, value, name="heap.live_bytes", index=0):
    return Sample(index=index, cycle=cycle, metrics={name: value},
                  spans=[], groups=[], overhead_fraction=0.0)


def small_store(**overrides):
    kwargs = {"series": ("heap.live_bytes",),
              "tiers": ((100, 4), (1000, 2)),
              "raw_capacity": 3}
    kwargs.update(overrides)
    return HistoryStore(**kwargs)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TestRecording:
    def test_bucket_alignment_and_folding(self):
        store = small_store()
        store.observe(make_sample(10, 5.0))
        store.observe(make_sample(60, 9.0))   # same 100-cycle bucket
        store.observe(make_sample(130, 2.0))  # next bucket
        doc = store.to_dict()
        tier0 = doc["series"]["heap.live_bytes"]["tiers"][0]
        assert tier0 == [[0, 5.0, 9.0, 14.0, 2], [100, 2.0, 2.0, 2.0, 1]]
        # the wide tier folds all three into one 1000-cycle bucket.
        tier1 = doc["series"]["heap.live_bytes"]["tiers"][1]
        assert tier1 == [[0, 2.0, 9.0, 16.0, 3]]
        assert doc["observations"] == 3

    def test_mean_is_derived_not_stored(self):
        store = small_store()
        store.observe(make_sample(0, 1.0))
        store.observe(make_sample(1, 2.0))
        bucket = store.to_dict()["series"]["heap.live_bytes"]["tiers"][0][0]
        start, mn, mx, total, count = bucket
        assert total / count == 1.5  # reader derives the mean

    def test_missing_metric_records_nothing(self):
        store = small_store()
        store.observe(make_sample(0, 7.0, name="other.metric"))
        doc = store.to_dict()
        assert doc["series"]["heap.live_bytes"]["raw"] == []
        assert doc["observations"] == 1  # the sample itself counted

    def test_raw_ring_bounded_with_counted_evictions(self):
        store = small_store()
        for i in range(5):
            store.observe(make_sample(i * 10, float(i)))
        doc = store.to_dict()
        assert doc["series"]["heap.live_bytes"]["raw"] == \
            [[20, 2.0], [30, 3.0], [40, 4.0]]
        assert store.raw_evicted == 2

    def test_bucket_rings_bounded_with_counted_evictions(self):
        store = small_store()
        for i in range(6):  # six distinct 100-cycle buckets
            store.observe(make_sample(i * 100, float(i)))
        doc = store.to_dict()
        tier0 = doc["series"]["heap.live_bytes"]["tiers"][0]
        assert [bucket[0] for bucket in tier0] == [200, 300, 400, 500]
        assert store.buckets_evicted == 2

    def test_memory_stays_bounded_forever(self):
        store = small_store()
        for i in range(2000):
            store.observe(make_sample(i * 37, float(i)))
        doc = store.to_dict()
        record = doc["series"]["heap.live_bytes"]
        assert len(record["raw"]) == 3
        assert [len(tier) for tier in record["tiers"]] == [4, 2]
        assert doc["observations"] == 2000

    def test_defaults(self):
        store = HistoryStore()
        assert store.series == DEFAULT_SERIES
        assert store.tiers == DEFAULT_TIERS
        assert store.raw_capacity == DEFAULT_RAW_CAPACITY


class TestValidation:
    def test_rejects_empty_tiers(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            HistoryStore(tiers=())

    def test_rejects_non_widening_tiers(self):
        with pytest.raises(ConfigurationError, match="widen"):
            HistoryStore(tiers=((1000, 4), (100, 4)))

    def test_rejects_bad_capacities(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            HistoryStore(tiers=((100, 0),))
        with pytest.raises(ConfigurationError, match="raw_capacity"):
            HistoryStore(raw_capacity=0)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_to_dict_from_dict_bit_exact(self):
        store = small_store()
        for i in range(17):
            store.observe(make_sample(i * 73, float(i * i)))
        doc = json.loads(json.dumps(store.to_dict()))
        rebuilt = HistoryStore.from_dict(doc)
        assert rebuilt.to_dict() == doc
        # the rebuilt store keeps recording seamlessly.
        rebuilt.observe(make_sample(10_000, 1.0))
        assert rebuilt.observations == store.observations + 1

    def test_schema_tag(self):
        assert small_store().to_dict()["schema"] == HISTORY_SCHEMA \
            == "repro.history/v1"

    def test_check_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="repro.dump/v1"):
            check_history_document({"schema": "repro.dump/v1"})

    def test_check_rejects_missing_keys(self):
        with pytest.raises(ConfigurationError, match="tiers"):
            check_history_document({"schema": HISTORY_SCHEMA})

    def test_from_dict_rejects_foreign_document(self):
        with pytest.raises(ConfigurationError):
            HistoryStore.from_dict({"schema": "nope/v1"})


# ----------------------------------------------------------------------
# merging (fleet)
# ----------------------------------------------------------------------
class TestMerge:
    def _fed_store(self, cycles_values):
        store = small_store()
        for cycle, value in cycles_values:
            store.observe(make_sample(cycle, value))
        return store

    def test_merge_equals_single_store_over_union(self):
        even = self._fed_store((i * 20, float(i)) for i in range(0, 6, 2))
        odd = self._fed_store((i * 20, float(i)) for i in range(1, 6, 2))
        union = self._fed_store((i * 20, float(i)) for i in range(6))
        merged = merge_history_documents([even.to_dict(), odd.to_dict()])
        assert merged["series"] == union.to_dict()["series"]
        assert merged["observations"] == 6

    def test_merge_is_order_independent(self):
        a = self._fed_store([(0, 1.0), (50, 2.0)]).to_dict()
        b = self._fed_store([(120, 3.0)]).to_dict()
        assert merge_history_documents([a, b]) == \
            merge_history_documents([b, a])

    def test_merge_is_associative_through_remerge(self):
        a = self._fed_store([(0, 1.0)]).to_dict()
        b = self._fed_store([(110, 2.0)]).to_dict()
        c = self._fed_store([(220, 3.0)]).to_dict()
        assert merge_history_documents(
            [merge_history_documents([a, b]), c]) == \
            merge_history_documents([a, b, c])

    def test_merge_truncates_raw_to_capacity(self):
        a = self._fed_store([(0, 1.0), (10, 2.0), (20, 3.0)]).to_dict()
        b = self._fed_store([(5, 9.0), (30, 4.0)]).to_dict()
        merged = merge_history_documents([a, b])
        # five candidate points, capacity 3: the newest win.
        assert merged["series"]["heap.live_bytes"]["raw"] == \
            [[10, 2.0], [20, 3.0], [30, 4.0]]

    def test_merge_combines_aligned_buckets_exactly(self):
        a = self._fed_store([(10, 4.0)]).to_dict()
        b = self._fed_store([(90, 8.0)]).to_dict()  # same bucket @0
        merged = merge_history_documents([a, b])
        tier0 = merged["series"]["heap.live_bytes"]["tiers"][0]
        assert tier0 == [[0, 4.0, 8.0, 12.0, 2]]

    def test_merge_rejects_mismatched_layouts(self):
        a = small_store().to_dict()
        b = small_store(tiers=((100, 4), (2000, 2))).to_dict()
        with pytest.raises(ConfigurationError, match="disagree"):
            merge_history_documents([a, b])

    def test_merge_rejects_empty_input(self):
        with pytest.raises(ConfigurationError, match="no history"):
            merge_history_documents([])

    def test_merge_unions_series_names(self):
        a = small_store().to_dict()
        b = small_store(series=("safemem.watch.armed",)).to_dict()
        merged = merge_history_documents([a, b])
        assert sorted(merged["series"]) == \
            ["heap.live_bytes", "safemem.watch.armed"]


# ----------------------------------------------------------------------
# rendering + CLI
# ----------------------------------------------------------------------
class TestRenderAndCli:
    def test_render_summarizes_tiers(self):
        store = small_store()
        store.observe(make_sample(10, 5.0))
        text = render_history(store.to_dict())
        assert HISTORY_SCHEMA in text
        assert "series heap.live_bytes: 1 raw points" in text
        assert "100c x4" in text

    def test_render_unknown_series_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no series"):
            render_history(small_store().to_dict(), series="nope")

    def test_emit_history_then_history_command(self, tmp_path):
        emitted = tmp_path / "hist.json"
        code, output = run_cli(
            "run", "gzip", "--requests", "8",
            "--sample-every", "50000", "--history",
            "--emit-history", str(emitted))
        assert code == 0
        assert "history:" in output
        document = json.loads(emitted.read_text())
        assert document["schema"] == HISTORY_SCHEMA

        code, output = run_cli("history", str(emitted))
        assert code == 0
        assert "history document" in output

        code, output = run_cli("history", str(emitted),
                               "--series", "heap.live_bytes")
        assert code == 0
        assert "heap.live_bytes" in output
        assert "sampler.overhead_fraction" not in output

    def test_history_command_merges_multiple_documents(self, tmp_path):
        paths = []
        for index in range(2):
            store = HistoryStore()
            store.observe(make_sample(100 + index, float(index)))
            path = tmp_path / f"h{index}.json"
            path.write_text(json.dumps(store.to_dict()))
            paths.append(str(path))
        merged_out = tmp_path / "merged.json"
        code, output = run_cli("history", *paths,
                               "--emit", str(merged_out))
        assert code == 0
        assert "merged 2 documents" in output
        merged = json.loads(merged_out.read_text())
        assert merged["observations"] == 2

    def test_history_command_rejects_non_history_documents(
            self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(
            {"schema": "repro.metrics/v1", "metrics": {}, "kinds": {},
             "generated": {"cycle": 0, "since_cycle": None}}))
        code, _ = run_cli("history", str(path))
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("repro: error: ")
        assert "is a metrics document" in error

    def test_emit_history_requires_history_flag(self, capsys):
        code, _ = run_cli("run", "gzip", "--requests", "2",
                          "--sample-every", "50000",
                          "--emit-history", "nowhere.json")
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("repro: error: ")
        assert "--history" in error

    def test_inspect_dispatches_history_documents(self, tmp_path):
        store = small_store()
        store.observe(make_sample(10, 5.0))
        path = tmp_path / "h.json"
        path.write_text(json.dumps(store.to_dict()))
        code, output = run_cli("inspect", str(path))
        assert code == 0
        assert "history document" in output

    def test_zero_count_bucket_is_a_named_error(self, tmp_path, capsys):
        # A bucket's mean is sum / count: a count of 0 must stop at the
        # schema check, not divide by zero in the renderer.
        document = HistoryStore().to_dict()
        document["series"]["heap.live_bytes"]["tiers"][0].append(
            [0, 1, 1, 1, 0])
        path = str(tmp_path / "h.json")
        pathlib.Path(path).write_text(json.dumps(document))
        for command in (("history", path), ("inspect", path),
                        ("history", path, path)):
            code, _ = run_cli(*command)
            assert code == 2, command
            error = capsys.readouterr().err
            assert error.startswith("repro: error: ")
            assert error.count("\n") == 1
            assert "item 4 must be a positive integer, got 0" in error
