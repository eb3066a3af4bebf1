"""Round-trip tests for the stable on-disk schemas.

Each schema documented in ``docs/SCHEMAS.md`` must (a) write documents
that parse back equal through plain JSON, (b) carry its version tag,
and (c) actually be documented: the doc is part of the contract, so a
new schema tag without a SCHEMAS.md section fails here.
"""

import json
import pathlib

import pytest

from repro.analysis.runner import run_workload
from repro.common.errors import ConfigurationError
from repro.common.events import EventKind
from repro.machine.machine import Machine
from repro.obs.export import (
    SCHEMA,
    snapshot_document,
    snapshot_from_document,
    write_metrics_json,
)
from repro.obs.checkpoint import (
    CHECKPOINT_SCHEMA,
    capture_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.obs.forensics import (
    DUMP_SCHEMA,
    capture_bundle,
    load_bundle,
    write_bundle,
)
from repro.obs.history import HISTORY_SCHEMA, HistoryStore
from repro.obs.sampler import SamplingProfiler
from repro.obs.sink import (
    EVENTS_SCHEMA,
    JsonlSink,
    TelemetryStream,
    read_jsonl,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS_DOC = REPO_ROOT / "docs" / "SCHEMAS.md"


def _machine():
    return Machine(dram_size=8 * 1024 * 1024)


class TestMetricsSchemaRoundTrip:
    def test_write_parse_rebuild(self, tmp_path):
        machine = _machine()
        machine.clock.tick(500)
        machine.events.emit(EventKind.WATCH, address=0x40, size=64)
        snapshot = machine.metrics.snapshot()
        path = tmp_path / "metrics.json"
        write_metrics_json(path, snapshot,
                           meta={"workload": "gzip", "seed": 3})
        document = json.loads(path.read_text())
        assert document["schema"] == SCHEMA == "repro.metrics/v1"
        assert document["meta"] == {"workload": "gzip", "seed": 3}
        rebuilt = snapshot_from_document(document)
        assert rebuilt.cycle == snapshot.cycle
        assert rebuilt.values == snapshot.values
        assert rebuilt.kinds == snapshot.kinds
        # re-serializing the rebuilt snapshot is a fixpoint.
        again = snapshot_document(rebuilt)
        assert again["metrics"] == document["metrics"]
        assert again["kinds"] == document["kinds"]

    def test_reader_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            snapshot_from_document({"schema": "repro.metrics/v999"})


class TestEventsSchemaRoundTrip:
    def test_stream_writes_parse_back(self, tmp_path):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        path = tmp_path / "stream.jsonl"
        with TelemetryStream(JsonlSink(path), machine=machine,
                             sampler=sampler) as stream:
            stream.mark(0, marker="start", workload="gzip")
            machine.clock.tick(100)
            sampler.sample_now()
            machine.events.emit(EventKind.LEAK_REPORT, address=0x40,
                                size=48)
            stream.mark(machine.clock.cycles, marker="finish")
        records = read_jsonl(path)
        assert [r["type"] for r in records] == \
            ["run", "sample", "event", "run"]
        for record in records:
            assert record["schema"] == EVENTS_SCHEMA == \
                "repro.events/v1"
            assert {"schema", "type", "cycle"} <= set(record)
            # exactly one payload key, named after the type.
            payload_keys = set(record) - {"schema", "type", "cycle"}
            assert payload_keys == {record["type"]}
        event = records[2]["event"]
        assert event["kind"] == "leak_report"
        assert event["address"] == 0x40


class TestDumpSchemaRoundTrip:
    def test_bundle_round_trips_through_disk(self, tmp_path):
        result = run_workload("gzip", "safemem", requests=5, seed=1)
        bundle = capture_bundle(
            result.machine, monitor=result.monitor,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 1})
        assert bundle["schema"] == DUMP_SCHEMA == "repro.dump/v1"
        path = write_bundle(bundle, tmp_path / "x.dump.json")
        loaded = load_bundle(path)
        assert loaded == json.loads(json.dumps(bundle))
        # the embedded metrics document is itself a valid
        # repro.metrics/v1 reader input.
        embedded = snapshot_from_document(loaded["metrics"])
        assert embedded.cycle == bundle["cycle"]


class TestCheckpointSchemaRoundTrip:
    def test_checkpoint_round_trips_through_disk(self, tmp_path):
        result = run_workload("gzip", "safemem", requests=5, seed=1)
        checkpoint = capture_checkpoint(
            result.machine, monitor=result.monitor,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 1},
            request_index=5)
        assert checkpoint["schema"] == CHECKPOINT_SCHEMA == \
            "repro.checkpoint/v1"
        path = write_checkpoint(checkpoint, tmp_path / "x.ckpt.json")
        loaded = load_checkpoint(path)
        assert loaded == json.loads(json.dumps(checkpoint))

    def test_reader_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "repro.dump/v1"}))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)


class TestHistorySchemaRoundTrip:
    def test_history_round_trips_through_json(self):
        store = HistoryStore()
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        for _ in range(7):
            machine.clock.tick(250)
            store.observe(sampler.sample_now())
        document = json.loads(json.dumps(store.to_dict()))
        assert document["schema"] == HISTORY_SCHEMA == \
            "repro.history/v1"
        assert HistoryStore.from_dict(document).to_dict() == document

    def test_reader_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            HistoryStore.from_dict({"schema": "repro.metrics/v1"})


class TestSchemasAreDocumented:
    def test_every_schema_tag_has_a_doc_section(self):
        text = SCHEMAS_DOC.read_text()
        for tag in (SCHEMA, EVENTS_SCHEMA, DUMP_SCHEMA,
                    CHECKPOINT_SCHEMA, HISTORY_SCHEMA):
            assert f"`{tag}`" in text, \
                f"{tag} is not documented in docs/SCHEMAS.md"

    def test_doc_states_the_versioning_policy(self):
        text = SCHEMAS_DOC.read_text()
        assert "## Versioning policy" in text
        assert "bump the major" in text
