"""Tests for checkpoint/restore (``repro.checkpoint/v1``).

Covers the differential contract the whole feature hangs on -- run to
N requests, checkpoint, resume to M equals a straight run to M in
events, metrics, ALERT/TREND cycles, and verdict -- plus the two
checkpoint shapes (an image checkpoint holds only its recipe and its
state image, which restore alone verifies and ``repro inspect``
derives the sections from; any other capture carries the sections and
replays), the observation-only invariant, the request-boundary
scheduler arithmetic (due multiples, the checkpoint cap, skip
counting), section-by-section verification (``compare_checkpoints``),
detector-state durability (sampler ring, alert state machines, trend
windows/accumulators, a hysteresis latch mid-breach at the checkpoint
cycle), the ``load_checkpoint``/``load_document`` schema and
unreadable-file errors, and the ``repro resume`` / ``repro inspect``
CLI surface.
"""

import base64
import copy
import io
import json
import re

import pytest

from repro.analysis.fleet import run_fleet
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.obs import checkpoint as checkpoint_module
from repro.obs import snapshot as snapshot_module
from repro.obs import state as state_module
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.checkpoint import (
    CHECKPOINT_SCHEMA,
    DEFAULT_MAX_CHECKPOINTS,
    SECTIONS,
    VERIFIED_SECTIONS,
    CheckpointScheduler,
    capture_checkpoint,
    compare_checkpoints,
    load_checkpoint,
    render_checkpoint_summary,
    resume_checkpoint,
    with_sections,
    write_checkpoint,
)
from repro.obs.export import snapshot_document
from repro.obs.forensics import (
    capture_bundle,
    load_bundle,
    load_document,
    replay_bundle,
)
from repro.obs.sampler import Sample, SamplingProfiler
from repro.obs.snapshot import event_to_dict
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.obs.state import encode_image, unpack_image
from repro.obs.trend import DETECTORS, TrendEngine

SAMPLE_EVERY = 50_000


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_with_stack(requests, checkpoint_every=None, checkpoint_dir=None,
                   workload="ypserv1", buggy=True, sections=None,
                   **settings):
    """One monitored run under the full stack; returns (stack, result).

    ``settings`` override the stack defaults (profiler, theil-sen
    trend analytics, history).  ``sections``, a list, receives an
    image-free capture of the live run (``capture_checkpoint`` without
    its ground truth, as loaded from disk) at each boundary the
    scheduler checkpoints."""
    settings = {"sample_every": SAMPLE_EVERY, "trend": "theil-sen",
                "history": True, **settings}
    config = MonitorStackConfig(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=(str(checkpoint_dir)
                        if checkpoint_dir is not None else None),
        **settings,
    )
    run_info = {"workload": workload, "monitor": "safemem",
                "buggy": buggy, "requests": requests, "seed": 0}
    stack = build_monitor_stack(config, run_info=run_info)

    def hook(index, truth):
        if stack.request_hook(index, truth) is not None:
            sections.append(json.loads(json.dumps(capture_checkpoint(
                stack.machine, monitor=stack.monitor,
                run_info=stack.scheduler.run_info, request_index=index,
                sampler=stack.sampler, engine=stack.engine,
                trend=stack.trend, history=stack.history))))

    try:
        result = stack.run(request_hook=hook if sections is not None
                           else None)
    finally:
        stack.close()
    return stack, result


def make_sample(index, cycle, heap):
    return Sample(index=index, cycle=cycle,
                  metrics={"heap.live_bytes": heap,
                           "safemem.watch.armed": 0.0},
                  spans=[], groups=[], overhead_fraction=0.0)


# ----------------------------------------------------------------------
# the differential contract
# ----------------------------------------------------------------------
class TestDifferentialContract:
    """run-to-N -> checkpoint -> resume-to-M == straight run to M."""

    N, M = 40, 60

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpts")
        straight_stack, straight = run_with_stack(self.M)
        short_stack, _short = run_with_stack(
            self.N, checkpoint_every=10_000_000, checkpoint_dir=tmp)
        return straight_stack, straight, short_stack

    def test_short_run_wrote_checkpoints(self, runs):
        _, _, short_stack = runs
        assert short_stack.checkpoint_paths
        for path in short_stack.checkpoint_paths:
            assert path.name.endswith(".ckpt.json")

    def test_resume_verifies_bit_exact(self, runs):
        _, _, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[0])
        resumed = resume_checkpoint(checkpoint, requests=self.M)
        assert resumed.verified is True, resumed.verify_message
        assert "verified bit-exact" in resumed.verify_message
        assert resumed.checkpoint_cycle == checkpoint["cycle"]
        assert resumed.restored is True

    def test_resume_equals_straight_run(self, runs):
        straight_stack, straight, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[-1])
        resumed = resume_checkpoint(checkpoint, requests=self.M)
        assert resumed.verified is True, resumed.verify_message
        assert resumed.restored is True
        # events -- including every ALERT and TREND cycle -- bit-exact.
        resumed_events = [event_to_dict(e) for e in resumed.events]
        straight_events = [event_to_dict(e) for e in
                           straight_stack.machine.events.query()]
        assert resumed_events == straight_events
        # metrics snapshot bit-exact.
        resumed_doc = snapshot_document(
            resumed.machine.metrics.snapshot())
        straight_doc = snapshot_document(
            straight_stack.machine.metrics.snapshot())
        assert resumed_doc["metrics"] == straight_doc["metrics"]
        # verdict.
        assert resumed.truth.requests_completed == \
            straight.truth.requests_completed
        assert sorted(resumed.truth.leaked_addresses) == \
            sorted(straight.truth.leaked_addresses)
        assert (resumed.truth.detection is None) == \
            (straight.truth.detection is None)
        assert resumed.panic is None

    def test_checkpointing_never_perturbs_the_run(self, runs):
        """The straight run (checkpointing OFF) and the short run
        (checkpointing ON) agree on every shared-prefix event."""
        straight_stack, _, short_stack = runs
        prefix_cycle = load_checkpoint(
            short_stack.checkpoint_paths[0])["cycle"]
        short_events = [
            event_to_dict(e)
            for e in short_stack.machine.events.query()
            if e.cycle <= prefix_cycle]
        straight_events = [
            event_to_dict(e)
            for e in straight_stack.machine.events.query()
            if e.cycle <= prefix_cycle]
        assert short_events == straight_events

    def test_resume_defaults_to_recorded_horizon(self, runs):
        _, _, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[0])
        resumed = resume_checkpoint(checkpoint)
        assert resumed.truth.requests_completed == self.N
        assert resumed.verified is True, resumed.verify_message

    def test_latched_trend_state_rides_in_the_checkpoint(self, runs):
        """The buggy ypserv1 leak latches trend detectors well before
        the final checkpoint; the image carries the latch (read from
        the sections ``repro inspect`` derives from it)."""
        _, _, short_stack = runs
        checkpoint = with_sections(
            load_checkpoint(short_stack.checkpoint_paths[-1]))
        trend_state = checkpoint["monitoring_state"]["trend"]
        assert trend_state is not None
        latched = [
            (name, detector)
            for name, record in trend_state["series"].items()
            for detector, breached in record["breached"].items()
            if breached
        ]
        assert latched, "expected a breached latch mid-run"
        history_doc = checkpoint["monitoring_state"]["history"]
        assert history_doc["schema"] == "repro.history/v1"
        assert history_doc["observations"] > 0


def test_resume_verifies_with_rules_none(tmp_path):
    """Regression: with ``--rules none`` the recorded stack still has
    an (empty) alert engine, so the resumed stack must rebuild one too
    or the ``alerts.*`` metrics and monitoring state diverge."""
    stack, _ = run_with_stack(40, checkpoint_every=10_000_000,
                              checkpoint_dir=tmp_path, rules="none",
                              trend=None, history=False)
    checkpoint = load_checkpoint(stack.checkpoint_paths[0])
    assert checkpoint["run"]["monitoring"]["rules"] == []
    resumed = resume_checkpoint(checkpoint, verify=True)
    assert resumed.verified is True, resumed.verify_message
    assert resumed.restored is True


def test_fleet_machine_checkpoint_resumes(tmp_path):
    """A checkpoint a fleet machine's own stack wrote restores and
    verifies, as a single run's does."""
    result = run_fleet(
        "ypserv1", machines=1, jobs=1, buggy=True, requests=40,
        stack=MonitorStackConfig(sample_every=SAMPLE_EVERY,
                                 trend="theil-sen", history=True,
                                 checkpoint_every=10_000_000,
                                 checkpoint_dir=str(tmp_path)))
    path = result.reports[0].checkpoints[0]
    resumed = resume_checkpoint(load_checkpoint(path))
    assert resumed.restored is True
    assert resumed.verified is True, resumed.verify_message


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One real ypserv1 run recording the full monitoring stack: its
    first (image) checkpoint, an image-free capture of the live run at
    the same boundary, and a bundle of the run."""
    tmp = tmp_path_factory.mktemp("recorded")
    sections = []
    stack, _ = run_with_stack(40, checkpoint_every=10_000_000,
                              checkpoint_dir=tmp, sections=sections)
    checkpoint = load_checkpoint(stack.checkpoint_paths[0])
    bundle = capture_bundle(stack.machine, monitor=stack.monitor,
                            run_info=checkpoint["run"])
    return checkpoint, bundle, sections[0]


@pytest.fixture(scope="module")
def recorded_run(recorded):
    """A real ypserv1 checkpoint and a bundle of the same run."""
    return recorded[:2]


@pytest.fixture(scope="module")
def recorded_sections(recorded):
    """The image-free capture at the recorded checkpoint's boundary."""
    return recorded[2]


def _with_monitoring_field(document, field, value):
    """A copy of ``document`` whose ``run.monitoring`` has ``field``
    (``outer`` or ``outer.inner``) set to ``value``."""
    document = copy.deepcopy(document)
    monitoring = document["run"]["monitoring"]
    *outer, name = field.split(".")
    for key in outer:
        monitoring = monitoring[key]
    monitoring[name] = value
    return document


@pytest.mark.parametrize("field, value", [
    ("sample_every", "x"),
    ("sample_every", 0),
    ("sample_every", True),
    ("trend", 5),
    ("trend.window", "32"),
    ("trend.seasonal_warmup", 0),
])
def test_malformed_recorded_monitoring_is_a_named_error(recorded_run,
                                                        field, value):
    """Resume and replay rebuild the recorded stack; a malformed
    ``sample_every`` or ``trend`` must raise ConfigurationError naming
    the field, not a TypeError, and never run without the sampler."""
    checkpoint, bundle = recorded_run
    named = re.escape(repr(field))
    with pytest.raises(ConfigurationError, match=named):
        resume_checkpoint(_with_monitoring_field(checkpoint, field, value))
    with pytest.raises(ConfigurationError, match=named):
        replay_bundle(_with_monitoring_field(bundle, field, value))


@pytest.mark.parametrize("policy, named", [
    ({"rate": "x"}, "field 'rate' must be a number"),
    ({"budget": "b"}, "field 'budget' must be an integer"),
    ({"max_backoff": "m"}, "field 'max_backoff' must be a number"),
    ({"seed": "s"}, "field 'seed' must be an integer"),
    ({"rate": 0.5, "burst": 3}, "field 'burst' is unknown"),
    ([0.5], "sampling policy must be an object"),
    ("0.5", "sampling policy must be an object"),
], ids=["rate=x", "budget=b", "max_backoff=m", "seed=s", "unknown-key",
        "list", "string"])
def test_malformed_recorded_sampling_policy_is_a_named_error(
        recorded_run, policy, named):
    """Resume and replay rebuild the recorded monitor; a malformed
    ``run.monitoring.sampling`` policy must raise ConfigurationError
    naming the field, not a TypeError, and never run unsampled."""
    for document, rerun in zip(recorded_run,
                               (resume_checkpoint, replay_bundle)):
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            rerun(_with_monitoring_field(document, "sampling", policy))


@pytest.mark.parametrize("fields, named", [
    ({"cache_ways": -1}, "cache ways must be at least 1, got -1"),
    ({"cache_ways": 0}, "cache ways must be at least 1, got 0"),
    ({"cache_size": 0}, "cache size must be positive, got 0"),
    ({"cache_levels": 2, "l1_ways": -1},
     "l1 cache ways must be at least 1, got -1"),
    ({"cache_levels": 3}, "cache_levels must be 1 or 2, got 3"),
], ids=["cache_ways=-1", "cache_ways=0", "cache_size=0", "l1_ways=-1",
        "cache_levels=3"])
def test_invalid_recorded_cache_geometry_is_a_named_error(recorded_run,
                                                          fields, named):
    """Resume boots the recorded machine; an impossible cache geometry
    must raise ConfigurationError naming the field, not an IndexError
    or ZeroDivisionError, and never boot a different machine."""
    checkpoint, _ = recorded_run
    document = copy.deepcopy(checkpoint)
    document["machine"].update(fields)
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        resume_checkpoint(document)


@pytest.mark.parametrize("section, named", [
    ({"cache_sets": 4}, "field 'cache_sets' is unknown"),
    ({"ecc_mode": "bogus"}, "field 'ecc_mode' must be one of"),
    ({"dram_size": "x"}, "field 'dram_size' must be an integer"),
    ({"cache_levels": True}, "field 'cache_levels' must be an integer"),
    ({"max_pinned_pages": "x"},
     "field 'max_pinned_pages' must be null or an integer"),
    ({"profile": ["secded"]}, "field 'profile' must be a profile name"),
    ([], "machine section must be an object, got list"),
], ids=["unknown-key", "ecc_mode=bogus", "dram_size=x", "cache_levels=True",
        "max_pinned_pages=x", "profile=list", "list"])
def test_malformed_recorded_machine_is_a_named_error(recorded_run,
                                                     section, named):
    """Resume and replay boot the recorded machine; a malformed
    ``machine`` section must raise ConfigurationError naming the field,
    not a TypeError or ValueError, and never boot silently."""
    for document, rerun in zip(recorded_run,
                               (resume_checkpoint, replay_bundle)):
        document = copy.deepcopy(document)
        if isinstance(section, dict):
            document["machine"].update(section)
        else:
            document["machine"] = section
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            rerun(document)


@pytest.mark.parametrize("field, value, named", [
    ("workload", "x", "field 'workload' must be one of"),
    ("workload", ["ypserv1"], "field 'workload' must be a workload name"),
    ("monitor", "x", "field 'monitor' must be one of"),
    ("monitor", ["safemem"], "field 'monitor' must be a monitor name"),
    ("seed", [], "field 'seed' must be an integer"),
    ("requests", "x", "field 'requests' must be null or a positive"),
    ("requests", 0, "field 'requests' must be null or a positive"),
    ("buggy", "yes", "field 'buggy' must be a boolean"),
    ("heap_size", -4096, "field 'heap_size' must be a positive integer"),
    ("monitoring", "x", "field 'monitoring' must be an object"),
], ids=["workload=x", "workload=list", "monitor=x", "monitor=list",
        "seed=list", "requests=x", "requests=0", "buggy=str",
        "heap_size=-4096", "monitoring=x"])
def test_malformed_recorded_run_is_a_named_error(recorded_run, field,
                                                 value, named):
    """Resume and replay re-drive the recorded run; a malformed ``run``
    field must raise ConfigurationError naming it, not a KeyError,
    TypeError or AttributeError from deep inside the runner."""
    for document, rerun in zip(recorded_run,
                               (resume_checkpoint, replay_bundle)):
        document = copy.deepcopy(document)
        document["run"][field] = value
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            rerun(document)


@pytest.mark.parametrize("value", ["x", -1, 1.5, True, []],
                         ids=["str", "negative", "float", "bool", "list"])
def test_malformed_progress_is_a_named_error(recorded_run, value):
    checkpoint = copy.deepcopy(recorded_run[0])
    checkpoint["progress"]["request_index"] = value
    with pytest.raises(ConfigurationError,
                       match=re.escape("'progress.request_index'")):
        resume_checkpoint(checkpoint)


@pytest.mark.parametrize("field, named", [
    (("progress", "request_index"), "request(s), not at request boundary"),
    (("cycle",), "not at the checkpoint's cycle"),
    (("idle_cycles",), "not at the checkpoint's cycle"),
], ids=["boundary", "cycle", "idle-cycles"])
def test_recipe_that_disagrees_with_its_image_is_a_named_error(
        recorded_run, field, named):
    """The image alone is verified, so an image checkpoint's boundary
    and clock must be where its image sits, on resume and on
    inspect."""
    checkpoint = copy.deepcopy(recorded_run[0])
    *outer, name = field
    parent = checkpoint
    for key in outer:
        parent = parent[key]
    parent[name] += 1
    for read in (resume_checkpoint, with_sections):
        with pytest.raises(ConfigurationError,
                           match=f"^state image sits .*{re.escape(named)}"):
            read(checkpoint)


# ----------------------------------------------------------------------
# the state image: restore, fallback, malformed input
# ----------------------------------------------------------------------
def _fingerprint(result):
    """What a resumed run must reproduce, as comparable values."""
    machine = result.machine
    return {
        "events": [event_to_dict(event) for event in result.events],
        "metrics": snapshot_document(machine.metrics.snapshot())["metrics"],
        "dram": machine.dram.digest(),
        "leaked": sorted(result.truth.leaked_addresses),
        "completed": result.truth.requests_completed,
        "leak_reports": result.monitor.leak_reports,
    }


def test_checkpoint_without_state_replays_and_equals_the_restore(
        recorded_run, recorded_sections):
    """The image checkpoint restores, its image-free twin (the same
    live run captured at the same boundary) replays, and both end in
    the same state."""
    checkpoint = recorded_run[0]
    assert "state" in checkpoint and "state" not in recorded_sections
    restored = resume_checkpoint(checkpoint, requests=50)
    replayed = resume_checkpoint(recorded_sections, requests=50)
    assert restored.restored is True and replayed.restored is False
    assert restored.verified is True, restored.verify_message
    assert replayed.verified is True, replayed.verify_message
    assert _fingerprint(restored) == _fingerprint(replayed)


def test_image_checkpoint_holds_the_run_once(recorded_run,
                                            recorded_sections):
    """A scheduler's checkpoint of a covered run is its recipe, its
    boundary and its image; the sections are the image-free shape's."""
    checkpoint = recorded_run[0]
    assert set(checkpoint) == {"schema", "cycle", "idle_cycles", "run",
                               "machine", "progress", "state"}
    assert set(checkpoint["state"]) == {"image", "sha256"}
    assert set(SECTIONS) <= set(recorded_sections)
    assert {key: recorded_sections[key] for key in checkpoint
            if key != "state"} == \
        {key: value for key, value in checkpoint.items() if key != "state"}


class _Forbidden(Exception):
    """Raised by a function the restore path must not call."""


def _forbidden(*args, **kwargs):
    raise _Forbidden


def test_restore_verifies_by_the_image_alone(recorded_run,
                                             recorded_sections,
                                             monkeypatch):
    """Restore neither captures nor compares the sections; the replay
    path still does both."""
    for module in (checkpoint_module, snapshot_module):
        monkeypatch.setattr(module, "capture_state", _forbidden)
    monkeypatch.setattr(checkpoint_module, "compare_checkpoints",
                        _forbidden)
    resumed = resume_checkpoint(recorded_run[0])
    assert resumed.restored is True
    assert resumed.verified is True, resumed.verify_message
    assert "image members verified bit-exact" in resumed.verify_message
    with pytest.raises(_Forbidden):
        resume_checkpoint(recorded_sections)
    monkeypatch.undo()
    monkeypatch.setattr(checkpoint_module, "compare_checkpoints",
                        _forbidden)
    with pytest.raises(_Forbidden):
        resume_checkpoint(recorded_sections)


def test_adhoc_capture_carries_no_state(recorded_run):
    """Without the live run's ground truth there is nothing to restore
    from: the checkpoint resumes by replay."""
    checkpoint = recorded_run[0]
    stack, _ = run_with_stack(3)
    document = capture_checkpoint(stack.machine, monitor=stack.monitor,
                                  run_info=checkpoint["run"],
                                  request_index=2)
    assert "state" not in document


def _repacked(checkpoint, edit):
    """A copy of ``checkpoint`` whose decoded image ``edit`` changed,
    packed again with a recomputed digest."""
    document = copy.deepcopy(checkpoint)
    image = json.loads(unpack_image(document["state"]))
    edit(image)
    document["state"] = encode_image(image)
    return document


def _retyped(value):
    return "x" if not isinstance(value, str) else 7


#: every component of a state image.
COMPONENTS = ("clock", "events", "metrics", "tracer", "dram",
              "controller", "cache", "page_table", "frames", "swap", "mmu",
              "kernel", "machine", "program", "monitor", "workload",
              "sampler", "alerts", "trend", "history", "truth")


def test_image_components_are_all_listed(recorded_run):
    image = json.loads(unpack_image(recorded_run[0]["state"]))
    assert set(image) == {"schema", *COMPONENTS}


def _line_outside_dram(image, dram_size):
    """A dirty cache line moved past the end of DRAM (same set)."""
    line = next(line for line in image["cache"]["lines"] if line[1])
    line[0] += dram_size


def _stamp_after_the_clock(image, dram_size):
    image["cache"]["lines"][0][2] = image["cache"]["_tick"] + 1


def _page_outside_dram(image, dram_size):
    entry = next(entry for entry in image["page_table"]["entries"]
                 if entry[3])
    entry[2] = 1_000_000


def _tlb_frame_outside_dram(image, dram_size):
    slot = next(slot for slot in image["mmu"]["tlb"] if slot is not None)
    slot[1] = dram_size


def _tlb_frame_of_another_page(image, dram_size):
    first, second = [slot for slot in image["mmu"]["tlb"]
                     if slot is not None][:2]
    first[1] = second[1]


def _tlb_slot_at_another_index(image, dram_size):
    tlb = image["mmu"]["tlb"]
    index = next(i for i, slot in enumerate(tlb) if slot is not None)
    free = next(i for i, slot in enumerate(tlb) if slot is None)
    tlb[free], tlb[index] = tlb[index], None


def _watched_run_outside_dram(image, dram_size):
    image["kernel"]["watches"]["regions"][0][2][0][1] = dram_size


@pytest.mark.parametrize("edit, component, reason", [
    (_line_outside_dram, "cache", "outside DRAM"),
    (_stamp_after_the_clock, "cache", "later than the LRU clock"),
    (_page_outside_dram, "mmu", "outside DRAM"),
    (_tlb_frame_outside_dram, "mmu", "outside DRAM"),
    (_tlb_frame_of_another_page, "mmu", "but its page-table entry maps"),
    (_tlb_slot_at_another_index, "mmu", "which belongs in slot"),
    (_watched_run_outside_dram, "kernel", "outside DRAM"),
], ids=["cache-line", "cache-stamp", "page-table", "tlb", "tlb-frame",
        "tlb-index", "watched-run"])
def test_state_outside_the_machine_is_a_named_error(recorded_run, edit,
                                                    component, reason):
    """A well-typed image that names a place or time the machine does
    not have is rejected when it loads, not mid-run (or never)."""
    checkpoint = recorded_run[0]
    dram_size = checkpoint["machine"]["dram_size"]
    document = _repacked(checkpoint,
                         lambda image: edit(image, dram_size))
    with pytest.raises(ConfigurationError,
                       match=f"component {component!r} does not load: "
                             f".*{reason}"):
        resume_checkpoint(document)


def _first_histogram(image):
    """``[name, pairs]`` of the image's first histogram."""
    name, _, _, pairs = next(
        instrument for instrument in image["metrics"]["instruments"]
        if instrument[1] == "histogram")
    return name, pairs


def _observation_era_histograms(image):
    """Every histogram as images held it before histograms kept value
    counts: ``[observations, sorted]``."""
    for instrument in image["metrics"]["instruments"]:
        if instrument[1] == "histogram":
            instrument[3] = [[value for value, count in instrument[3]
                              for _ in range(count)], True]


def _float_value(pairs):
    pairs[0][0] += 0.5
    return "item 0 has a value of the wrong type"


def _zero_count(pairs):
    pairs[0][1] = 0
    return f"counts value {pairs[0][0]} 0 times"


def _repeated_value(pairs):
    pairs.append(list(pairs[0]))
    return f"repeats value {pairs[0][0]}"


@pytest.mark.parametrize("edit", [_float_value, _zero_count,
                                  _repeated_value],
                         ids=["float-value", "zero-count", "repeated-value"])
def test_malformed_histogram_is_a_named_error(recorded_run, edit):
    """A histogram's ``[value, count]`` pairs load only with int values,
    each listed once with a count of at least 1."""
    reasons = []

    def apply(image):
        name, pairs = _first_histogram(image)
        reasons.append(f"histogram {name!r} {edit(pairs)}")

    document = _repacked(recorded_run[0], apply)
    with pytest.raises(ConfigurationError) as error:
        resume_checkpoint(document)
    assert str(error.value) == (f"state image component 'metrics' does "
                                f"not load: {reasons[0]}")


@pytest.mark.parametrize("mutation", [
    "truncated", "not-base64", "zlib", "digest", "schema",
    *(f"{change}:{name}" for name in COMPONENTS
      for change in ("delete", "retype")),
])
def test_malformed_state_image_is_a_named_error(recorded_run, mutation):
    """A broken image never reaches the run as anything but a
    ConfigurationError naming what is broken."""
    checkpoint = recorded_run[0]
    section = checkpoint["state"]
    document = copy.deepcopy(checkpoint)
    named = "state image"
    if mutation == "truncated":
        document["state"]["image"] = section["image"][:len(
            section["image"]) // 2]
    elif mutation == "not-base64":
        document["state"]["image"] = "*" + section["image"][1:]
    elif mutation == "zlib":
        document["state"]["image"] = base64.b64encode(
            b"not a zlib stream").decode()
    elif mutation == "digest":
        document["state"]["sha256"] = "0" * 64
    elif mutation == "schema":
        document = _repacked(checkpoint, lambda image: image.update(
            schema="repro.state/v9"))
        named = "repro.state/v9"
    else:
        change, name = mutation.split(":")

        def edit(image):
            payload = image[name]
            field = next(iter(payload))
            if change == "delete":
                del payload[field]
            else:
                payload[field] = _retyped(payload[field])
        document = _repacked(checkpoint, edit)
        named = f"component {name!r}"
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        resume_checkpoint(document)


# ----------------------------------------------------------------------
# capture contents + observation-only invariant
# ----------------------------------------------------------------------
class TestCapture:
    def test_capture_sections_and_schema(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(1234)
        document = capture_checkpoint(machine, request_index=3)
        assert document["schema"] == CHECKPOINT_SCHEMA
        for section in VERIFIED_SECTIONS:
            assert section in document
        assert document["cycle"] == 1234
        assert document["progress"] == {"request_index": 3,
                                        "requests_completed": 4}
        assert set(document["dram"]) >= {"data", "check"}

    def test_capture_is_observation_only(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(777)
        before_events = len(machine.events)
        capture_checkpoint(machine, request_index=0)
        assert machine.clock.cycles == 777
        assert len(machine.events) == before_events

    def test_write_then_load_round_trips(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        path = write_checkpoint(document, tmp_path / "x.ckpt.json")
        assert load_checkpoint(path) == json.loads(json.dumps(document))

    def test_render_summary(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=1,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 0})
        text = render_checkpoint_summary(document)
        assert f"checkpoint ({CHECKPOINT_SCHEMA})" in text
        assert "after request #1" in text
        assert "gzip/safemem" in text
        assert "restore:   none (resume replays from the seed)" in text

    def test_render_summary_names_the_state_image(self, recorded_run):
        text = render_checkpoint_summary(recorded_run[0])
        size = len(recorded_run[0]["state"]["image"]) // 1024
        assert f"restore:   state image, {size:,} KiB" in text

    def test_render_summary_flags_unresumable(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine)
        assert "not resumable" in render_checkpoint_summary(document)


# ----------------------------------------------------------------------
# scheduler arithmetic
# ----------------------------------------------------------------------
class TestCheckpointScheduler:
    def _scheduler(self, tmp_path, machine, every, **kwargs):
        return CheckpointScheduler(machine, every,
                                   checkpoint_dir=tmp_path,
                                   label="t", **kwargs)

    def test_captures_only_when_due(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 1000)
        assert scheduler.on_request(0, None) is None  # cycle 0 < 1000
        machine.clock.tick(999)
        assert scheduler.on_request(1, None) is None  # 999 < 1000
        machine.clock.tick(1)
        path = scheduler.on_request(2, None)          # 1000 == due
        assert path is not None
        assert path.name == "t-c1000-r2.ckpt.json"
        assert scheduler.next_due == 2000

    def test_rearm_skips_to_next_multiple_past_now(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 1000)
        machine.clock.tick(2500)  # one long request crosses 2 deadlines
        assert scheduler.on_request(0, None) is not None
        assert scheduler.next_due == 3000  # not 2000: no catch-up burst
        machine.clock.tick(400)   # 2900 < 3000
        assert scheduler.on_request(1, None) is None

    def test_max_checkpoints_cap_counts_skips(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 100,
                                    max_checkpoints=2)
        for index in range(5):
            machine.clock.tick(100)
            scheduler.on_request(index, None)
        assert len(scheduler.checkpoint_paths) == 2
        assert scheduler.checkpoints_skipped == 3
        # due arithmetic keeps advancing even while capped.
        assert scheduler.next_due == 600

    def test_default_cap(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 100)
        assert scheduler.max_checkpoints == DEFAULT_MAX_CHECKPOINTS == 16

    def test_rejects_nonpositive_interval(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with pytest.raises(ConfigurationError, match=">= 1"):
            self._scheduler(tmp_path, machine, 0)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
class TestCompareCheckpoints:
    def test_identical_captures_verify(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(500)
        first = capture_checkpoint(machine, request_index=0)
        second = capture_checkpoint(machine, request_index=0)
        ok, message = compare_checkpoints(first, second)
        assert ok
        assert f"{len(VERIFIED_SECTIONS)} sections" in message

    def test_mismatch_names_the_diverged_section(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        first = capture_checkpoint(machine, request_index=0)
        second = json.loads(json.dumps(first))
        second["interrupts"]["delivered"] += 1
        second["cycle"] += 1
        ok, message = compare_checkpoints(first, second)
        assert not ok
        assert "interrupts" in message
        assert "cycle" in message
        assert "dram" not in message  # only diverged sections listed

    def test_run_section_is_not_compared(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        first = capture_checkpoint(machine, run_info={"requests": 10})
        second = capture_checkpoint(machine, run_info={"requests": 99})
        ok, _ = compare_checkpoints(first, second)
        assert ok


# ----------------------------------------------------------------------
# schema / resume errors
# ----------------------------------------------------------------------
class TestLoadErrors:
    def test_load_checkpoint_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "repro.dump/v1"}))
        with pytest.raises(ConfigurationError) as error:
            load_checkpoint(path)
        assert CHECKPOINT_SCHEMA in str(error.value)
        assert "repro.dump/v1" in str(error.value)

    def test_load_document_names_unknown_schema(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"schema": "repro.mystery/v9"}))
        with pytest.raises(ConfigurationError) as error:
            load_document(path)
        message = str(error.value)
        assert "repro.mystery/v9" in message
        # the error teaches the known formats.
        assert CHECKPOINT_SCHEMA in message
        assert "repro.history/v1" in message

    @pytest.mark.parametrize("loader", [load_checkpoint, load_bundle,
                                        load_document],
                             ids=["checkpoint", "bundle", "document"])
    @pytest.mark.parametrize("content", [
        b'{"schema": "repro.checkpoint/v1", "run": {"work',
        b"\xff\xfe not text",
        b"5\n[1]\n",
        None,
    ], ids=["truncated", "not-utf8", "non-object-lines", "missing"])
    def test_unreadable_document_is_a_named_error(self, tmp_path, loader,
                                                  content):
        path = tmp_path / "broken.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigurationError, match="broken.json"):
            loader(path)

    def test_load_document_dispatches_checkpoint(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        path = write_checkpoint(document, tmp_path / "a.ckpt.json")
        kind, payload = load_document(path)
        assert kind == "checkpoint"
        assert payload["schema"] == CHECKPOINT_SCHEMA

    def test_resume_requires_run_info(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        with pytest.raises(ConfigurationError, match="cannot be resumed"):
            resume_checkpoint(document)

    def test_resume_rejects_horizon_before_boundary(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=30,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 40, "seed": 0})
        with pytest.raises(ConfigurationError, match="boundary"):
            resume_checkpoint(document, requests=10)

    def test_resume_without_boundary_needs_no_verify(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 40, "seed": 0})
        with pytest.raises(ConfigurationError, match="no request boundary"):
            resume_checkpoint(document)


# ----------------------------------------------------------------------
# detector-state durability (the checkpoint payloads)
# ----------------------------------------------------------------------
class TestDetectorDurability:
    def _ramp(self, engine, start=0, count=12):
        for i in range(start, start + count):
            engine.observe(make_sample(i, (i + 1) * 100_000,
                                       heap=i * 50_000.0))

    def test_trend_state_round_trips_through_json(self):
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source)
        state = json.loads(json.dumps(source.state_dict()))
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8)
        restored.load_state(state)
        assert restored.state_dict() == source.state_dict()

    def test_trend_latch_mid_breach_survives_and_clears_in_step(self):
        """A hysteresis latch breached at the checkpoint cycle resumes
        latched and clears on the same later sample as the original."""
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source)
        state = source.state_dict()
        latch = state["series"]["heap.live_bytes"]["breached"]
        assert latch["cusum"] and latch["page-hinkley"], \
            "ramp must latch detectors before the checkpoint"
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8)
        restored.load_state(json.loads(json.dumps(state)))
        # drive both engines through the decay; they must stay
        # bit-identical at every step, including the clearing sample.
        for i in range(12, 40):
            sample = make_sample(i, (i + 1) * 100_000, heap=0.0)
            source.observe(sample)
            restored.observe(sample)
            assert restored.state_dict() == source.state_dict()
        final = source.state_dict()["series"]["heap.live_bytes"]
        assert not final["breached"]["cusum"]

    def test_trend_rejects_mismatched_configuration(self):
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source, count=4)
        other = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                            window=16)
        with pytest.raises(ConfigurationError, match="window"):
            other.load_state(source.state_dict())

    def test_seasonal_bins_and_baseline_round_trip(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        source = TrendEngine(machine, window=8, seasonal_period=1000,
                             seasonal_phases=4, seasonal_warmup=1)
        # one warmup period records bins; the next freezes the baseline.
        for i in range(16):
            source.observe(make_sample(i, i * 125,
                                       heap=float(i % 8) * 100.0))
        state = source.state_dict()
        record = state["series"]["heap.live_bytes"]
        assert record["baseline"] is not None
        assert record["season_bins"] is not None
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8, seasonal_period=1000,
                               seasonal_phases=4, seasonal_warmup=1)
        restored.load_state(json.loads(json.dumps(state)))
        assert restored.state_dict() == state

    def test_alert_engine_state_round_trips_mid_streak(self):
        rule = AlertRule("heap-high", "heap.live_bytes", op=">",
                         value=1000.0, for_samples=3, resolve_after=2)
        machine_a = Machine(dram_size=8 * 1024 * 1024)
        machine_b = Machine(dram_size=8 * 1024 * 1024)
        source = AlertEngine([rule], events=machine_a.events)
        # two breaching samples: streak == 2 of 3, still pending.
        for i in range(2):
            source.evaluate(make_sample(i, (i + 1) * 1000, heap=5000.0))
        state = json.loads(json.dumps(source.state_dict()))
        assert state["alerts"]["heap-high"]["breach_streak"] == 2
        restored = AlertEngine([rule], events=machine_b.events)
        restored.load_state(state)
        assert restored.state_dict() == source.state_dict()
        # the third breach fires both engines at the same cycle.
        sample = make_sample(2, 3000, heap=5000.0)
        source.evaluate(sample)
        restored.evaluate(sample)
        assert restored.state_dict() == source.state_dict()
        assert source.alerts["heap-high"].state == "firing"

    def test_alert_engine_rejects_unknown_rules(self):
        rule = AlertRule("heap-high", "heap.live_bytes", value=1.0)
        other = AlertRule("other", "heap.live_bytes", value=1.0)
        source = AlertEngine([rule])
        restored = AlertEngine([other])
        with pytest.raises(ConfigurationError, match="heap-high"):
            restored.load_state(source.state_dict())

    def test_sampler_state_round_trips(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        with machine.tracer.span("syscall.WatchMemory"):
            machine.clock.tick(300)
        for _ in range(5):
            machine.clock.tick(1000)
            sampler.sample_now()
        state = json.loads(json.dumps(sampler.state_dict()))
        # Counters only, however many samples were taken.
        assert set(state) == {"interval_cycles", "samples_taken",
                              "overhead_fraction"}
        assert state["overhead_fraction"] == 300 / 5300
        twin = Machine(dram_size=8 * 1024 * 1024)
        restored = SamplingProfiler(twin, interval_cycles=1000)
        restored.load_state(state)
        assert restored.state_dict() == sampler.state_dict()
        assert restored.samples_taken == 5
        assert twin.metrics.value("sampler.overhead_fraction") \
            == machine.metrics.value("sampler.overhead_fraction")

    def test_sampler_rejects_mismatched_interval(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        restored = SamplingProfiler(Machine(dram_size=8 * 1024 * 1024),
                                    interval_cycles=2000)
        with pytest.raises(ValueError, match="interval"):
            restored.load_state(sampler.state_dict())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCheckpointCli:
    def test_run_resume_inspect(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        code, output = run_cli(
            "run", "ypserv1", "--buggy", "--requests", "30",
            "--sample-every", "100000", "--checkpoint-every", "5000000",
            "--checkpoint-dir", str(ckpt_dir))
        assert code == 0
        paths = sorted(ckpt_dir.glob("*.ckpt.json"))
        assert paths
        assert "checkpoint:" in output

        code, output = run_cli("inspect", str(paths[0]))
        assert code == 0
        assert f"checkpoint ({CHECKPOINT_SCHEMA})" in output
        assert "restore:   state image, " in output

        code, output = run_cli("resume", str(paths[0]),
                               "--requests", "35")
        assert code == 0
        assert "restored from the state image" in output
        assert "OK -- " in output
        assert "DIVERGED" not in output

    def test_resume_no_verify(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=2,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 0})
        path = write_checkpoint(document, tmp_path / "g.ckpt.json")
        code, output = run_cli("resume", str(path), "--no-verify")
        assert code == 0
        assert "replayed from the seed" in output
        assert "skipped (--no-verify)" in output

    def test_resume_rejects_foreign_document(self, tmp_path, capsys):
        path = tmp_path / "not-a-ckpt.json"
        path.write_text(json.dumps({"schema": "repro.metrics/v1"}))
        code, _ = run_cli("resume", str(path))
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("repro: error: ")
        assert "repro.metrics" in error

    def test_resume_malformed_machine_section_is_one_line(
            self, recorded_run, tmp_path, capsys):
        checkpoint = copy.deepcopy(recorded_run[0])
        checkpoint["machine"]["cache_ways"] = "eight"
        path = write_checkpoint(checkpoint, tmp_path / "bad.ckpt.json")
        code, _ = run_cli("resume", str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: recorded machine field 'cache_ways' must be "
            "an integer, got 'eight'\n")

    @pytest.mark.parametrize("command, shape, edit, message", [
        ("history", "sections",
         lambda document: document["monitoring_state"]["history"]["series"]
         ["heap.live_bytes"].update(raw="x"),
         "history document field 'series.heap.live_bytes.raw' must be a "
         "list, got 'x'"),
        ("inspect", "sections", lambda document: document.update(
            watches="x"),
         "checkpoint field 'watches' must be a list, got 'x'"),
        ("resume", "image",
         lambda document: document["run"]["monitoring"]["rules"][0].update(
             op=[]),
         "alert rule 'ecc-fault-storm' field 'op' must be a string, "
         "got []"),
        # A checkpoint written when the profiler kept a sample ring.
        ("resume", "sections",
         lambda document: document["monitoring_state"].update(sampler={
             "interval_cycles": SAMPLE_EVERY, "capacity": 512,
             "samples_taken": 1, "samples_evicted": 0, "ring": []}),
         "checkpoint field 'monitoring_state.sampler.overhead_fraction' "
         "is missing"),
        # A state image written when histograms kept every observation.
        ("resume", "image",
         lambda document: document.update(state=_repacked(
             document, _observation_era_histograms)["state"]),
         "state image component 'metrics' does not load: histogram "
         "'span.syscall.WatchMemory.cycles' must hold lists of 2 items"),
    ], ids=["history-raw", "inspect-watches", "resume-rule-op",
            "resume-ring-era-sampler", "resume-observation-era-histogram"])
    def test_malformed_field_is_one_line(self, recorded_run,
                                         recorded_sections, tmp_path,
                                         capsys, command, shape, edit,
                                         message):
        """A retyped field deep in a document read by ``history``,
        ``inspect`` or ``resume`` is one line naming it, not a
        ValueError or TypeError traceback.  ``shape`` picks the image
        checkpoint or its image-free twin (the sections live only
        there)."""
        checkpoint = copy.deepcopy(recorded_run[0] if shape == "image"
                                   else recorded_sections)
        edit(checkpoint)
        document = (checkpoint["monitoring_state"]["history"]
                    if command == "history" else checkpoint)
        path = write_checkpoint(document, tmp_path / "bad.json")
        code, _ = run_cli(command, str(path))
        assert code == 2
        assert capsys.readouterr().err == f"repro: error: {message}\n"

    def test_inspect_derives_the_sections_of_the_live_run(
            self, recorded_run, recorded_sections, tmp_path):
        """``repro inspect`` of an image checkpoint prints the summary
        of the image-free capture of the same live run at the same
        boundary (plus the image's restore line)."""
        checkpoint = recorded_run[0]
        path = write_checkpoint(checkpoint, tmp_path / "image.ckpt.json")
        code, output = run_cli("inspect", str(path))
        assert code == 0
        assert output == render_checkpoint_summary(
            {**recorded_sections, "state": checkpoint["state"]}) + "\n"
        assert "  watches:   " in output

    def test_resume_restores_once(self, recorded_run, tmp_path,
                                  monkeypatch):
        """Before it resumes, ``repro resume`` prints only the lines
        the image checkpoint carries: it derives no sections, so the
        image loads once."""
        checkpoint = recorded_run[0]
        path = write_checkpoint(checkpoint, tmp_path / "image.ckpt.json")
        loads = []
        load_image = state_module.load_image

        def counted(*args):
            loads.append(args)
            return load_image(*args)

        monkeypatch.setattr(state_module, "load_image", counted)
        code, output = run_cli("resume", str(path), "--requests", "20")
        assert code == 0
        assert len(loads) == 1
        summary = render_checkpoint_summary(checkpoint)
        assert [line.split(":")[0].strip()
                for line in summary.splitlines()[1:]] == [
            "boundary", "run", "machine", "restore"]
        assert output.startswith(
            summary + "\nresumed:   restored from the state image\n")

    @pytest.mark.parametrize("command", ["inspect", "resume"])
    def test_corrupted_image_is_one_line(self, recorded_run, tmp_path,
                                         capsys, command):
        document = copy.deepcopy(recorded_run[0])
        document["state"]["sha256"] = "0" * 64
        path = write_checkpoint(document, tmp_path / "bad.ckpt.json")
        code, _ = run_cli(command, str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: state image does not match its SHA-256 "
            "digest\n")

    @pytest.mark.parametrize("command", ["inspect", "resume"])
    def test_checkpoint_with_image_and_sections_fails_loudly(
            self, recorded_run, recorded_sections, tmp_path, capsys,
            command):
        """A checkpoint written when an image checkpoint also carried
        the sections (and ``state.size``) names its first unknown
        field."""
        state = recorded_run[0]["state"]
        document = {**recorded_sections,
                    "state": {**state, "size": len(state["image"])}}
        path = write_checkpoint(document, tmp_path / "old.ckpt.json")
        code, _ = run_cli(command, str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: checkpoint field 'dram' is unknown; expected "
            "one of schema, cycle, idle_cycles, run, machine, progress, "
            "state\n")

    def test_resume_malformed_run_section_is_one_line(
            self, recorded_run, tmp_path, capsys):
        checkpoint = copy.deepcopy(recorded_run[0])
        checkpoint["run"]["seed"] = []
        path = write_checkpoint(checkpoint, tmp_path / "bad.ckpt.json")
        code, _ = run_cli("resume", str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: recorded run field 'seed' must be an integer, "
            "got []\n")
