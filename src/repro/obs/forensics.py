"""Post-mortem forensics: crash dumps, deterministic replay, run diffing.

SafeMem's value proposition is diagnosing leaks and corruption *after
the fact*; until now everything the monitoring stack knew died with the
process.  This module makes that state durable and re-drivable:

- :func:`capture_bundle` freezes one machine into a **ForensicBundle**
  -- a versioned ``repro.dump/v1`` JSON document bundling machine
  config, the recorded run (workload/monitor/seed), the current cycle,
  a full metrics snapshot, the tracer flight recorder, the EventLog
  tail, watch-registry contents, the allocator heap map with
  ``(size, call-stack signature)`` leak-group lifetime tables, and the
  interrupt-controller state;
- :class:`ForensicRecorder` captures bundles automatically: always on
  kernel PANIC, optionally on any alert reaching ``firing``
  (``--dump-on-alert``), writing each to a dump directory;
- :func:`replay_bundle` re-runs the recorded workload from its seed on
  a freshly booted identical machine -- the simulation has no
  wall-clock and no unseeded randomness, so replay is **bit-exact** --
  to an optional breakpoint (``--until-cycle N`` /
  ``--break-on <event-kind|address>``) and returns the live machine for
  state inspection;
- :func:`verify_replay` checks a replay's event stream against the
  bundle's recorded tail (the differential pin);
- :func:`diff_documents` compares two bundles or ``repro.metrics/v1``
  snapshots: counter deltas, gauge changes, histogram shift, alerts
  that appear/disappear, and leak-group growth.

Capture is observation-only: it reads registries, rings, and tables but
never ticks the simulated clock or emits events, so a run that was
dumped mid-flight replays identically whether or not a recorder was
attached.  See ``docs/SCHEMAS.md`` for the full field tables.
"""

import json
import pathlib
import re
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.events import EventKind, jsonable
from repro.common.schema import Field, Table
from repro.common.state import BOOL, INT, LIST, NULL, NUMBER, OBJECT, TEXT
from repro.obs.export import snapshot_from_document
from repro.obs.snapshot import (
    CAPTURE,
    Rerun,
    capture_state,
    event_to_dict,
    safe_label,
    write_document,
)

#: schema tag of a forensic bundle document.
DUMP_SCHEMA = "repro.dump/v1"

#: a ``repro.dump/v1`` bundle: the capture sections plus what
#: :func:`capture_bundle` adds.
DUMP = Table(DUMP_SCHEMA, {
    "schema": Field(TEXT, choices=(DUMP_SCHEMA,)),
    "reason": TEXT,
    "trigger": OBJECT,
    "spans.recent": Field(LIST, items={
        "name": TEXT, "depth": INT, "start_cycle": INT,
        "duration_cycles": INT, "attrs": OBJECT}),
    "spans.panic": OBJECT | NULL,
    "spans.panic.cycle": INT,
    "trends": OBJECT | NULL,
    "trends.series": Field(LIST, items={
        "name": TEXT, "points": INT, "last_cycle": INT,
        "last_value": NUMBER, "verdicts": Field(LIST, items={
            "detector": TEXT, "value": NUMBER, "breached": BOOL})}),
}, label="bundle", base=CAPTURE)


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture_bundle(machine, monitor=None, run_info=None, reason="manual",
                   trigger=None, trend=None):
    """Freeze one machine (and its attached monitor) into a bundle dict.

    ``run_info`` records how to re-drive the run (workload / monitor /
    buggy / requests / seed / heap_size, plus the stack's
    ``monitoring`` dict, see
    :meth:`~repro.obs.stack.MonitorStack.monitoring_info`); without it
    the bundle is inspectable but not replayable.  ``trend`` is the
    run's :class:`~repro.obs.trend.TrendEngine`, whose per-series
    verdicts land under the bundle's ``trends`` key.
    """
    bundle = capture_state(machine, monitor=monitor, run_info=run_info)
    tracer = machine.tracer
    bundle.update({
        "schema": DUMP_SCHEMA,
        "reason": reason,
        "trigger": {key: jsonable(value)
                    for key, value in sorted((trigger or {}).items())},
        "spans": {
            "recent": [span.to_dict()
                       for span in tracer.flight_record()],
            "open": [span.to_dict() for span in tracer.active_spans()],
            "panic": tracer.panic_dump,
        },
        "trends": trend.summary() if trend is not None else None,
    })
    return bundle


#: write a bundle as indented JSON; returns the path.
write_bundle = write_document


def load_bundle(path):
    """Load one ``repro.dump/v1`` bundle, checked against :data:`DUMP`."""
    return load_document(path, DUMP)[1]


class ForensicRecorder:
    """Automatic black-box capture bound to one machine.

    Subscribes to the machine's event log and writes a bundle when a
    kernel PANIC event fires (``on_panic``) and, optionally, when any
    alert transitions to ``firing`` (``on_alert``, one bundle per rule
    -- the first firing is the evidence; repeats of the same rule are
    not re-dumped).  ``max_bundles`` bounds total disk output.
    """

    def __init__(self, machine, monitor=None, run_info=None,
                 dump_dir="dumps", label="run", on_panic=True,
                 on_alert=False, max_bundles=4, trend=None):
        self.machine = machine
        self.monitor = monitor
        self.trend = trend
        self.run_info = dict(run_info or {})
        self.dump_dir = pathlib.Path(dump_dir)
        self.label = safe_label(label)
        self.max_bundles = max_bundles
        self.bundle_paths = []
        self.bundles_skipped = 0
        self._seen_alert_rules = set()
        self._tokens = []
        if on_panic:
            self._tokens.append(machine.events.subscribe(
                self._on_panic, kind=EventKind.PANIC))
        if on_alert:
            self._tokens.append(machine.events.subscribe(
                self._on_alert, kind=EventKind.ALERT))

    def _on_panic(self, event):
        self.capture("panic", {
            "reason": event.detail.get("reason"),
            "address": event.address,
        })

    def _on_alert(self, event):
        if event.detail.get("state") != "firing":
            return
        rule = event.detail.get("rule")
        if rule in self._seen_alert_rules:
            return
        self._seen_alert_rules.add(rule)
        self.capture("alert", {
            "rule": rule,
            "severity": event.detail.get("severity"),
            "value": event.detail.get("value"),
        })

    def capture(self, reason="manual", trigger=None):
        """Capture and write one bundle now; returns its path (or None
        when ``max_bundles`` is exhausted -- counted, never silent)."""
        if len(self.bundle_paths) >= self.max_bundles:
            self.bundles_skipped += 1
            return None
        bundle = capture_bundle(
            self.machine, monitor=self.monitor, run_info=self.run_info,
            reason=reason, trigger=trigger, trend=self.trend,
        )
        path = self.dump_dir / (
            f"{self.label}-{reason}-c{bundle['cycle']}"
            f"-{len(self.bundle_paths)}.dump.json"
        )
        write_bundle(bundle, path)
        self.bundle_paths.append(path)
        return path

    def detach(self):
        """Unsubscribe from the machine (retained paths stay readable)."""
        for token in self._tokens:
            self.machine.events.unsubscribe(token)
        self._tokens = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.detach()
        return False


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def parse_breakpoint(text):
    """``<event-kind|address>`` -> ``(kind, address)`` (one is None)."""
    try:
        return None, int(str(text), 0)
    except ValueError:
        pass
    try:
        return EventKind(str(text)), None
    except ValueError:
        kinds = ", ".join(kind.value for kind in EventKind)
        raise ConfigurationError(
            f"breakpoint {text!r} is neither an address nor an event "
            f"kind (kinds: {kinds})"
        ) from None


@dataclass
class ReplayResult:
    """A finished (or broken) replay, live machine included."""

    machine: object
    monitor: object
    program: object
    #: GroundTruth when the workload ran to completion, else None.
    truth: object
    #: events recorded up to the break (the full log on a clean run),
    #: as a read-only :class:`~repro.common.events.EventView`.
    events: Sequence = ()
    broke: bool = False
    break_cycle: int = 0
    #: panic message when the replay re-panicked (full replays only).
    panic: object = None


def replay_bundle(bundle, until_cycle=None, break_on=None):
    """Re-run a bundle's recorded workload from its seed, bit-exactly.

    The bundle must carry ``run`` info (workload, monitor, seed...).
    ``until_cycle`` breaks once the simulated clock reaches that cycle;
    ``break_on`` breaks at the first matching event (an
    :class:`~repro.common.events.EventKind` value or an address).  A
    replay of a panicked run re-panics identically; the panic is
    caught and reported on the result.
    """
    rerun = Rerun(bundle, DUMP, "replayed")
    machine = rerun.machine
    timer = None
    tokens = []
    if until_cycle is not None:
        if until_cycle <= machine.clock.cycles:
            raise ConfigurationError(
                f"--until-cycle {until_cycle} is not in the future "
                f"(replay starts at cycle {machine.clock.cycles})"
            )

        def _on_deadline(clock):
            if clock.cycles >= until_cycle:
                rerun.break_here(clock.cycles)

        timer = machine.clock.every(until_cycle - machine.clock.cycles,
                                    _on_deadline)
    if break_on is not None:
        kind, address = parse_breakpoint(break_on)

        def _on_event(event):
            if address is not None and event.address != address:
                return
            rerun.break_here(event.cycle)

        tokens.append(machine.events.subscribe(_on_event, kind=kind))

    try:
        rerun.run()
    finally:
        if timer is not None:
            machine.clock.cancel(timer)
        for token in tokens:
            machine.events.unsubscribe(token)

    broke = rerun.break_index is not None
    events = machine.events.view()
    if broke:
        events = events[:rerun.break_index]
    return ReplayResult(
        machine=machine,
        monitor=rerun.monitor,
        program=getattr(rerun.monitor, "program", None),
        truth=rerun.truth,
        events=events,
        broke=broke,
        break_cycle=(rerun.break_cycle if broke
                     else machine.clock.cycles),
        panic=rerun.panic,
    )


def verify_replay(bundle, result):
    """Differential check: replayed events vs the bundle's tail.

    Returns ``(ok, message)``.  The bundle stores the last
    ``EVENT_TAIL_LIMIT`` events up to its capture point; a bit-exact
    replay must reproduce exactly that suffix at the same position in
    its stream.  When the replay broke *before* the capture point, the
    comparison covers every event strictly below the break cycle (the
    log is appended in non-decreasing cycle order, so that prefix is
    complete on both sides).
    """
    tail = bundle["events"]["tail"]
    total = bundle["events"]["total"]
    events = result.events
    if len(events) >= total:
        expected = tail
        got = events[:total]
        scope = f"the {total}-event capture prefix"
    else:
        cutoff = result.break_cycle
        expected = [record for record in tail if record["cycle"] < cutoff]
        got = [event for event in events if event.cycle < cutoff]
        scope = f"events below break cycle {cutoff}"
    if not expected:
        return True, f"nothing to compare in {scope}"
    if len(got) < len(expected):
        return False, (
            f"replay produced {len(got)} event(s) in {scope}; the "
            f"bundle recorded {len(expected)}"
        )
    window = map(event_to_dict, got[-len(expected):])
    for index, (want, have) in enumerate(zip(expected, window)):
        if want != have:
            return False, (
                f"replay diverged at tail event {index}: recorded "
                f"{want['kind']}@{want['cycle']} != replayed "
                f"{have['kind']}@{have['cycle']}"
            )
    return True, (
        f"{len(expected)} recorded event(s) matched bit-exactly in "
        f"{scope}"
    )


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
def load_document(path, expected=None):
    """Load any versioned repro document by its schema tag, checked
    against that schema's field table; with ``expected`` (a table),
    only a document of that schema.

    Returns ``(kind, payload)`` where kind is ``"dump"``,
    ``"metrics"``, ``"checkpoint"``, ``"history"``, or ``"stream"``
    (a list of ``repro.events/v1`` records for JSONL streams).  An
    unrecognized or future-version schema fails with an error naming
    the offending string and every schema this build understands, so
    documents written by newer builds degrade loudly, not obscurely.
    """
    # Local: obs.checkpoint imports this module.
    from repro.obs.checkpoint import CHECKPOINT, checkpoint_table
    from repro.obs.export import METRICS
    from repro.obs.history import HISTORY
    from repro.obs.sink import EVENTS, STREAM, read_jsonl
    known = {table.name: (kind, table) for kind, table in (
        ("dump", DUMP), ("metrics", METRICS), ("stream", EVENTS),
        ("checkpoint", CHECKPOINT), ("history", HISTORY))}
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as error:
        raise ConfigurationError(f"cannot read {path}: {error}") from None
    try:
        document = json.loads(text)
    except ValueError as error:
        if expected is not None:
            raise ConfigurationError(
                f"cannot read a {expected.name} document from {path}: "
                f"{error}") from None
        document = None
    if isinstance(document, dict):
        schema = document.get("schema")
        if expected is not None and schema != expected.name:
            raise ConfigurationError(
                f"{path}: not a {expected.name} document "
                f"(schema={schema!r})")
        if not isinstance(schema, str) or schema not in known:
            raise ConfigurationError(
                f"{path}: unrecognized schema {schema!r}; this build "
                f"understands: " + ", ".join(sorted(known)))
        kind, table = known[schema]
        if kind == "stream":
            # A one-record stream parses as a single JSON document.
            return kind, STREAM.check([document], str(path))
        if kind == "checkpoint":
            table = checkpoint_table(document)
        return kind, table.check(document)
    if expected is not None:
        raise ConfigurationError(
            f"{path}: not a {expected.name} document (a JSON "
            f"{type(document).__name__})")
    try:
        records = read_jsonl(path)
    except ValueError:
        records = None
    if records and all(isinstance(record, dict)
                       and record.get("schema") == EVENTS.name
                       for record in records):
        return "stream", STREAM.check(records, str(path))
    raise ConfigurationError(
        f"{path}: neither a JSON document nor a {EVENTS.name} stream"
    )


def bundle_snapshot(bundle):
    """The bundle's embedded metrics as a live Snapshot object."""
    return snapshot_from_document(bundle["metrics"])


def _fired_alerts(metrics):
    """Rule names with a positive ``alerts.rule.<name>.fired`` counter."""
    fired = []
    for name, value in metrics.items():
        match = re.fullmatch(r"alerts\.rule\.(.+)\.fired", name)
        if match and (value or 0) > 0:
            fired.append(match.group(1))
    return sorted(fired)


def render_bundle_summary(bundle):
    """The `repro inspect` headline view of one bundle."""
    run = bundle["run"]
    machine = bundle["machine"]
    events = bundle["events"]
    heap = bundle["heap"]
    lines = [
        f"forensic bundle ({bundle['schema']}) -- reason: "
        f"{bundle['reason']}",
    ]
    trigger = bundle["trigger"]
    if trigger:
        rendered = ", ".join(f"{key}={value}"
                             for key, value in sorted(trigger.items()))
        lines.append(f"  trigger:   {rendered}")
    lines.append(f"  cycle:     {bundle['cycle']:,} "
                 f"(+{bundle['idle_cycles']:,} idle)")
    if run:
        sample_every = run.get("monitoring", {}).get("sample_every")
        lines.append(
            f"  run:       {run.get('workload', '?')}/"
            f"{run.get('monitor', '?')} "
            f"({'buggy' if run.get('buggy') else 'normal'} input, "
            f"{run.get('requests', '?')} requests, "
            f"seed {run.get('seed', '?')}"
            + (f", sampled every {sample_every:,} cycles"
               if sample_every else "")
            + ")"
        )
    else:
        lines.append("  run:       (not recorded; bundle is not "
                     "replayable)")
    if machine:
        lines.append(
            f"  machine:   {machine.get('dram_size', 0) >> 20} MiB DRAM, "
            f"{machine.get('cache_size', 0) >> 10} KiB cache, "
            f"ecc={machine.get('ecc_mode', '?')}"
        )
    lines.append(f"  events:    {events['total']:,} total, "
                 f"{len(events['tail'])} in tail")
    watches = bundle["watches"]
    armed = sum(len(region["lines"]) for region in watches)
    lines.append(f"  watches:   {len(watches)} region(s), "
                 f"{armed} armed line(s)")
    irq = bundle["interrupts"]
    lines.append(
        f"  interrupts: {irq['delivered']} delivered, "
        f"{irq['panics']} panic(s), "
        f"{irq['ecc_traps']} ecc trap(s), handler "
        f"{'registered' if irq['handler_registered'] else 'absent'}"
    )
    if heap:
        lines.append(
            f"  heap:      {heap['live_bytes']:,} B live in "
            f"{heap['live_blocks']} block(s) "
            f"(peak {heap['peak_live_bytes']:,} B, "
            f"{heap['total_allocs']} allocs / "
            f"{heap['total_frees']} frees)"
        )
    groups = bundle["groups"]
    if groups:
        top = groups[0]
        lines.append(
            f"  top group: size {top['size']} @ callsig "
            f"{top['call_signature']:#x} -- {top['live_count']} live, "
            f"{top['live_bytes']:,} B"
        )
    fired = _fired_alerts(bundle["metrics"]["metrics"])
    if fired:
        lines.append("  alerts fired: " + ", ".join(fired))
    trends = bundle["trends"]
    if trends:
        breaching = sum(1 for series in trends["series"]
                        for verdict in series["verdicts"]
                        if verdict["breached"])
        lines.append(
            f"  trends:    {len(trends['series'])} series "
            f"tracked, {breaching} verdict(s) breaching "
            f"({trends.get('breach_onsets', 0)} onset(s) total)"
        )
    panic = bundle["spans"]["panic"]
    if panic:
        lines.append(f"  panic:     {panic.get('reason')} @ cycle "
                     f"{panic['cycle']:,}")
    return "\n".join(lines)


def render_bundle_groups(bundle, top=10):
    """Leak-group lifetime table: the Figure 3 view from a bundle."""
    groups = bundle["groups"][:top]
    if not groups:
        return "no allocation groups recorded"
    lines = [
        "allocation groups (largest live_bytes first):",
        "  size  callsig      live      bytes    allocs     frees "
        "max_life   stable",
    ]
    for group in groups:
        lines.append(
            f"  {group['size']:>4}  {group['call_signature']:#09x} "
            f"{group['live_count']:>7} {group['live_bytes']:>10,} "
            f"{group['total_allocated']:>9} {group['total_freed']:>9} "
            f"{group['max_lifetime']:>8,} {group['stable_time']:>8,}"
        )
    return "\n".join(lines)


def render_bundle_heap(bundle, top=10):
    """Largest live heap blocks recorded in a bundle."""
    heap = bundle["heap"]
    if not heap:
        return "no heap map recorded (monitor had no attached program)"
    lines = [
        f"heap map: {heap['live_bytes']:,} B live in "
        f"{heap['live_blocks']} block(s)"
        + (f" ({heap['truncated']} truncated)" if heap["truncated"]
           else ""),
    ]
    for block in heap["allocations"][:top]:
        lines.append(f"  {block['address']:#010x}  {block['size']:>8,} B"
                     f"  (requested {block['requested_size']:,})")
    return "\n".join(lines)


def render_bundle_events(bundle, kind=None, since_cycle=None, limit=20):
    """Query the bundle's event tail the way `EventLog.query` would."""
    records = bundle["events"]["tail"]
    if kind is not None:
        records = [r for r in records if r["kind"] == kind]
    if since_cycle is not None:
        records = [r for r in records if r["cycle"] >= since_cycle]
    records = records[-limit:]
    if not records:
        return "no matching events in the recorded tail"
    lines = []
    for record in records:
        extras = "".join(f" {key}={value}"
                         for key, value in record["detail"].items())
        addr = (f"{record['address']:#010x}"
                if record["address"] is not None else "-")
        lines.append(
            f"[{record['cycle']:>12}] {record['kind']:<18}"
            f" addr={addr} size={record['size']}{extras}"
        )
    return "\n".join(lines)


def render_bundle_trends(bundle):
    """Trend-analytics view: per-series detector verdicts at capture."""
    trends = bundle["trends"]
    if not trends:
        return ("no trend analytics recorded "
                "(run was captured without --trend)")
    lines = [
        f"trend analytics: {len(trends['series'])} series, "
        f"window {trends.get('window', '?')} samples, "
        f"{trends.get('evaluations', 0)} evaluation(s), "
        f"{trends.get('series_ended', 0)} series ended, "
        f"{trends.get('breach_onsets', 0)} breach onset(s)",
    ]
    for series in trends["series"]:
        lines.append(
            f"  {series['name']} -- {series['points']} point(s) in "
            f"window, last {series['last_value']:,.0f} B @ cycle "
            f"{series['last_cycle']:,}"
        )
        for verdict in series["verdicts"]:
            state = "BREACHED" if verdict["breached"] else "ok"
            lines.append(
                f"    {verdict['detector']:<12} {verdict['value']:>14,.1f}"
                f"  {state}"
            )
    return "\n".join(lines)


def render_stream_summary(records):
    """Summary of a ``repro.events/v1`` JSONL stream."""
    by_type = {}
    for record in records:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
    cycles = [record["cycle"] for record in records]
    lines = [
        f"events stream: {len(records)} record(s), cycles "
        f"{min(cycles):,} -> {max(cycles):,}" if records
        else "events stream: empty",
    ]
    for record_type in sorted(by_type):
        lines.append(f"  {record_type:<8} {by_type[record_type]}")
    firing = [record["alert"]["rule"] for record in records
              if "alert" in record and record["alert"]["state"] == "firing"]
    if firing:
        lines.append("  alerts firing: " + ", ".join(sorted(set(firing))))
    markers = [record["run"].get("marker") for record in records
               if "run" in record]
    if markers:
        lines.append("  run markers: " + " -> ".join(str(m)
                                                     for m in markers))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
#: flattened-histogram suffixes (see repro.obs.metrics.flatten_histogram).
_HISTOGRAM_SUFFIXES = (".count", ".sum", ".min", ".max",
                       ".p50", ".p90", ".p99")


def _metrics_of(document):
    """``(values, kinds)`` of a bundle or a metrics document."""
    schema = document["schema"]
    if schema == DUMP_SCHEMA:
        document = document["metrics"]
        schema = document["schema"]
    from repro.obs.export import SCHEMA as METRICS_SCHEMA
    if schema != METRICS_SCHEMA:
        raise ConfigurationError(
            f"cannot diff schema {schema!r}; expected {DUMP_SCHEMA} or "
            f"{METRICS_SCHEMA}"
        )
    return document["metrics"], document["kinds"]


def _histogram_bases(names):
    bases = set()
    for name in names:
        if name.endswith(".p50") and name[:-len(".p50")] + ".count" \
                in names:
            bases.add(name[:-len(".p50")])
    return bases


def diff_documents(a, b):
    """Structured diff of two bundles / metrics documents (A -> B)."""
    values_a, kinds_a = _metrics_of(a)
    values_b, kinds_b = _metrics_of(b)
    names = set(values_a) | set(values_b)
    bases = _histogram_bases(names)

    def is_histogram_key(name):
        return any(name == base + suffix for base in bases
                   for suffix in _HISTOGRAM_SUFFIXES)

    counters, gauges = [], []
    for name in sorted(names):
        if is_histogram_key(name):
            continue
        kind = kinds_b.get(name) or kinds_a.get(name) or "gauge"
        va = values_a.get(name)
        vb = values_b.get(name)
        if kind == "counter":
            delta = (vb or 0) - (va or 0)
            if delta or (name in values_b) != (name in values_a):
                counters.append({"name": name, "a": va, "b": vb,
                                 "delta": delta})
        elif va != vb:
            gauges.append({"name": name, "a": va, "b": vb})

    histograms = []
    for base in sorted(bases):
        row = {"name": base}
        changed = False
        for suffix in (".count", ".p50", ".p90", ".p99"):
            key = base + suffix
            row[f"a{suffix}"] = values_a.get(key)
            row[f"b{suffix}"] = values_b.get(key)
            changed = changed or values_a.get(key) != values_b.get(key)
        if changed:
            histograms.append(row)

    fired_a = set(_fired_alerts(values_a))
    fired_b = set(_fired_alerts(values_b))
    trends = _diff_trends(a, b)
    groups = []
    if a["schema"] == DUMP_SCHEMA and b["schema"] == DUMP_SCHEMA:
        rows_a = {(g["size"], g["call_signature"]): g for g in a["groups"]}
        rows_b = {(g["size"], g["call_signature"]): g for g in b["groups"]}
        for key in sorted(set(rows_a) | set(rows_b)):
            live_a = rows_a.get(key, {}).get("live_bytes", 0)
            live_b = rows_b.get(key, {}).get("live_bytes", 0)
            if live_a != live_b:
                groups.append({"size": key[0], "call_signature": key[1],
                               "a": live_a, "b": live_b,
                               "delta": live_b - live_a})
        groups.sort(key=lambda row: -abs(row["delta"]))

    return {
        "cycle_a": _cycle_of(a),
        "cycle_b": _cycle_of(b),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "alerts": {
            "appeared": sorted(fired_b - fired_a),
            "disappeared": sorted(fired_a - fired_b),
        },
        "groups": groups,
        "trends": trends,
    }


def _trend_verdict_map(document):
    """``(series, detector) -> verdict`` of a bundle's trends section."""
    trends = document["trends"] if document["schema"] == DUMP_SCHEMA \
        else None
    verdicts = {}
    for series in trends["series"] if trends else []:
        for verdict in series["verdicts"]:
            verdicts[(series["name"], verdict["detector"])] = verdict
    return verdicts


def _diff_trends(a, b):
    """Changed trend verdicts between two bundles (A -> B)."""
    rows_a = _trend_verdict_map(a)
    rows_b = _trend_verdict_map(b)
    rows = []
    for key in sorted(set(rows_a) | set(rows_b)):
        va = rows_a.get(key)
        vb = rows_b.get(key)
        value_a = va["value"] if va else None
        value_b = vb["value"] if vb else None
        breached_a = va["breached"] if va else None
        breached_b = vb["breached"] if vb else None
        if value_a != value_b or breached_a != breached_b:
            rows.append({
                "series": key[0], "detector": key[1],
                "a": value_a, "b": value_b,
                "breached_a": breached_a, "breached_b": breached_b,
            })
    return rows


def _cycle_of(document):
    if document["schema"] == DUMP_SCHEMA:
        return document["cycle"]
    return document["generated"]["cycle"]


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.4f}"
    return f"{value:,}"


def render_diff(diff, limit=20):
    """Human-readable rendering of :func:`diff_documents` output."""
    lines = [f"diff A (cycle {diff['cycle_a']:,}) -> "
             f"B (cycle {diff['cycle_b']:,})"]
    if diff["counters"]:
        lines.append(f"counters ({len(diff['counters'])} changed):")
        for row in diff["counters"][:limit]:
            lines.append(f"  {row['name']:<40} {_fmt(row['a']):>12} -> "
                         f"{_fmt(row['b']):>12}  ({row['delta']:+,})")
    if diff["gauges"]:
        lines.append(f"gauges ({len(diff['gauges'])} changed):")
        for row in diff["gauges"][:limit]:
            lines.append(f"  {row['name']:<40} {_fmt(row['a']):>12} -> "
                         f"{_fmt(row['b']):>12}")
    if diff["histograms"]:
        lines.append(f"histogram shift ({len(diff['histograms'])} "
                     f"changed):")
        for row in diff["histograms"][:limit]:
            lines.append(
                f"  {row['name']:<40} count {_fmt(row['a.count'])} -> "
                f"{_fmt(row['b.count'])}, p50 {_fmt(row['a.p50'])} -> "
                f"{_fmt(row['b.p50'])}, p99 {_fmt(row['a.p99'])} -> "
                f"{_fmt(row['b.p99'])}"
            )
    alerts = diff["alerts"]
    if alerts["appeared"]:
        lines.append("alerts appeared: " + ", ".join(alerts["appeared"]))
    if alerts["disappeared"]:
        lines.append("alerts disappeared: "
                     + ", ".join(alerts["disappeared"]))
    if diff["groups"]:
        lines.append("leak-group live_bytes shifts:")
        for row in diff["groups"][:limit]:
            lines.append(
                f"  size {row['size']:>4} @ {row['call_signature']:#09x}"
                f"  {row['a']:,} -> {row['b']:,}  ({row['delta']:+,})"
            )
    if diff.get("trends"):
        lines.append(f"trend verdicts ({len(diff['trends'])} changed):")
        for row in diff["trends"][:limit]:
            def _state(breached):
                if breached is None:
                    return "absent"
                return "BREACHED" if breached else "ok"
            lines.append(
                f"  {row['detector']:<12} {row['series']:<28} "
                f"{_fmt(row['a']):>12} ({_state(row['breached_a'])}) -> "
                f"{_fmt(row['b']):>12} ({_state(row['breached_b'])})"
            )
    if len(lines) == 1:
        lines.append("no differences")
    return "\n".join(lines)
