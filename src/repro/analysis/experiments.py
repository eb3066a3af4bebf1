"""Every validation experiment, declared once.

Eighteen experiments: nine regenerate the paper's Tables 2-5 and
Figure 3 plus this repo's codec matrix, Figure 4 fleet-sampling curve,
trend head-to-head and season head-to-head; the other nine measure the
paper's design arguments (six ablations and three supplementary
experiments, :mod:`repro.analysis.ablations`).  Each is built from a
unit function that runs one self-contained simulation -- one Table 3
row, one Figure 3 series, one trend scenario, one ablation setting --
and returns a row dataclass; a result object assembles the rows and
``render()`` prints the paper-style text table.

:data:`EXPERIMENTS` declares each experiment once: its jobs (ident and
unit parameters, as a function of ``requests``), its :class:`JobKind`
(unit function and row dataclass, whose ``asdict`` is the JSON payload
and ``Row(**payload)`` its decoding) and how its rows assemble into
the result.  The fleet driver (:mod:`repro.analysis.fleet`) derives
the rest from that table: the job list of ``repro validate``, the
context its claims read, the ``results/`` files, ``repro report``'s
sections and the ``repro table2`` ... ``figure3`` commands.  Serial
and sharded runs call the same units, and the simulation is
deterministic per (workload, config, seed), so ``--jobs N`` is
bit-identical to ``--jobs 1``.
"""

import random
from dataclasses import asdict, dataclass

from repro.analysis import ablations, paper
from repro.analysis.ablations import MeasuredRow
from repro.analysis.runner import (
    boot_machine,
    make_monitor,
    overhead_percent,
    run_workload,
    slowdown_factor,
)
from repro.analysis.tables import (
    fmt_factor,
    fmt_percent,
    render_series,
    render_table,
)
from repro.common.clock import cycles_to_microseconds
from repro.common.constants import CACHE_LINE_SIZE, ECC_GROUP_BYTES, PAGE_SIZE
from repro.common.events import EventKind
from repro.core.sampling import SamplingPolicy
from repro.ecc.controller import EccMode
from repro.ecc.profile import profile_names
from repro.machine.machine import Machine
from repro.mmu.pagetable import PROT_NONE, PROT_RW
from repro.obs.alerts import default_trend_rules
from repro.obs.stack import MonitorStackConfig, assemble_monitor_stack
from repro.obs.trend import DETECTORS, TrendEngine
from repro.workloads.diurnal import SEASON_PERIOD_CYCLES
from repro.workloads.registry import (
    LEAK_WORKLOADS,
    WORKLOADS,
    all_workload_names,
)

BASE = 0x4000_0000


# ----------------------------------------------------------------------
# The declaration shape
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobKind:
    """What a job runs: ``unit(**params)`` returns one ``row``.

    The row's ``asdict`` is the JSON payload that crosses processes and
    enters the result cache; ``row(**payload)`` decodes it.
    """

    name: str
    unit: object
    row: type

    def encode(self, row):
        return asdict(row)

    def decode(self, payload):
        return self.row(**payload)


@dataclass(frozen=True)
class Experiment:
    """One validation experiment."""

    #: context key the claims read, ``results/<name>.txt`` and, for a
    #: paper table or figure, the ``repro <name>`` command.
    name: str
    kind: JobKind
    #: ``requests -> [(ident, params)]`` in canonical order; every run
    #: of the experiment gets ``requests`` (None: full length).
    jobs: object
    #: rows in job order -> the result object (``render()``).
    assemble: object
    #: the paper table or figure it regenerates (a ``repro report``
    #: section and a CLI command), None for this repo's own.
    title: str = None
    #: does ``--requests`` scale it?  Whole-suite runs (``validate``,
    #: ``report``) give the others full-length runs.
    scales: bool = False
    #: does ``validate --write-results`` render it into ``results/``?
    result_file: bool = True

    def specs(self, requests):
        """Job specs ``(kind, ident, params)``, every run at
        ``requests``."""
        return [(self.kind.name, ident, params)
                for ident, params in self.jobs(requests)]

    def result(self, payloads):
        """Assemble the result from ``ident -> row`` payloads."""
        return self.assemble([payloads[ident]
                              for ident, _params in self.jobs(None)])


def run_experiment(name, requests=None):
    """Run one declared experiment in-process, every run at
    ``requests`` (None: full length); returns its result."""
    # Late import: the fleet driver imports this module.
    from repro.analysis.fleet import run_jobs

    experiment = EXPERIMENTS[name]
    return experiment.result(
        run_jobs(experiment.specs(requests), jobs=1).payloads)


# ----------------------------------------------------------------------
# Table 2: syscall microbenchmark
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    #: ``(call, measured us, paper us)`` per system call.
    rows: list

    def render(self):
        return render_table(
            "Table 2: time for the ECC system calls",
            ["Call", "Measured (us)", "Paper (us)"],
            [(name, f"{measured:.2f}", f"{reference:.2f}")
             for name, measured, reference in self.rows],
            note="ECC calls cost more than mprotect because they pin "
                 "the page (paper Section 6.1)",
        )


def table2():
    """Measure WatchMemory / DisableWatchMemory / mprotect cost, each
    averaged over 64 calls."""
    iterations = 64
    machine = Machine(dram_size=16 * 1024 * 1024)
    machine.kernel.mmap(BASE, 256 * PAGE_SIZE)
    # Touch the pages so the microbenchmark measures the call, not
    # demand paging.
    for i in range(iterations):
        machine.store(BASE + i * PAGE_SIZE, b"\0")

    def measure(operation):
        start = machine.clock.cycles
        for i in range(iterations):
            operation(i)
        return cycles_to_microseconds(
            (machine.clock.cycles - start) / iterations
        )

    watch_us = measure(lambda i: machine.kernel.watch_memory(
        BASE + i * PAGE_SIZE, CACHE_LINE_SIZE))
    disable_us = measure(lambda i: machine.kernel.disable_watch_memory(
        BASE + i * PAGE_SIZE))
    mprotect_us = measure(lambda i: machine.kernel.mprotect(
        BASE + i * PAGE_SIZE, PAGE_SIZE,
        PROT_NONE if i % 2 == 0 else PROT_RW))

    rows = [
        ("WatchMemory", watch_us,
         paper.TABLE2_MICROSECONDS["WatchMemory"]),
        ("DisableWatchMemory", disable_us,
         paper.TABLE2_MICROSECONDS["DisableWatchMemory"]),
        ("mprotect", mprotect_us,
         paper.TABLE2_MICROSECONDS["mprotect"]),
    ]
    return Table2Result(rows=rows)


# ----------------------------------------------------------------------
# Table 3: overhead comparison SafeMem vs Purify + bug detection
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    workload: str
    bug_class: str
    detected: bool
    ml_overhead: float
    mc_overhead: float
    full_overhead: float
    purify_slowdown: float
    #: ML+MC overhead over the steady-state tail of the run (fixed
    #: arming/setup costs excluded -- see steady_cycles_per_request).
    #: None when the run is too short to have a tail; readers fall
    #: back to full_overhead.
    steady_overhead: float = None

    @property
    def reduction_factor(self):
        """How many times smaller SafeMem's overhead is than Purify's."""
        purify_overhead = (self.purify_slowdown - 1.0) * 100.0
        if self.full_overhead <= 0:
            return float("inf")
        return purify_overhead / self.full_overhead


@dataclass
class Table3Result:
    rows: list

    def render(self):
        table_rows = []
        for row in self.rows:
            table_rows.append((
                row.workload,
                row.bug_class,
                "YES" if row.detected else "NO",
                fmt_percent(row.ml_overhead),
                fmt_percent(row.mc_overhead),
                fmt_percent(row.full_overhead),
                fmt_factor(row.purify_slowdown),
                fmt_factor(row.reduction_factor, 0),
            ))
        low, high = paper.TABLE3_SAFEMEM_OVERHEAD_BAND
        plow, phigh = paper.TABLE3_PURIFY_SLOWDOWN_BAND
        return render_table(
            "Table 3: overhead comparison between SafeMem and Purify",
            ["App", "Bug", "Detected?", "Only ML", "Only MC", "ML+MC",
             "Purify", "Reduction"],
            table_rows,
            note=f"paper bands: SafeMem ML+MC {low}%-{high}% "
                 f"(gzip {paper.TABLE3_GZIP_SAFEMEM_OVERHEAD}%), "
                 f"Purify {plow}x-{phigh}x; all bugs detected",
        )

    @property
    def steady_overheads(self):
        """Steady-state ML+MC overheads (full_overhead fallback).

        The T3-band claim checks these: whole-run overhead folds fixed
        arming costs over however many requests a run happens to use,
        so the same workload drifts in and out of the paper's band as
        the request count changes; the steady-state tail does not.
        """
        return [row.steady_overhead if row.steady_overhead is not None
                else row.full_overhead
                for row in self.rows]


def detection_succeeded(result, bug_class):
    """Did the buggy run's monitor catch its bug?  A monitor without
    report lists (profiler, native) caught nothing."""
    truth = result.truth
    if bug_class in ("overflow", "uaf"):
        reports = getattr(result.monitor, "corruption_reports", None)
        return bool(reports) and truth.corruption is not None
    reported = {report.object_address for report in
                getattr(result.monitor, "leak_reports", None) or ()}
    return bool(reported & truth.leaked_addresses)


def steady_cycles_per_request(marks, frac=0.5):
    """Cycles per request over the steady-state tail of a run.

    ``marks`` are the cumulative cycle counts after each request
    (GroundTruth.cycle_marks).  The first ``frac`` of the run is warmup
    (arming watches, faulting in pages, growing the heap); the tail
    slope is the per-request cost once the detector reaches its
    production rhythm.  Entirely cycle-derived, so the value is
    identical no matter which process or shard ran the workload.
    Returns None when the run is too short to have a tail.
    """
    window = max(1, int(len(marks) * frac))
    tail = len(marks) - window
    if tail <= 0:
        return None
    return (marks[-1] - marks[window - 1]) / tail


def table3_row(name, requests=250):
    """One workload's Table 3 measurements (overheads + detection)."""
    bug_class = "ML" if name in LEAK_WORKLOADS else "MC"
    native = run_workload(name, "native", requests=requests)
    ml = run_workload(name, "safemem-ml", requests=requests)
    mc = run_workload(name, "safemem-mc", requests=requests)
    full = run_workload(name, "safemem", requests=requests)
    purify = run_workload(name, "purify", requests=requests)
    for run in (native, ml, mc, full, purify):
        if run.truth.detection is not None:
            raise AssertionError(
                f"{name} normal-input run under {run.monitor_name} "
                f"unexpectedly reported a bug: {run.truth.detection}"
            )
    buggy = run_workload(name, "safemem", buggy=True)
    detected = detection_succeeded(buggy, WORKLOADS[name].bug)
    steady_native = steady_cycles_per_request(native.truth.cycle_marks)
    steady_full = steady_cycles_per_request(full.truth.cycle_marks)
    steady = None
    if steady_native and steady_full is not None:
        steady = overhead_percent(steady_full, steady_native)
    return Table3Row(
        workload=name,
        bug_class=bug_class,
        detected=detected,
        ml_overhead=overhead_percent(ml.cycles, native.cycles),
        mc_overhead=overhead_percent(mc.cycles, native.cycles),
        full_overhead=overhead_percent(full.cycles, native.cycles),
        purify_slowdown=slowdown_factor(purify.cycles, native.cycles),
        steady_overhead=steady,
    )


# ----------------------------------------------------------------------
# Table 4: guard-space waste, ECC vs page protection
# ----------------------------------------------------------------------
@dataclass
class Table4Row:
    workload: str
    ecc_overhead_pct: float
    page_overhead_pct: float

    @property
    def reduction_factor(self):
        if self.ecc_overhead_pct <= 0:
            return float("inf")
        return self.page_overhead_pct / self.ecc_overhead_pct


@dataclass
class Table4Result:
    rows: list

    def render(self):
        low, high = paper.TABLE4_REDUCTION_BAND
        return render_table(
            "Table 4: space overhead of ECC-protection vs "
            "page-protection",
            ["App", "ECC-Protection", "Page-Protection", "Reduction"],
            [(row.workload,
              fmt_percent(row.ecc_overhead_pct, 3),
              fmt_percent(row.page_overhead_pct, 1),
              fmt_factor(row.reduction_factor, 1))
             for row in self.rows],
            note=f"paper reduction band: {low}x-{high}x "
                 "(PAGE_SIZE/CACHE_LINE_SIZE = "
                 f"{PAGE_SIZE // CACHE_LINE_SIZE})",
        )

    @property
    def reductions(self):
        return [row.reduction_factor for row in self.rows]


def table4_row(name, requests=250):
    """One workload's guard-space waste under both mechanisms."""
    ecc = run_workload(name, "safemem", requests=requests)
    page = run_workload(name, "pageprot", requests=requests)
    return Table4Row(
        workload=name,
        ecc_overhead_pct=ecc.monitor.space_overhead_fraction() * 100,
        page_overhead_pct=page.monitor.space_overhead_fraction() * 100,
    )


# ----------------------------------------------------------------------
# Table 5: leak false positives before/after ECC pruning
# ----------------------------------------------------------------------
@dataclass
class Table5Row:
    workload: str
    before_pruning: int
    after_pruning: int
    true_leaks_reported: int


@dataclass
class Table5Result:
    rows: list

    def render(self):
        table_rows = []
        for row in self.rows:
            ref_before, ref_after = paper.TABLE5_FALSE_POSITIVES[
                row.workload
            ]
            table_rows.append((
                row.workload,
                row.before_pruning, row.after_pruning,
                f"{ref_before} -> {ref_after}",
                row.true_leaks_reported,
            ))
        return render_table(
            "Table 5: false memory leaks before and after ECC pruning",
            ["App", "Before", "After", "Paper (before -> after)",
             "True leaks reported"],
            table_rows,
            note="no false positives in memory corruption detection "
                 "(guards fire only on true bugs)",
        )


def table5_row(name, requests=None):
    """One leak application's false-positive counts (buggy input)."""
    result = run_workload(name, "safemem", buggy=True,
                          requests=requests)
    leak = result.monitor.leak
    truth = result.truth
    flagged = {s.object_address for s in leak.suspect_records}
    reported = {r.object_address for r in leak.reports}
    return Table5Row(
        workload=name,
        before_pruning=len(flagged - truth.leaked_addresses),
        after_pruning=len(reported - truth.leaked_addresses),
        true_leaks_reported=len(reported & truth.leaked_addresses),
    )


# ----------------------------------------------------------------------
# Figure 3: stability of maximal lifetime (WarmUpTime CDF)
# ----------------------------------------------------------------------
@dataclass
class Figure3Series:
    workload: str
    #: (stabilization time in seconds, cumulative percent of groups).
    points: list
    total_groups: int
    #: CPU seconds of the whole profiled run.
    run_seconds: float

    @property
    def final_percent(self):
        return self.points[-1][1] if self.points else 0.0

    @property
    def last_warmup_seconds(self):
        return self.points[-1][0] if self.points else 0.0


@dataclass
class Figure3Result:
    series: list

    def render(self):
        blocks = []
        for series in self.series:
            blocks.append(render_series(
                f"Figure 3 ({series.workload}): stability of maximal "
                f"lifetime -- {series.total_groups} groups, run "
                f"{series.run_seconds:.3f}s CPU",
                series.points,
                x_label="WarmUpTime (s)",
                y_label="% stable groups",
            ))
        return "\n\n".join(blocks)


#: the three leak servers of the paper's Section 3.1 stability study.
FIGURE3_WORKLOADS = ("ypserv1", "proftpd", "squid1")


def figure3_series(name, requests=None):
    """One workload's WarmUpTime CDF.

    The paper's claim: every group's maximal lifetime stabilizes early
    in the execution.  A group counts as measured once it has freed at
    least three objects.
    """
    result = run_workload(name, "profiler", requests=requests)
    warmups = result.monitor.warmup_times_seconds(min_frees=3)
    points = [
        (warmup, (index + 1) / len(warmups) * 100.0)
        for index, warmup in enumerate(warmups)
    ]
    return Figure3Series(workload=name, points=points,
                         total_groups=len(warmups),
                         run_seconds=result.cpu_seconds)


# ----------------------------------------------------------------------
# Hardware-diversity matrix: per-codec watchpoint-contract tradeoffs
# ----------------------------------------------------------------------
@dataclass
class CodecTradeoffRow:
    """One chipset profile's measured watchpoint-contract behaviour."""

    profile: str
    codec: str
    check_bits: int
    #: simulated check-bit storage overhead (check bits / data bits).
    overhead_pct: float
    #: the verified scramble pattern, as data-bit positions.
    scramble: str
    #: wall cycles from arming a watchpoint to fault delivery, across
    #: one profile scrub interval plus a full scrub pass plus the
    #: faulting access (slower scrub cadences widen this window).
    detection_cycles: int
    #: armed lines the scrub pass *reported* as uncorrectable (must be
    #: the full armed count -- the scrubber sees the fault but must not
    #: clear it).
    scrub_faults_reported: int
    #: armed lines whose bytes the scrubber rewrote ("silent repair");
    #: any non-zero value breaks the watchpoint contract.
    false_scrub_corrections: int
    #: injected background single-bit upsets (profile.fault_noise
    #: scaled over the noise buffer) and how many the codec corrected.
    noise_flips: int
    noise_corrected: int
    #: the contract: scrambled write => uncorrectable fault on next
    #: read, scrubber never silently repairs, noise fully corrected.
    contract_ok: bool


@dataclass
class CodecMatrixResult:
    """Cross-backend tradeoff table (EXPERIMENTS.md hardware matrix)."""

    rows: list

    def render(self):
        return render_table(
            "Hardware matrix: watchpoint contract per ECC codec",
            ["Profile", "Codec", "Check bits", "Overhead",
             "Detect (cycles)", "Scrub faults", "Silent repairs",
             "Noise corrected", "Contract"],
            [(row.profile, row.codec, str(row.check_bits),
              fmt_percent(row.overhead_pct),
              str(row.detection_cycles),
              str(row.scrub_faults_reported),
              str(row.false_scrub_corrections),
              f"{row.noise_corrected}/{row.noise_flips}",
              "holds" if row.contract_ok else "BROKEN")
             for row in self.rows],
            note="scrambled write => uncorrectable fault on next read; "
                 "the scrubber reports armed lines but never silently "
                 "repairs them (docs/HARDWARE.md)",
        )


#: lines of the noise buffer the tradeoff experiment injects upsets
#: into; the flip count is profile.fault_noise scaled over this many
#: simulated group reads.
CODEC_NOISE_LINES = 32


def codec_tradeoff_row(profile):
    """Measure one chipset profile's watchpoint-contract behaviour.

    Boots a machine on the profile, arms a watchpoint over a line of
    known data, waits out the profile's scrub interval, runs a full
    scrub pass (no SafeMem suspend hooks -- the worst case), verifies
    the armed line was reported-but-untouched, then takes the fault on
    the next read.  Separately injects the profile's background
    fault-noise rate over an unwatched buffer and counts corrections.
    """
    machine = Machine(dram_size=4 * 1024 * 1024,
                      ecc_mode=EccMode.CORRECT_AND_SCRUB,
                      profile=profile)
    profile = machine.profile
    kernel = machine.kernel
    codec = machine.controller.codec
    kernel.mmap(BASE, 4 * PAGE_SIZE)

    # -- background noise: seeded single-bit upsets over an unwatched
    # buffer, corrected (and counted) by the codec on read-back.
    rng = random.Random(f"codec-noise:{profile.name}")
    noise_base = BASE + PAGE_SIZE
    noise_bytes = CODEC_NOISE_LINES * CACHE_LINE_SIZE
    payload = bytes((index * 37 + 11) & 0xFF
                    for index in range(noise_bytes))
    machine.store(noise_base, payload)
    group_reads = noise_bytes // ECC_GROUP_BYTES
    noise_flips = max(1, round(profile.fault_noise * group_reads / 100))
    flipped_groups = set()
    for _ in range(noise_flips):
        while True:
            offset = rng.randrange(noise_bytes)
            paddr = machine.mmu.translate(noise_base + offset)
            group = paddr - paddr % ECC_GROUP_BYTES
            if group not in flipped_groups:
                flipped_groups.add(group)
                break
        machine.cache.flush_line(paddr)
        machine.dram.flip_data_bit(paddr, rng.randrange(8))
    corrected_before = machine.controller.corrected_errors
    assert machine.load(noise_base, noise_bytes) == payload
    noise_corrected = machine.controller.corrected_errors \
        - corrected_before

    # -- the watchpoint contract under scrub pressure.
    fired = []

    def handler(info):
        fired.append(machine.clock.wall_time)
        kernel.disable_watch_memory(BASE, restore_data=original)
        return True

    kernel.register_ecc_fault_handler(handler)
    original = b"codec tradeoff line bytes 0123456789 codec tradeoff!!padding...."[:CACHE_LINE_SIZE]
    machine.store(BASE, original)
    machine.load(BASE, CACHE_LINE_SIZE)
    armed_at = machine.clock.wall_time
    region = kernel.watch_memory(BASE, CACHE_LINE_SIZE)
    pline = next(iter(region.lines.values()))
    armed_bytes = machine.dram.read_raw(pline, CACHE_LINE_SIZE)
    armed_check = machine.dram.read_check(pline)

    # Wait out the profile's scrub cadence, then scrub everything.
    machine.clock.idle(profile.scrub_interval_cycles)
    assert kernel.scrubber.due()
    scrub_faults = kernel.run_scrub_pass()
    scrub_faults_reported = sum(
        1 for fault in scrub_faults if fault.line_address == pline)
    silently_repaired = (
        machine.dram.read_raw(pline, CACHE_LINE_SIZE) != armed_bytes
        or machine.dram.read_check(pline) != armed_check)
    false_scrub_corrections = 1 if silently_repaired else 0

    # The next read must deliver the fault, and the restored line must
    # decode cleanly afterwards.
    readback = machine.load(BASE, CACHE_LINE_SIZE)
    detection_cycles = (fired[0] - armed_at) if fired else -1
    contract_ok = bool(
        fired
        and scrub_faults_reported == 1
        and not silently_repaired
        and readback == original
        and noise_corrected == noise_flips
    )
    return CodecTradeoffRow(
        profile=profile.name,
        codec=codec.name,
        check_bits=codec.check_bits,
        overhead_pct=codec.overhead_percent,
        scramble="/".join(str(bit)
                          for bit in codec.scramble_bit_positions),
        detection_cycles=detection_cycles,
        scrub_faults_reported=scrub_faults_reported,
        false_scrub_corrections=false_scrub_corrections,
        noise_flips=noise_flips,
        noise_corrected=noise_corrected,
        contract_ok=contract_ok,
    )


# ----------------------------------------------------------------------
# Figure 4: detection probability vs overhead across a sampled fleet
# ----------------------------------------------------------------------
#: the curve's workload: an SLeak bug, because per-object lifetime
#: outlier detection still works on the sampled subset of allocations.
#: (ALeak detection thresholds on a group's *live count*, so at low
#: sampling rates a growing group never looks big enough -- fleet
#: sampling trades that detector away, which Figure 4's caption notes.)
SAMPLING_CURVE_WORKLOAD = "ypserv2"
#: ascending sampling rates: off, sparse, moderate, heavy, always-on.
SAMPLING_CURVE_RATES = (0.0, 0.02, 0.1, 0.5, 1.0)
SAMPLING_CURVE_MACHINES = 8


@dataclass
class SamplingPoint:
    """One (rate, fleet) measurement on the Figure 4 curve."""

    rate: float
    machines: int
    detected: int
    detection_probability: float
    #: mean per-machine overhead vs the native twin (None if no
    #: machine produced an overhead -- e.g. every machine panicked).
    mean_overhead_pct: object
    #: fleet totals of the allocation sampler's admission counters
    #: (0 at rate 1.0, which short-circuits to classic always-on).
    sampled_allocs: int
    skipped_allocs: int


@dataclass
class SamplingCurveResult:
    """Figure 4: detection probability vs overhead, fleet-sampled."""

    workload: str
    machines: int
    points: list

    def point(self, rate):
        for point in self.points:
            if point.rate == rate:
                return point
        raise KeyError(f"no sampling point at rate {rate!r}")

    def render(self):
        rows = []
        for point in self.points:
            always_on = point.rate >= 1.0
            rows.append((
                f"{point.rate:g}",
                f"{point.detected}/{point.machines}",
                f"{point.detection_probability:.2f}",
                (fmt_percent(point.mean_overhead_pct)
                 if point.mean_overhead_pct is not None else "-"),
                "-" if always_on else point.sampled_allocs,
                "-" if always_on else point.skipped_allocs,
            ))
        return render_table(
            f"Figure 4. Detection probability vs overhead: "
            f"{self.machines}-machine fleet of {self.workload} under "
            f"sampled SafeMem",
            ["rate", "detected", "probability", "mean overhead",
             "sampled", "skipped"],
            rows,
            note=("rate 1.0 short-circuits to classic always-on "
                  "monitoring (no sampler on the hot path); each "
                  "machine samples under its own derived seed"),
        )


def sampling_curve_point(rate, workload=SAMPLING_CURVE_WORKLOAD,
                         machines=SAMPLING_CURVE_MACHINES,
                         requests=None, base_seed=0):
    """Measure one sampling rate across a buggy fleet.

    Runs in-process (``jobs=1``): a curve point is itself a shardable
    validation job, and pool workers must not spawn children.
    """
    # Late import: the fleet driver imports this module.
    from repro.analysis.fleet import run_fleet

    stack = MonitorStackConfig(monitor="safemem",
                               sampling=SamplingPolicy(rate=rate))
    fleet = run_fleet(workload, machines=machines, requests=requests,
                      buggy=True, jobs=1, base_seed=base_seed,
                      stack=stack)
    overheads = [report.overhead_pct for report in fleet.reports
                 if report.overhead_pct is not None]
    return SamplingPoint(
        rate=rate,
        machines=machines,
        detected=fleet.machines_detected,
        detection_probability=fleet.detection_probability,
        mean_overhead_pct=(sum(overheads) / len(overheads)
                           if overheads else None),
        sampled_allocs=fleet.metrics.get("safemem.sampling.sampled", 0),
        skipped_allocs=fleet.metrics.get("safemem.sampling.skipped", 0),
    )


# ----------------------------------------------------------------------
# Trend and season head-to-heads: streaming detectors vs the
# lifetime-outlier method, one buggy/clean scenario shape
# ----------------------------------------------------------------------
#: the trend corpus: the paper's leak servers, each run leak-injected
#: and clean.
TREND_WORKLOADS = LEAK_WORKLOADS

#: profiler interval for the trend scenarios: fine-grained enough that
#: the Theil-Sen window fills while the lifetime-outlier detector is
#: still inside its warmup/confirmation periods.
TREND_SAMPLE_EVERY = 200_000

#: the season corpus: each leak server wrapped in seasonal session
#: traffic (see repro.workloads.diurnal), run clean and leak-injected.
SEASON_WORKLOADS = ("ypserv1-diurnal", "proftpd-diurnal",
                    "squid1-diurnal", "ypserv2-diurnal")

#: profiler interval for the seasonal scenarios; divides the diurnal
#: period, so the per-phase baseline sees a stable sample cadence.
SEASON_SAMPLE_EVERY = 200_000

#: phase bins for the frozen baseline: one bin per two sample slots of
#: the 60M-cycle period, fine enough that the within-bin seasonal swing
#: stays far below every detector threshold.
SEASON_PHASES = 150


@dataclass
class TrendScenarioRow:
    """One (workload, input) run scored by every trend detector."""

    workload: str
    buggy: bool
    cycles: int
    samples: int
    #: first LEAK_REPORT cycle -- the lifetime-outlier baseline the
    #: trend detectors race (None when no report, i.e. clean runs).
    baseline_cycle: object
    #: detector name -> did its trend alert fire this run?
    fired: dict
    #: detector name -> cycle its trend alert first fired (or None).
    first_cycle: dict
    #: seasonal runs only (None otherwise): group-series breach onsets
    #: of the flat (no-baseline) control engine watching the very same
    #: samples, and the first one's cycle (None without an onset).
    flat_onsets: object = None
    flat_first_cycle: object = None

    @property
    def alerts(self):
        """How many detectors' trend alerts fired this run."""
        return sum(1 for caught in self.fired.values() if caught)


def trend_scenario_row(name, buggy, requests, sample_every, trend):
    """Run one workload under SafeMem plus every detector's trend rule.

    One simulation serves all three detectors: the
    :class:`~repro.obs.trend.TrendEngine` computes every statistic per
    sample regardless of rule wiring, so installing the default trend
    rule of each detector side by side scores them on *identical*
    cycles -- and against the same lifetime-outlier LEAK_REPORT
    baseline -- without re-running the workload.  The stack comes from
    the one builder, so the scenario runs exactly the listener chain
    production runs do.

    ``trend`` is the trend engine spec of the stack's ``monitoring``
    dict.  A seasonal spec (with a ``seasonal_period``) drives the
    alert rules from a period-folded frozen baseline, and a second,
    flat engine with ``emit_events=False`` observes the identical
    samples as a purely computational control: it cannot perturb the
    event stream, and its breach onsets are read from
    ``TrendEngine.onsets``.
    """
    monitoring = {
        "sample_every": sample_every,
        "rules": [rule.to_dict() for detector in DETECTORS
                  for rule in default_trend_rules(detector)],
        "trend": trend,
    }
    stack = assemble_monitor_stack(
        monitoring, boot_machine(), make_monitor("safemem"),
        run_info={"workload": name, "monitor": "safemem", "buggy": buggy,
                  "requests": requests})
    machine = stack.machine
    flat = None
    if trend.get("seasonal_period"):
        # The control emits no events and registers no probes, so
        # listening after the stack's alert engine changes nothing the
        # stack sees.
        flat = TrendEngine(machine, emit_events=False,
                           register_probes=False)
        stack.sampler.add_listener(flat.observe)
    result = stack.run()
    reports = machine.events.of_kind(EventKind.LEAK_REPORT)
    firing = {
        detector: [transition.cycle
                   for transition in stack.engine.transitions
                   if transition.rule == f"leak-trend-{detector}"
                   and transition.state == "firing"]
        for detector in DETECTORS
    }
    row = TrendScenarioRow(
        workload=name,
        buggy=buggy,
        cycles=result.cycles,
        samples=stack.sampler.samples_taken,
        baseline_cycle=reports[0].cycle if reports else None,
        fired={detector: bool(cycles)
               for detector, cycles in firing.items()},
        first_cycle={detector: cycles[0] if cycles else None
                     for detector, cycles in firing.items()},
    )
    if flat is not None:
        onsets = [onset["cycle"] for onset in flat.onsets
                  if onset["series"].startswith("group:")]
        row.flat_onsets = len(onsets)
        row.flat_first_cycle = onsets[0] if onsets else None
    return row


def scenario_jobs(prefix, workloads, sample_every, trend, requests):
    """A buggy and a clean run of every workload, as
    ``<prefix>:<workload>:<buggy|clean>`` trend scenario jobs."""
    return [
        (f"{prefix}:{name}:{'buggy' if buggy else 'clean'}",
         {"name": name, "buggy": buggy, "requests": requests,
          "sample_every": sample_every, "trend": dict(trend)})
        for name in workloads for buggy in (True, False)
    ]


def fmt_cycle(value):
    return f"{value:,}" if value is not None else "-"


@dataclass
class ScenarioSweep:
    """The rows of one buggy/clean scenario sweep."""

    sample_every: int
    rows: list

    def row(self, workload, buggy):
        for row in self.rows:
            if row.workload == workload and row.buggy == buggy:
                return row
        raise KeyError(f"no scenario for ({workload}, {buggy})")

    def clean_alerts(self):
        """Trend alerts fired on clean runs, as ``workload/detector``."""
        return [f"{row.workload}/{detector}"
                for row in self.rows if not row.buggy
                for detector, caught in sorted(row.fired.items())
                if caught]


class TrendHeadToHeadResult(ScenarioSweep):
    """Precision/recall head-to-head: trend vs lifetime-outlier."""

    def detector_stats(self):
        """``detector -> {tp, fp, fn, precision, recall, wins}``.

        A buggy run counts as a true positive when the detector's
        alert fired; a *win* additionally requires firing no later
        than the lifetime-outlier baseline's first LEAK_REPORT.  Any
        alert on a clean run is a false positive.
        """
        stats = {}
        for detector in DETECTORS:
            tp = fp = fn = wins = 0
            for row in self.rows:
                caught = row.fired.get(detector, False)
                if row.buggy:
                    if caught:
                        tp += 1
                        first = row.first_cycle.get(detector)
                        if row.baseline_cycle is not None \
                                and first is not None \
                                and first <= row.baseline_cycle:
                            wins += 1
                    else:
                        fn += 1
                elif caught:
                    fp += 1
            stats[detector] = {
                "tp": tp, "fp": fp, "fn": fn,
                "precision": tp / (tp + fp) if tp + fp else 1.0,
                "recall": tp / (tp + fn) if tp + fn else 0.0,
                "wins": wins,
            }
        return stats

    def render(self):
        race_rows = []
        for row in self.rows:
            if not row.buggy:
                continue
            race_rows.append((
                row.workload,
                fmt_cycle(row.baseline_cycle),
                *(fmt_cycle(row.first_cycle.get(d)) for d in DETECTORS),
                self.row(row.workload, False).alerts,
            ))
        race = render_table(
            "Trend head-to-head: first detection cycle on the injected "
            "leak (buggy runs)",
            ["App", "lifetime-outlier", *DETECTORS, "clean alerts"],
            race_rows,
            note=f"one run serves every detector (sampled every "
                 f"{self.sample_every:,} cycles); 'clean alerts' "
                 f"counts detectors firing on the leak-free twin",
        )
        stats = self.detector_stats()
        score = render_table(
            "Trend detector precision/recall vs the lifetime-outlier "
            "baseline",
            ["Detector", "TP", "FP", "FN", "Precision", "Recall",
             "No later than baseline"],
            [(detector,
              row["tp"], row["fp"], row["fn"],
              f"{row['precision']:.2f}", f"{row['recall']:.2f}",
              f"{row['wins']}/{row['tp'] + row['fn']}")
             for detector, row in stats.items()],
            note="a 'no later than baseline' scenario is one where the "
                 "trend alert fired at or before the lifetime-outlier "
                 "method's first LEAK_REPORT",
        )
        return race + "\n\n" + score


class SeasonHeadToHeadResult(ScenarioSweep):
    """Seasonal-baseline vs flat detection on diurnal traffic."""

    def clean_flat_quiet(self):
        """Clean runs where the flat control raised NO false onset."""
        return [row.workload for row in self.rows
                if not row.buggy and row.flat_onsets == 0]

    def buggy_missed(self):
        """Buggy runs no seasonal detector caught."""
        return [row.workload for row in self.rows
                if row.buggy and not any(row.fired.values())]

    def render(self):
        clean_rows = []
        buggy_rows = []
        for row in self.rows:
            if row.buggy:
                buggy_rows.append((
                    row.workload,
                    fmt_cycle(row.baseline_cycle),
                    *(fmt_cycle(row.first_cycle.get(d))
                      for d in DETECTORS),
                    row.flat_onsets,
                ))
            else:
                clean_rows.append((
                    row.workload,
                    row.alerts,
                    row.flat_onsets,
                    fmt_cycle(row.flat_first_cycle),
                ))
        clean = render_table(
            "Clean diurnal traffic: seasonal baseline vs flat "
            "detectors",
            ["App", "seasonal alerts", "flat false onsets",
             "first flat onset"],
            clean_rows,
            note="the flat control watches the identical samples with "
                 "no baseline; every onset on a clean run is a false "
                 "alarm",
        )
        buggy = render_table(
            "Injected leak under diurnal traffic: first seasonal "
            "alert cycle",
            ["App", "lifetime-outlier", *DETECTORS,
             "flat onsets"],
            buggy_rows,
            note=f"sampled every {self.sample_every:,} cycles; the "
                 f"seasonal baseline subtracts the diurnal swing, so "
                 f"a firing detector saw residual leak growth",
        )
        return clean + "\n\n" + buggy


# ----------------------------------------------------------------------
# The experiment table
# ----------------------------------------------------------------------
TREND_SCENARIO = JobKind("trend-scenario", trend_scenario_row,
                         TrendScenarioRow)

#: every validation experiment, by name, in canonical job order.
EXPERIMENTS = {experiment.name: experiment for experiment in (
    Experiment(
        "table2", JobKind("table2", table2, Table2Result),
        jobs=lambda requests: [("table2", {})],
        assemble=lambda rows: rows[0],
        title="Table 2"),
    Experiment(
        "table3", JobKind("table3-row", table3_row, Table3Row),
        jobs=lambda requests: [
            (f"table3:{name}", {"name": name, "requests": requests})
            for name in all_workload_names()],
        assemble=lambda rows: Table3Result(rows=rows),
        title="Table 3", scales=True),
    Experiment(
        "table4", JobKind("table4-row", table4_row, Table4Row),
        jobs=lambda requests: [
            (f"table4:{name}", {"name": name, "requests": requests})
            for name in all_workload_names()],
        assemble=lambda rows: Table4Result(rows=rows),
        title="Table 4", scales=True),
    Experiment(
        "table5", JobKind("table5-row", table5_row, Table5Row),
        jobs=lambda requests: [
            (f"table5:{name}", {"name": name, "requests": requests})
            for name in LEAK_WORKLOADS],
        assemble=lambda rows: Table5Result(rows=rows),
        title="Table 5"),
    Experiment(
        "figure3", JobKind("figure3-series", figure3_series,
                           Figure3Series),
        jobs=lambda requests: [
            (f"figure3:{name}", {"name": name, "requests": requests})
            for name in FIGURE3_WORKLOADS],
        assemble=lambda rows: Figure3Result(series=rows),
        title="Figure 3"),
    Experiment(
        "codecs", JobKind("codec-row", codec_tradeoff_row,
                          CodecTradeoffRow),
        jobs=lambda requests: [(f"codec:{name}", {"profile": name})
                               for name in profile_names()],
        assemble=lambda rows: CodecMatrixResult(rows=rows)),
    Experiment(
        "sampling", JobKind("sampling-point", sampling_curve_point,
                            SamplingPoint),
        jobs=lambda requests: [
            (f"sampling:{rate:g}",
             {"rate": rate, "workload": SAMPLING_CURVE_WORKLOAD,
              "machines": SAMPLING_CURVE_MACHINES,
              "requests": requests, "base_seed": 0})
            for rate in SAMPLING_CURVE_RATES],
        assemble=lambda rows: SamplingCurveResult(
            workload=SAMPLING_CURVE_WORKLOAD,
            machines=SAMPLING_CURVE_MACHINES, points=rows),
        result_file=False),
    Experiment(
        "trend", TREND_SCENARIO,
        jobs=lambda requests: scenario_jobs(
            "trend", TREND_WORKLOADS, TREND_SAMPLE_EVERY, {}, requests),
        assemble=lambda rows: TrendHeadToHeadResult(
            sample_every=TREND_SAMPLE_EVERY, rows=rows)),
    Experiment(
        "season", TREND_SCENARIO,
        jobs=lambda requests: scenario_jobs(
            "season", SEASON_WORKLOADS, SEASON_SAMPLE_EVERY,
            {"seasonal_period": SEASON_PERIOD_CYCLES,
             "seasonal_phases": SEASON_PHASES}, requests),
        assemble=lambda rows: SeasonHeadToHeadResult(
            sample_every=SEASON_SAMPLE_EVERY, rows=rows)),
    Experiment(
        "ablation_scramble", JobKind("scramble-row", ablations.scramble_row,
                                     MeasuredRow),
        jobs=lambda requests: [
            (f"scramble:{'-'.join(map(str, bits))}",
             {"flips": flips, "bits": list(bits)})
            for flips, bits in ablations.scramble_patterns()],
        assemble=ablations.scramble_table),
    Experiment(
        "ablation_hardware", JobKind("hardware-row", ablations.hardware_row,
                                     MeasuredRow),
        jobs=lambda requests: [(f"hardware:{scenario}",
                                {"scenario": scenario})
                               for scenario in ablations.HARDWARE_SCENARIOS],
        assemble=ablations.hardware_table),
    Experiment(
        "ablation_period", JobKind("period-row", ablations.period_row,
                                   MeasuredRow),
        jobs=lambda requests: [(f"period:{period:g}", {"period_s": period})
                               for period in ablations.PERIODS_S],
        assemble=ablations.period_table),
    Experiment(
        "ablation_threshold", JobKind("multiplier-row",
                                      ablations.multiplier_row,
                                      MeasuredRow),
        jobs=lambda requests: [(f"multiplier:{multiplier:g}",
                                {"multiplier": multiplier})
                               for multiplier in ablations.MULTIPLIERS],
        assemble=ablations.multiplier_table),
    Experiment(
        "ablation_grouping", JobKind("grouping-row", ablations.grouping_row,
                                     MeasuredRow),
        jobs=lambda requests: [(f"grouping:{grouping}",
                                {"grouping": grouping})
                               for grouping in ablations.GROUPINGS],
        assemble=ablations.grouping_table),
    Experiment(
        "ablation_padding", JobKind("padding-row", ablations.padding_row,
                                    MeasuredRow),
        jobs=lambda requests: [(f"padding:{lines}", {"pad_lines": lines})
                               for lines in ablations.PAD_LINES],
        assemble=ablations.padding_table),
    Experiment(
        "extra_heap_growth", JobKind("heap-growth-row",
                                     ablations.heap_growth_row,
                                     MeasuredRow),
        jobs=lambda requests: [(f"heap-growth:{name}", {"name": name})
                               for name in LEAK_WORKLOADS],
        assemble=ablations.heap_growth_table),
    Experiment(
        "extra_uninit_mode", JobKind("uninit-row", ablations.uninit_row,
                                     MeasuredRow),
        jobs=lambda requests: [(f"uninit:{mode}", {"mode": mode})
                               for mode in ablations.UNINIT_MODES],
        assemble=ablations.uninit_table),
    Experiment(
        "figure3_synthetic", JobKind("figure3-synthetic",
                                     ablations.synthetic_figure3,
                                     ablations.SyntheticFigure3),
        jobs=lambda requests: [("figure3-synthetic", {})],
        assemble=lambda rows: rows[0]),
)}

#: the paper's tables and figures: ``repro report``'s sections and the
#: ``repro table2`` ... ``figure3`` commands.
PAPER_EXPERIMENTS = tuple(experiment for experiment in
                          EXPERIMENTS.values() if experiment.title)
