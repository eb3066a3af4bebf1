"""The paper's design arguments, measured: six ablations and three
supplementary experiments.

Each experiment backs one argument the paper makes in passing: the
three-bit scramble (Section 2.2.2), the ECC-interface wish list
(Section 2.2.3), the checking period and the 2x SLeak multiplier
(Section 3.2.2), the (size, call-stack) grouping key (Section 3), the
one-line guard pads and the uninitialized-read extension (Section 4),
the unbounded heap growth that motivates the paper (Sections 1 and 3),
and Figure 3 at a realistic group population.

A unit runs one configuration and returns one :class:`MeasuredRow`
(the synthetic Figure 3 is one series, :class:`SyntheticFigure3`); an
experiment's ``*_table`` function assembles its rows into a
:class:`MeasuredTable`.  The experiments are declared in
:data:`repro.analysis.experiments.EXPERIMENTS`, and their claims live in
:mod:`repro.analysis.claims`.
"""

from dataclasses import dataclass, replace

from repro.analysis.memory_profile import profile_heap
from repro.analysis.runner import boot_machine, overhead_percent, run_workload
from repro.analysis.tables import render_series, render_table
from repro.common.constants import (
    CACHE_LINE_SIZE,
    CYCLES_PER_SECOND,
    SCRAMBLE_BIT_POSITIONS,
)
from repro.common.costs import default_cost_model
from repro.common.errors import MonitorError
from repro.core.config import (
    SafeMemConfig,
    corruption_only_config,
    full_config,
    leak_only_config,
)
from repro.core.profiler import LifetimeProfiler
from repro.core.safemem import SafeMem
from repro.ecc.codec import DATA_POSITIONS, MAX_POSITION, POSITION_TO_DATA
from repro.ecc.controller import MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.workloads.traces import SyntheticTraceGenerator, TraceReplayer


# ----------------------------------------------------------------------
# The shared one-table shape
# ----------------------------------------------------------------------
@dataclass
class MeasuredRow:
    """One row of a one-table experiment."""

    #: the rendered cells, in the table's column order.
    cells: list
    #: the measurements the experiment's claim reads, by name.
    values: dict


@dataclass
class MeasuredTable:
    """A one-table experiment's result."""

    title: str
    headers: list
    rows: list
    note: str = None

    def render(self):
        return render_table(self.title, self.headers,
                            [row.cells for row in self.rows],
                            note=self.note)

    def column(self, name):
        """Measurement ``name`` of every row, in row order."""
        return [row.values[name] for row in self.rows]


# ----------------------------------------------------------------------
# Ablation: the scramble pattern (Section 2.2.2)
# ----------------------------------------------------------------------
# The scrambled data must trigger a *multi-bit* fault, because
# single-bit mismatches are silently corrected.  With a real SEC-DED
# code there is a third hazard the paper does not spell out: a 3-bit
# pattern whose codeword positions XOR to a *valid* position gets
# mis-corrected -- no fault, and the line silently changes value.
SCRAMBLE_PAYLOAD = bytes(range(CACHE_LINE_SIZE))


def scrambled_outcome(bit_positions):
    """Arm a line with the given flip pattern; classify the next read."""
    controller = MemoryController(PhysicalMemory(4096))
    controller.write_line(0, SCRAMBLE_PAYLOAD)
    mask = 0
    for bit in bit_positions:
        mask |= 1 << bit
    word = int.from_bytes(SCRAMBLE_PAYLOAD[:8], "little") ^ mask
    scrambled = word.to_bytes(8, "little") + SCRAMBLE_PAYLOAD[8:]
    controller.lock_bus()
    controller.disable_ecc()
    controller.write_line(0, scrambled)
    controller.enable_ecc()
    controller.unlock_bus()
    try:
        data = controller.read_line(0)
    except UncorrectableEccError:
        return "FAULT (watchpoint fires)"
    if data == SCRAMBLE_PAYLOAD:
        return "silently corrected (watchpoint never fires)"
    return "MIS-CORRECTED (silent data corruption!)"


def find_miscorrecting_triple():
    """A 3-bit pattern whose position-XOR is a valid data position."""
    for a in range(8):
        for b in range(a + 1, 16):
            syndrome = DATA_POSITIONS[a] ^ DATA_POSITIONS[b]
            target = POSITION_TO_DATA.get(syndrome)
            if target is not None and target not in (a, b):
                return (a, b, target)
    raise AssertionError("no miscorrecting triple found")


def scramble_patterns():
    """``(label, data bits)``: too few flips, the shipped triple and an
    unlucky one."""
    return [("1 bit", (0,)), ("2 bits", (0, 8)),
            ("3 bits (chosen)", SCRAMBLE_BIT_POSITIONS),
            ("3 bits (unlucky)", find_miscorrecting_triple())]


def scramble_row(flips, bits):
    outcome = scrambled_outcome(bits)
    return MeasuredRow([flips, str(tuple(bits)), outcome],
                       {"outcome": outcome})


def scramble_table(rows):
    return MeasuredTable(
        "Ablation: scramble pattern vs. fault behaviour",
        ["flips", "data bits", "outcome on first read"], rows,
        note="the chosen triple's codeword positions XOR above "
             f"{MAX_POSITION}, guaranteeing an uncorrectable fault")


# ----------------------------------------------------------------------
# Ablation: the ECC interface (Section 2.2.3)
# ----------------------------------------------------------------------
# A software-friendly ECC interface (direct check-bit writes, precise
# interrupts) would remove most of the WatchMemory cost, and
# iWatcher-style hardware watchpoints all of it; sweeping the cost
# model splits SafeMem's ML+MC overhead into the watch/unwatch syscall
# machinery and its own bookkeeping.
HARDWARE_APP = "tar"          # allocation-heavy: watch costs dominate
HARDWARE_REQUESTS = 200
HARDWARE_SCENARIOS = ("paper-hw", "friendly-ecc", "iwatcher")


def scenario_costs(name):
    costs = default_cost_model()
    if name == "paper-hw":
        return costs
    if name == "friendly-ecc":
        # Direct check-bit writes: no bus-locked disable/enable window,
        # no scramble pass; the trap and pin remain.
        return replace(costs, ecc_toggle=0, scramble_line=0,
                       restore_fixed=0, restore_line=0)
    if name == "iwatcher":
        # Hardware watchpoint registers: arming is a user-mode
        # instruction -- no trap, no pin, no flush.
        return replace(costs, ecc_toggle=0, scramble_line=0,
                       restore_fixed=0, restore_line=0,
                       syscall_trap=0, pin_page=0, flush_line=0)
    raise ValueError(name)


def hardware_row(scenario):
    cycles = {
        monitor: run_workload(
            HARDWARE_APP, monitor, requests=HARDWARE_REQUESTS,
            machine=boot_machine(cost_model=scenario_costs(scenario)),
        ).cycles
        for monitor in ("native", "safemem")
    }
    overhead = overhead_percent(cycles["safemem"], cycles["native"])
    return MeasuredRow([scenario, f"{overhead:.2f}%"],
                       {"overhead": overhead})


def hardware_table(rows):
    return MeasuredTable(
        f"Ablation: ECC interface vs SafeMem ML+MC overhead "
        f"({HARDWARE_APP})",
        ["hardware interface", "SafeMem overhead"], rows,
        note="friendly-ecc = direct check-bit writes (paper Sec 2.2.3 "
             "wish); iwatcher = user-mode watchpoints (related work)")


# ----------------------------------------------------------------------
# Ablation: the checking period (Section 3.2.2)
# ----------------------------------------------------------------------
# The leak detector scans for outliers at most once per checking
# period, and only at malloc/free time: a shorter period finds leaks
# sooner but scans more often.
PERIOD_APP = "ypserv2"
PERIOD_REQUESTS = 300
PERIODS_S = (0.001, 0.005, 0.02)


def period_row(period_s):
    native = run_workload(PERIOD_APP, "native", requests=PERIOD_REQUESTS)
    normal, buggy = (
        run_workload(PERIOD_APP, f"safemem-p{period_s}", buggy=bug,
                     requests=PERIOD_REQUESTS,
                     monitor=SafeMem(leak_only_config(
                         checking_period_s=period_s)))
        for bug in (False, True))
    overhead = overhead_percent(normal.cycles, native.cycles)
    reports = buggy.monitor.leak_reports
    latency = (min(r.reported_at_cycle for r in reports)
               if reports else None)
    return MeasuredRow(
        [f"{period_s * 1000:.0f} ms", f"{overhead:.3f}%",
         f"{latency / CYCLES_PER_SECOND:.4f}s" if latency
         else "no report"],
        {"overhead": overhead, "first_report_cycle": latency})


def period_table(rows):
    return MeasuredTable(
        "Ablation: checking-period vs overhead and detection latency",
        ["checking period", "ML overhead", "first leak reported at"],
        rows,
        note=f"{PERIOD_APP}, {PERIOD_REQUESTS} requests; scans run only "
             "at malloc/free time")


# ----------------------------------------------------------------------
# Ablation: the SLeak lifetime multiplier (Section 3.2.2)
# ----------------------------------------------------------------------
# An object is flagged once it outlives 2x its group's stable maximal
# lifetime.  A smaller multiplier flags eagerly (no fewer false
# positives for the pruner to absorb), a larger one late (fewer leaks
# confirmed within the run); squid1 has the richest false-positive
# structure.
MULTIPLIER_APP = "squid1"
MULTIPLIERS = (1.2, 2.0, 6.0)


def multiplier_row(multiplier):
    result = run_workload(
        MULTIPLIER_APP, f"safemem-x{multiplier}", buggy=True,
        monitor=SafeMem(full_config(
            sleak_lifetime_multiplier=multiplier)))
    leak = result.monitor.leak
    leaked = result.truth.leaked_addresses
    flagged = {s.object_address for s in leak.suspect_records}
    reported = {r.object_address for r in leak.reports}
    fp_flagged = len(flagged - leaked)
    true_reported = len(reported & leaked)
    return MeasuredRow(
        [f"{multiplier}x", fp_flagged, len(reported - leaked),
         true_reported, len(leak.pruned)],
        {"fp_flagged": fp_flagged, "true_reported": true_reported})


def multiplier_table(rows):
    return MeasuredTable(
        f"Ablation: SLeak lifetime multiplier ({MULTIPLIER_APP}, buggy "
        "input)",
        ["multiplier", "FP flagged", "FP reported", "true leaks",
         "pruned"], rows,
        note="paper uses 2x; eager flagging leans on ECC pruning, "
             "lazy flagging delays detection")


# ----------------------------------------------------------------------
# Ablation: the object-grouping key (Section 3)
# ----------------------------------------------------------------------
# Two call sites allocate the same size with very different lifetimes:
# size-only grouping merges them, the long-lived site inflates the
# merged group's maximal lifetime, and fewer of the short-lived site's
# leaks are detected.
SHORT_SITE = 0xAAAA     # fast-churning group that leaks sometimes
LONG_SITE = 0xBBBB      # legitimately long-lived group, same size
GROUPING_SIZE = 64
GROUPING_ITERATIONS = 2500
GROUPING_WORK = 100_000
GROUPINGS = ("size_callsig", "size", "callsig")


def grouping_row(grouping):
    machine = Machine(dram_size=64 * 1024 * 1024)
    safemem = SafeMem(leak_only_config(grouping=grouping))
    program = Program(machine, monitor=safemem,
                      heap_size=16 * 1024 * 1024)

    # Long-lived site: a rolling window of session objects that each
    # live for ~400 iterations -- legitimate, and freed eventually.
    long_window = []
    leaked = []
    for i in range(GROUPING_ITERATIONS):
        with program.frame(LONG_SITE):
            long_window.append(program.malloc(GROUPING_SIZE))
        if len(long_window) > 400:
            program.free(long_window.pop(0))

        # Short-lived site: freed within one iteration, except the 2%
        # that leak.
        with program.frame(SHORT_SITE):
            short = program.malloc(GROUPING_SIZE)
        program.store(short, b"req")
        if i % 50 == 49:
            leaked.append(short)
        else:
            program.free(short)
        program.compute(GROUPING_WORK)
    program.exit()

    reported = {r.object_address for r in safemem.leak_reports}
    values = {
        "groups": len(safemem.leak.groups),
        "true_reported": len(reported & set(leaked)),
        "false_reported": len(reported - set(leaked)),
    }
    return MeasuredRow(
        [grouping, values["groups"], len(leaked),
         values["true_reported"], values["false_reported"]], values)


def grouping_table(rows):
    return MeasuredTable(
        "Ablation: grouping key (two same-size sites, different "
        "lifetimes)",
        ["grouping", "groups", "true leaks", "reported true",
         "reported false"], rows,
        note="size-only merges the sites; the long-lived site inflates "
             "the merged maximal lifetime and hides the leak")


# ----------------------------------------------------------------------
# Ablation: the guard-pad width (Section 4)
# ----------------------------------------------------------------------
# Wider pads catch overflows that jump further, at a linear space cost;
# one line already catches the contiguous overflows real bugs produce.
PAD_LINES = (1, 2, 4)


def overflow_reach(pad_lines):
    """How far past the buffer a write can land and still be caught."""
    machine = Machine(dram_size=16 * 1024 * 1024)
    safemem = SafeMem(corruption_only_config(pad_lines=pad_lines))
    program = Program(machine, monitor=safemem,
                      heap_size=4 * 1024 * 1024)
    buffer = program.malloc(CACHE_LINE_SIZE)
    caught = 0
    # Probe successive lines past the end until a write goes unseen.
    for distance in range(1, pad_lines + 3):
        target = buffer + distance * CACHE_LINE_SIZE
        try:
            program.store(target, b"!")
            break
        except MonitorError:
            caught = distance
            # Re-arm by rebuilding (the guard fired and stopped us).
            machine = Machine(dram_size=16 * 1024 * 1024)
            safemem = SafeMem(corruption_only_config(
                pad_lines=pad_lines))
            program = Program(machine, monitor=safemem,
                              heap_size=4 * 1024 * 1024)
            buffer = program.malloc(CACHE_LINE_SIZE)
    return caught


def padding_row(pad_lines):
    reach = overflow_reach(pad_lines)
    run = run_workload(
        "ypserv2", f"safemem-pad{pad_lines}", requests=120,
        monitor=SafeMem(corruption_only_config(pad_lines=pad_lines)),
    )
    space = run.monitor.space_overhead_fraction() * 100
    return MeasuredRow(
        [pad_lines, f"{reach} line(s) ({reach * CACHE_LINE_SIZE} B)",
         f"{space:.1f}%"],
        {"pad_lines": pad_lines, "reach": reach, "space": space})


def padding_table(rows):
    return MeasuredTable(
        "Ablation: guard-pad width (ypserv2 space, synthetic reach)",
        ["pad lines/side", "overflow reach caught", "space overhead"],
        rows,
        note="paper uses 1 line per side and reports it sufficient "
             "for the tested bugs")


# ----------------------------------------------------------------------
# Supplementary: heap growth (Sections 1 and 3)
# ----------------------------------------------------------------------
# "Continuous memory leaks (non-stop leaking) can cause programs to run
# out of virtual memory and eventually crash": live heap bytes over
# time, normal vs buggy input, for each leak application.
HEAP_GROWTH_REQUESTS = 400


def heap_growth_row(name):
    normal, buggy = (profile_heap(name, buggy=bug,
                                  requests=HEAP_GROWTH_REQUESTS)
                     for bug in (False, True))
    values = {
        "final_normal": normal.final_live_bytes,
        "final_buggy": buggy.final_live_bytes,
        "growth_normal": normal.second_half_growth(),
        "growth_buggy": buggy.second_half_growth(),
        "rate_buggy": buggy.growth_rate_bytes_per_second(),
    }
    return MeasuredRow(
        [name, f"{values['final_normal']:,}",
         f"{values['final_buggy']:,}", f"{values['growth_normal']:,}",
         f"{values['growth_buggy']:,}"], values)


def heap_growth_table(rows):
    return MeasuredTable(
        "Supplementary: live heap bytes, normal vs buggy input "
        f"({HEAP_GROWTH_REQUESTS} requests)",
        ["App", "final (normal)", "final (buggy)",
         "2nd-half growth (normal)", "2nd-half growth (buggy)"], rows,
        note="continuous leaks keep climbing after warm-up; healthy "
             "runs plateau (the paper's motivation)")


# ----------------------------------------------------------------------
# Supplementary: the uninitialized-read extension's cost (Section 4)
# ----------------------------------------------------------------------
# The paper sketches uninit-read detection via ECC but does not
# implement it.  Arming one watch per buffer *line* at every allocation
# (each disarmed by the first write to that line) multiplies the
# watch/unwatch traffic, which is why it stays off by default.
UNINIT_APP = "ypserv2"
UNINIT_REQUESTS = 150
UNINIT_MODES = {
    "ml+mc": {},
    "ml+mc+uninit": {"detect_uninit_reads": True},
}


def uninit_read_caught(config):
    """Does reading a fresh, never-written buffer raise the uninit
    report?"""
    machine = Machine(dram_size=8 * 1024 * 1024)
    program = Program(machine, monitor=SafeMem(config),
                      heap_size=2 * 1024 * 1024)
    buffer = program.malloc(64)
    try:
        program.load(buffer, 8)
    except MonitorError as error:
        return "uninitialized_read" in str(error)
    return False


def uninit_row(mode):
    config = SafeMemConfig(**UNINIT_MODES[mode]).validate()
    native = run_workload(UNINIT_APP, "native", requests=UNINIT_REQUESTS)
    run = run_workload(UNINIT_APP, f"safemem-{mode}",
                       requests=UNINIT_REQUESTS, monitor=SafeMem(config))
    overhead = overhead_percent(run.cycles, native.cycles)
    arms = run.metrics["safemem.watch.arms"]
    return MeasuredRow(
        [mode, f"{overhead:.2f}%", arms],
        {"overhead": overhead, "clean": run.truth.detection is None,
         "uninit_read_caught": uninit_read_caught(config)})


def uninit_table(rows):
    return MeasuredTable(
        "Supplementary: uninitialized-read extension cost "
        f"({UNINIT_APP})",
        ["SafeMem mode", "overhead", "watch arms"], rows,
        note="per-line uninit watches multiply syscall traffic; the "
             "paper leaves this extension unimplemented")


# ----------------------------------------------------------------------
# Supplementary: Figure 3 at a realistic group population
# ----------------------------------------------------------------------
# The behavioural workload models have a handful of allocation sites
# each; real servers have dozens to hundreds.  A synthetic server trace
# with ~33 object groups re-runs the lifetime-stability study.
@dataclass
class SyntheticFigure3:
    """The WarmUpTime CDF of a synthetic server trace."""

    #: (stabilization time in seconds, cumulative percent of groups).
    points: list
    #: CPU seconds of the whole replayed trace.
    run_seconds: float

    def render(self):
        return render_series(
            f"Figure 3 (synthetic server): {len(self.points)} groups, "
            f"run {self.run_seconds:.3f}s CPU",
            self.points,
            x_label="WarmUpTime (s)",
            y_label="% stable groups",
        )


def synthetic_figure3():
    """Replay a 15,000-event synthetic server trace under the lifetime
    profiler; groups count once they have freed five objects."""
    generator = SyntheticTraceGenerator(events=15_000, seed=11)
    trace, _leaked = generator.generate()
    machine = Machine(dram_size=64 * 1024 * 1024)
    profiler = LifetimeProfiler()
    program = Program(machine, monitor=profiler,
                      heap_size=24 * 1024 * 1024)
    TraceReplayer(trace).run(program)
    warmups = profiler.warmup_times_seconds(min_frees=5)
    return SyntheticFigure3(
        points=[(warmup, (index + 1) / len(warmups) * 100.0)
                for index, warmup in enumerate(warmups)],
        run_seconds=machine.clock.cpu_seconds)
