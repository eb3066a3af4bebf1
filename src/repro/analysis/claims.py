"""Machine-checkable reproduction claims.

Every qualitative statement in EXPERIMENTS.md is encoded here as a
:class:`Claim` with a check function, so ``python -m repro validate``
can re-verify the whole reproduction in one command and print a
PASS/FAIL matrix.  Each claim reads one declared experiment's result
(:data:`repro.analysis.experiments.EXPERIMENTS`).
"""

from dataclasses import dataclass

from repro.analysis import paper


@dataclass
class Claim:
    """One verifiable statement about the reproduction."""

    ident: str
    statement: str
    #: callable(context) -> (passed: bool, evidence: str)
    check: object
    #: the declared experiment (``experiments.EXPERIMENTS`` key) whose
    #: result the check reads.
    source: str


@dataclass
class ClaimResult:
    claim: Claim
    passed: bool
    evidence: str


def _t2_microseconds(context):
    rows = {name: (measured, reference)
            for name, measured, reference in context["table2"].rows}
    worst = max(abs(m - r) / r for m, r in rows.values())
    return worst < 0.10, f"max relative deviation {worst:.1%}"


def _t2_ordering(context):
    rows = {name: measured
            for name, measured, _r in context["table2"].rows}
    ok = rows["mprotect"] < rows["DisableWatchMemory"] < \
        rows["WatchMemory"]
    return ok, (f"mprotect {rows['mprotect']:.2f} < disable "
                f"{rows['DisableWatchMemory']:.2f} < watch "
                f"{rows['WatchMemory']:.2f} us")


def _t3_all_detected(context):
    rows = context["table3"].rows
    missed = [r.workload for r in rows if not r.detected]
    return not missed, f"missed: {missed}" if missed else "7/7 detected"


def _t3_band(context):
    # Steady-state overheads: whole-run numbers fold the fixed arming
    # cost over the request count, so the verdict used to flip with
    # the run length (short sharded runs recorded FAIL while the long
    # serial run recorded PASS).  The steady-state tail is length- and
    # shard-independent, making the claim deterministic.
    overheads = context["table3"].steady_overheads
    low, high = min(overheads), max(overheads)
    ok = 0 < low and high < 16.0
    return ok, f"steady-state ML+MC overhead spans {low:.1f}%-{high:.1f}%"


def _t3_purify_gap(context):
    rows = context["table3"].rows
    worst = min(r.reduction_factor for r in rows)
    return worst > 20, (f"SafeMem at least {worst:.0f}x cheaper than "
                        "Purify everywhere")


def _t3_mc_dominates_ml(context):
    rows = context["table3"].rows
    bad = [r.workload for r in rows if r.mc_overhead <= r.ml_overhead]
    return not bad, f"violations: {bad}" if bad else \
        "MC > ML for all 7 apps"


def _t3_whole_run(context):
    # Whole-run overheads fold the fixed arming cost over the request
    # count, so unlike T3-band this claim holds at the default
    # 250-request length, not at any --requests (squid1 reads 25% at
    # 20 requests).
    rows = context["table3"].rows
    outside = [f"{r.workload} {r.full_overhead:.2f}%" for r in rows
               if not 0.0 < r.full_overhead < 16.0]
    if outside:
        return False, f"whole-run ML+MC outside 0-16%: {outside}"
    gzip = next(r for r in rows if r.workload == "gzip")
    overheads = [r.full_overhead for r in rows]
    evidence = (f"whole-run ML+MC spans {min(overheads):.1f}%-"
                f"{max(overheads):.1f}%, gzip {gzip.full_overhead:.2f}% "
                f"(paper {paper.TABLE3_GZIP_SAFEMEM_OVERHEAD}%)")
    return 2.0 < gzip.full_overhead < 5.0, evidence


def _t3_purify_shape(context):
    rows = context["table3"].rows
    floor = min(rows, key=lambda r: r.purify_slowdown)
    worst = max(rows, key=lambda r: r.purify_slowdown)
    ok = floor.purify_slowdown > 4.5 and \
        worst.workload in ("squid1", "squid2")
    return ok, (f"Purify from {floor.purify_slowdown:.1f}x "
                f"({floor.workload}) to {worst.purify_slowdown:.1f}x "
                f"({worst.workload})")


def _t4_reduction(context):
    reductions = context["table4"].reductions
    low, high = min(reductions), max(reductions)
    ok = low > 55 and high < 110
    return ok, f"reduction spans {low:.0f}x-{high:.0f}x (paper 64-74x)"


def _t4_gzip(context):
    gzip = next(r for r in context["table4"].rows if r.workload == "gzip")
    return abs(gzip.reduction_factor - 64.0) < 2.0, (
        f"gzip reduction {gzip.reduction_factor:.1f}x (granularity "
        "ratio 64x)")


def _t5_exact(context):
    rows = {r.workload: r for r in context["table5"].rows}
    mismatches = []
    for app, (before, after) in paper.TABLE5_FALSE_POSITIVES.items():
        row = rows[app]
        if (row.before_pruning, row.after_pruning) != (before, after):
            mismatches.append(
                f"{app}: {row.before_pruning}->{row.after_pruning} "
                f"(paper {before}->{after})"
            )
    return not mismatches, "; ".join(mismatches) if mismatches else \
        "7/9/13/2 -> 0/0/1/0 exactly"


def _t5_true_leaks(context):
    rows = context["table5"].rows
    missing = [r.workload for r in rows if r.true_leaks_reported == 0]
    return not missing, f"no true leak reported for: {missing}" \
        if missing else "every leak app's bug reported"


def _f4_sampling(context):
    curve = context["sampling"]
    probs = [p.detection_probability for p in curve.points]
    if curve.point(0.0).detection_probability != 0.0:
        return False, "rate 0.0 detected something"
    if curve.point(1.0).detection_probability != 1.0:
        return False, (f"always-on fleet only detects "
                       f"{curve.point(1.0).detection_probability:.2f}")
    if any(a > b + 1e-9 for a, b in zip(probs, probs[1:])):
        return False, (f"detection probability not non-decreasing "
                       f"in rate: {probs}")
    sparse = min((p for p in curve.points if p.rate > 0),
                 key=lambda p: p.rate)
    full = curve.point(1.0)
    if sparse.mean_overhead_pct is None or full.mean_overhead_pct is None:
        return False, "missing overhead measurements"
    if sparse.mean_overhead_pct >= full.mean_overhead_pct / 4:
        return False, (f"rate {sparse.rate:g} overhead "
                       f"{sparse.mean_overhead_pct:.2f}% is not <1/4 "
                       f"of always-on {full.mean_overhead_pct:.2f}%")
    return True, (f"probability rises {probs[0]:.2f}->{probs[-1]:.2f} "
                  f"with rate; rate {sparse.rate:g} costs "
                  f"{sparse.mean_overhead_pct:.2f}% vs always-on "
                  f"{full.mean_overhead_pct:.2f}%")


def _f3_stability(context):
    for series in context["figure3"].series:
        run_s = series.run_seconds
        if series.final_percent != 100.0:
            return False, f"{series.workload}: not all groups stable"
        if series.last_warmup_seconds >= 0.10 * run_s:
            return False, (f"{series.workload}: stabilized at "
                           f"{series.last_warmup_seconds:.3f}s of "
                           f"{run_s:.3f}s")
        if series.total_groups < 2:
            return False, (f"{series.workload}: only "
                           f"{series.total_groups} group measured")
    return True, "all groups stable within the first 10% of each run"


def _f3_scale(context):
    result = context["figure3_synthetic"]
    warmups = [warmup for warmup, _percent in result.points]
    early = sum(1 for w in warmups if w < 0.25 * result.run_seconds)
    ok = len(warmups) >= 25 and early / len(warmups) >= 0.9
    return ok, (f"{early}/{len(warmups)} groups stable within the first "
                "quarter of the run")


def _hw_codecs(context):
    rows = context["codecs"].rows
    if len(rows) < 3:
        return False, f"only {len(rows)} chipset profiles measured"
    if len({row.codec for row in rows}) < 3:
        return False, "fewer than 3 distinct codecs in the matrix"
    broken = [row.profile for row in rows if not row.contract_ok]
    if broken:
        return False, f"watchpoint contract broken on: {broken}"
    repaired = [row.profile for row in rows
                if row.false_scrub_corrections]
    if repaired:
        return False, f"scrubber silently repaired armed lines: {repaired}"
    return True, (f"{len(rows)} profiles x "
                  f"{len({row.codec for row in rows})} codecs: scramble "
                  "uncorrectable, scrub reports armed lines untouched")


def _trend_headtohead(context):
    result = context["trend"]
    clean = result.clean_alerts()
    if clean:
        return False, (f"{len(clean)} trend alert(s) on clean runs: "
                       f"{clean}")
    stats = result.detector_stats()
    wins = {detector: row["wins"] for detector, row in stats.items()}
    if not any(wins.values()):
        return False, ("no trend detector fired at or before the "
                       "lifetime-outlier baseline on any scenario")
    best = max(stats, key=lambda d: (stats[d]["recall"],
                                     stats[d]["wins"]))
    return True, (f"0 clean alerts; no-later-than-baseline scenarios "
                  f"{wins}; best recall {best} "
                  f"{stats[best]['recall']:.2f}")


def _season_headtohead(context):
    result = context["season"]
    clean = result.clean_alerts()
    if clean:
        return False, (f"{len(clean)} seasonal alert(s) on clean "
                       f"diurnal runs: {clean}")
    quiet = result.clean_flat_quiet()
    if quiet:
        return False, ("flat control raised no false onset on clean "
                       f"runs of: {quiet} -- the diurnal swing is not "
                       "fooling flat detectors, so the comparison is "
                       "vacuous")
    missed = result.buggy_missed()
    if missed:
        return False, (f"no seasonal detector caught the injected "
                       f"leak on: {missed}")
    flat_false = sum(row.flat_onsets for row in result.rows
                     if not row.buggy)
    return True, (f"0 seasonal alerts vs {flat_false} flat false "
                  f"onsets on clean diurnal runs; every injected leak "
                  f"still caught")


def _scramble(context):
    one, two, chosen, unlucky = \
        context["ablation_scramble"].column("outcome")
    ok = ("silently corrected" in one and "FAULT" in two
          and "FAULT" in chosen and "MIS-CORRECTED" in unlucky)
    return ok, "; ".join(
        f"{flips}: {outcome.split(' (')[0]}" for flips, outcome in
        zip(("1 bit", "2 bits", "chosen triple", "unlucky triple"),
            (one, two, chosen, unlucky)))


def _hardware(context):
    paper_hw, friendly, iwatcher = \
        context["ablation_hardware"].column("overhead")
    ok = paper_hw > friendly > iwatcher and iwatcher < 0.25 * paper_hw
    return ok, (f"paper interface {paper_hw:.2f}% > direct check bits "
                f"{friendly:.2f}% > free watchpoints {iwatcher:.2f}%")


def _period(context):
    result = context["ablation_period"]
    overheads = result.column("overhead")
    latencies = result.column("first_report_cycle")
    if None in latencies:
        return False, f"a period never reported the leak: {latencies}"
    ok = overheads[0] >= overheads[-1] and overheads[0] < 5.0 \
        and latencies[0] <= latencies[-1]
    return ok, (f"1 ms: {overheads[0]:.3f}%, first report at cycle "
                f"{latencies[0]:,}; 20 ms: {overheads[-1]:.3f}%, "
                f"{latencies[-1]:,}")


def _multiplier(context):
    result = context["ablation_threshold"]
    flagged = result.column("fp_flagged")
    true_reported = result.column("true_reported")
    ok = flagged[0] >= flagged[1] >= flagged[2] and true_reported[1] > 0
    return ok, (f"false positives flagged at 1.2x/2x/6x: {flagged}; "
                f"2x reports {true_reported[1]} true leak(s)")


def _grouping(context):
    full, size_only, callsig = (
        row.values for row in context["ablation_grouping"].rows)
    ok = (full["groups"] == 2 and full["true_reported"] > 0
          and full["false_reported"] == 0 and size_only["groups"] == 1
          and size_only["true_reported"] < full["true_reported"]
          and callsig["groups"] == 2)
    return ok, (f"(size, callsig): {full['groups']} groups, "
                f"{full['true_reported']} true / "
                f"{full['false_reported']} false reports; size only: "
                f"{size_only['groups']} group, "
                f"{size_only['true_reported']} true reports")


def _padding(context):
    result = context["ablation_padding"]
    pads = result.column("pad_lines")
    reaches = result.column("reach")
    spaces = result.column("space")
    ok = reaches == pads and all(
        a < b for a, b in zip(spaces, spaces[1:]))
    return ok, (f"reach {reaches} lines at pads {pads}; space "
                + " < ".join(f"{space:.1f}%" for space in spaces))


def _heap_growth(context):
    bad = []
    for row in context["extra_heap_growth"].rows:
        v = row.values
        if not (v["final_buggy"] > v["final_normal"]
                and v["growth_buggy"] > 0
                and v["growth_normal"] <= v["growth_buggy"] / 4
                and v["rate_buggy"] > 0):
            bad.append(row.cells[0])
    return not bad, (f"buggy heap does not outgrow normal: {bad}" if bad
                     else "every leak app's buggy heap keeps growing "
                          "past a normal run's plateau")


def _uninit(context):
    base, uninit = (row.values
                    for row in context["extra_uninit_mode"].rows)
    ok = (base["clean"] and uninit["clean"]
          and uninit["overhead"] > 1.5 * base["overhead"]
          and uninit["uninit_read_caught"])
    return ok, (f"ML+MC {base['overhead']:.2f}% -> with uninit reads "
                f"{uninit['overhead']:.2f}%; uninit read "
                + ("caught" if uninit["uninit_read_caught"]
                   else "missed"))


CLAIMS = [
    Claim("T2-values", "syscall costs match the paper's Table 2",
          _t2_microseconds, "table2"),
    Claim("T2-order", "mprotect < DisableWatchMemory < WatchMemory",
          _t2_ordering, "table2"),
    Claim("T3-detect", "SafeMem detects all seven bugs",
          _t3_all_detected, "table3"),
    Claim("T3-band", "SafeMem ML+MC stays in the production band "
          "at steady state", _t3_band, "table3"),
    Claim("T3-gap", "SafeMem is orders of magnitude cheaper than Purify",
          _t3_purify_gap, "table3"),
    Claim("T3-mc-ml", "corruption detection costs more than leak "
          "detection", _t3_mc_dominates_ml, "table3"),
    Claim("T3-whole", "at the default length, whole-run ML+MC stays in "
          "the production band, gzip near the paper's 3.0%",
          _t3_whole_run, "table3"),
    Claim("T3-purify", "Purify costs over 4.5x everywhere, most on a "
          "copy-heavy squid", _t3_purify_shape, "table3"),
    Claim("T4-reduction", "page guards waste ~64-74x more than ECC "
          "guards", _t4_reduction, "table4"),
    Claim("T4-gzip", "gzip's page-sized buffers waste exactly the 64x "
          "granularity ratio", _t4_gzip, "table4"),
    Claim("T5-counts", "false positives match the paper exactly",
          _t5_exact, "table5"),
    Claim("T5-bugs", "pruning never hides the real leak",
          _t5_true_leaks, "table5"),
    Claim("F3-stability", "group maximal lifetimes stabilize early",
          _f3_stability, "figure3"),
    Claim("F3-scale", "at a synthetic 25+-group population, 90% of "
          "groups stabilize in the first quarter", _f3_scale,
          "figure3_synthetic"),
    Claim("F4-sampling", "fleet sampling trades detection probability "
          "for overhead", _f4_sampling, "sampling"),
    Claim("HW-codecs", "the watchpoint contract holds on every ECC "
          "codec backend", _hw_codecs, "codecs"),
    Claim("TREND-pr", "streaming trend detectors catch the injected "
          "leak no later than the lifetime-outlier method on at least "
          "one scenario, with zero alerts on clean runs",
          _trend_headtohead, "trend"),
    Claim("SEASON-pr", "the seasonal baseline raises zero trend "
          "alerts on clean diurnal traffic that false-alarms every "
          "flat detector, while still catching every injected leak",
          _season_headtohead, "season"),
    Claim("ABL-scramble", "one flipped bit is silently corrected; two "
          "or the chosen three fault; an unlucky triple mis-corrects",
          _scramble, "ablation_scramble"),
    Claim("ABL-hardware", "a friendlier ECC interface cuts SafeMem's "
          "overhead; free watchpoints leave under a quarter",
          _hardware, "ablation_hardware"),
    Claim("ABL-period", "a shorter checking period costs no less (under "
          "5%) and reports the leak no later", _period,
          "ablation_period"),
    Claim("ABL-sleak", "eager SLeak multipliers flag no fewer false "
          "positives; the paper's 2x still finds the leak", _multiplier,
          "ablation_threshold"),
    Claim("ABL-grouping", "the (size, callsig) key separates same-size "
          "sites; size-only grouping finds fewer leaks", _grouping,
          "ablation_grouping"),
    Claim("ABL-padding", "a guard pad catches overflows exactly as far "
          "as it reaches, at growing space cost", _padding,
          "ablation_padding"),
    Claim("SUP-heap", "continuous leaks keep growing the heap while "
          "normal runs plateau", _heap_growth, "extra_heap_growth"),
    Claim("SUP-uninit", "the uninit-read extension catches uninit reads "
          "at over 1.5x the ML+MC overhead", _uninit,
          "extra_uninit_mode"),
]


def validate(context):
    """Check every claim against ``context`` (experiment name ->
    result); returns a list of :class:`ClaimResult`."""
    results = []
    for claim in CLAIMS:
        try:
            passed, evidence = claim.check(context)
        except Exception as error:  # a crashed check is a failed claim
            passed, evidence = False, f"check raised {error!r}"
        results.append(ClaimResult(claim=claim, passed=passed,
                                   evidence=evidence))
    return results


def render_validation(results):
    from repro.analysis.tables import render_table
    rows = [
        (result.claim.ident,
         "PASS" if result.passed else "FAIL",
         result.claim.statement,
         result.evidence)
        for result in results
    ]
    failed = sum(1 for r in results if not r.passed)
    return render_table(
        f"Reproduction validation: {len(results) - failed}/"
        f"{len(results)} claims hold",
        ["claim", "status", "statement", "evidence"],
        rows,
    )


# ----------------------------------------------------------------------
# EXPERIMENTS.md claim block: machine-written, drift-proof
# ----------------------------------------------------------------------
#: markers bracketing the regenerable block in EXPERIMENTS.md.
BLOCK_BEGIN = "<!-- claim-matrix:begin (repro validate --write-experiments-md) -->"
BLOCK_END = "<!-- claim-matrix:end -->"


def render_experiments_block(results):
    """The fenced claim matrix committed in EXPERIMENTS.md.

    Deliberately shows each claim's *statement*, not its measured
    evidence: statements are stable across runs, so the committed block
    is deterministic and a tier-1 test can pin it without re-running
    the experiments.  Evidence lives in ``repro validate`` output.
    """
    passed = sum(1 for r in results if r.passed)
    width = max(len(r.claim.ident) for r in results) + 2
    lines = [
        BLOCK_BEGIN,
        f"{passed}/{len(results)} claims hold:",
        "",
        "```",
    ]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{result.claim.ident:<{width}}{status}  "
                     f"{result.claim.statement}")
    lines.extend(["```", BLOCK_END])
    return "\n".join(lines)


def expected_experiments_block():
    """The block as committed when every claim holds (test anchor)."""
    return render_experiments_block([
        ClaimResult(claim=claim, passed=True, evidence="")
        for claim in CLAIMS
    ])


def write_experiments_block(results, path):
    """Rewrite the marker-delimited block in ``path`` in place."""
    import pathlib
    path = pathlib.Path(path)
    text = path.read_text()
    begin = text.find(BLOCK_BEGIN)
    end = text.find(BLOCK_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"{path} has no {BLOCK_BEGIN!r}..{BLOCK_END!r} block to "
            "rewrite"
        )
    end += len(BLOCK_END)
    path.write_text(text[:begin] + render_experiments_block(results)
                    + text[end:])
    return path
