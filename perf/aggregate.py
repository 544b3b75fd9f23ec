"""Aggregation and checks for the repository benchmark.

perfbench (main.cpp) prints one JSON record per episode; this module turns
those records into the end-to-end and per-layer metrics and decides whether
the run was correct. Everything here is a pure function of the records, so
test_aggregate.py can drive it with forged inputs.
"""

import math
import statistics

# Percentiles considered for a tail; the reported tail is the highest one
# with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

# Phase spans that make up an episode's set-up, per workload.
SETUP_SPANS = ("topo.build", "core.setup", "serve.setup", "cluster.setup")

# Counts the traced copy of an episode must reproduce exactly.
IDENTITY_COUNTS = ("events", "segments", "work_items")

# Phase spans must cover an episode's host time to within this share.
COVERAGE_TOLERANCE = 0.10

MIGRATION_CAUSES = ("fork", "wake", "affinity", "linux-periodic",
                    "linux-newidle", "linux-push", "speed", "dwrr", "ule",
                    "hotplug")
PULL_REJECTIONS = ("below-average", "local-blocked", "above-threshold",
                   "migration-blocked", "numa-blocked", "domain-blocked",
                   "no-candidate", "no-victim", "hot-potato", "core-offline",
                   "affinity-failed", "sample-failed")

WORKLOADS = ("spmd_npb", "serve_recorded", "cluster_dvfs")


# ------------------------------------------------------------ statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """p-th percentile (0..100) by linear interpolation between ranks."""
    s = sorted(xs)
    if not s:
        return 0.0
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(xs):
    """(value, label): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it. With too few samples for any rung the
    maximum is reported and labelled as such."""
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = p
    if best is None:
        return (max(xs) if xs else 0.0), "max"
    return percentile(xs, best), "p%g" % best


# -------------------------------------------------------------- episodes

class Episode:
    """One parsed perfbench episode record."""

    def __init__(self, rec):
        self.cell = rec["cell"]
        self.pass_ = rec["pass"]
        self.traced = rec["traced"]
        self.spans = [tuple(s) for s in rec["spans"]]
        self.counts = rec["counts"]
        self.times = rec["times"]
        self.sim = rec["sim"]
        self.phase_ms = rec.get("phase_ms", [])
        self.failure = rec["failure"]

    def dur(self, name):
        """Summed duration (s) of the spans called `name`; 0 if absent."""
        return sum(e - s for n, _, s, e in self.spans if n == name) / 1e9

    def self_time(self, name):
        """Duration of `name` minus the time its child spans cover (s)."""
        children = sum(e - s for _, parent, s, e in self.spans
                       if parent == name)
        return self.dur(name) - children / 1e9

    def total(self):
        return self.dur("episode")

    def setup(self):
        return sum(self.dur(n) for n in SETUP_SPANS)

    def coverage(self):
        """Share of the episode's host time covered by its phase spans."""
        covered = sum(e - s for _, parent, s, e in self.spans
                      if parent == "episode") / 1e9
        return covered / self.total() if self.total() > 0 else 0.0


def parse(lines):
    """(episodes, end record) from perfbench's stdout lines."""
    import json
    episodes, end = [], None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("kind") == "episode":
            episodes.append(Episode(rec))
        elif rec.get("kind") == "end":
            end = rec
    return episodes, end


def by_cell(episodes):
    cells = {}
    for ep in episodes:
        cells.setdefault(ep.cell, []).append(ep)
    return cells


def cell_median_sum(episodes, value):
    """Sum over cells of the cell's median `value(ep)`: a pass's cost with
    each cell at its typical time, so one preempted episode moves nothing."""
    return sum(median([value(ep) for ep in eps])
               for eps in by_cell(episodes).values())


def per_episode_mean(episodes, value):
    """Mean of `value(ep)` per cell-median, i.e. per episode of one pass."""
    cells = by_cell(episodes)
    return cell_median_sum(episodes, value) / len(cells) if cells else 0.0


def cell_scaled(episodes, value):
    """Every episode's `value(ep)`, scaled by the mean of the cell medians
    over its own cell's median. Cells of different size then share one
    distribution, whose median does not jump between cells; a single-cell
    workload is left unchanged."""
    medians = {cell: median([value(ep) for ep in eps])
               for cell, eps in by_cell(episodes).items()}
    if not medians:
        return []
    mean = sum(medians.values()) / len(medians)
    return [value(ep) * mean / medians[ep.cell]
            for ep in episodes if medians[ep.cell] > 0]


# ---------------------------------------------------------------- checks

def determinism_failures(episodes):
    """Episodes whose deterministic results differ from the first untraced
    run of the same cell. Every key of the reference's counts and sim
    results must match exactly; traced copies may carry extra keys."""
    reference = {}
    for ep in episodes:
        if not ep.traced and ep.cell not in reference:
            reference[ep.cell] = ep
    bad = []
    for ep in episodes:
        ref = reference.get(ep.cell)
        if ref is None:
            bad.append((ep, "no untraced reference"))
            continue
        for field in ("counts", "sim"):
            mine, theirs = getattr(ep, field), getattr(ref, field)
            diff = sorted(k for k in theirs if mine.get(k) != theirs[k])
            if diff:
                bad.append((ep, "%s differ: %s" % (field, ", ".join(diff))))
                break
    return bad


def identity_failures(episodes):
    """Traced episodes whose identity counts (events, segments, requests
    completed, migrations by cause) differ from their untraced twin in the
    same pass."""
    untraced = {(ep.cell, ep.pass_): ep for ep in episodes if not ep.traced}
    bad = []
    for ep in episodes:
        if not ep.traced:
            continue
        twin = untraced.get((ep.cell, ep.pass_))
        if twin is None:
            bad.append((ep, "no untraced twin"))
            continue
        keys = [k for k in twin.counts
                if k in IDENTITY_COUNTS or k.startswith("mig.")]
        diff = [k for k in keys if ep.counts.get(k) != twin.counts[k]]
        if diff:
            bad.append((ep, "identity counts differ: " + ", ".join(diff)))
    return bad


def coverage_failures(episodes):
    return [(ep, "phase spans cover %.1f%% of host time" % (100 * ep.coverage()))
            for ep in episodes
            if ep.traced and abs(ep.coverage() - 1.0) > COVERAGE_TOLERANCE]


def floor_failures(workload, first_pass):
    """Coverage floors: the mechanism each workload exists to exercise must
    have done some work."""
    def total(key):
        return sum(ep.counts.get(key, 0) for ep in first_pass)
    if workload == "spmd_npb" and total("mig.speed") == 0:
        return ["no speed-balancer migrations"]
    if workload == "serve_recorded":
        if total("pull.pulled") == 0:
            return ["no speed-balancer pulls"]
        if total("spans") == 0:
            return ["no request spans recorded"]
    if workload == "cluster_dvfs" and total("pool_migrations") == 0:
        return ["no pool migrations"]
    return []


# --------------------------------------------------------------- metrics

def first_pass(episodes):
    return [ep for ep in episodes if ep.pass_ == 0 and not ep.traced]


def end_to_end(workload, episodes, end):
    """End-to-end metrics from untraced episodes: {name: (value, unit, note)}."""
    untraced = [ep for ep in episodes if not ep.traced]
    first = first_pass(episodes)
    n = len(untraced)
    pass_s = cell_median_sum(untraced, Episode.total)
    n_cells = len(by_cell(untraced))
    work = sum(ep.counts.get("work_items", 0) for ep in first)
    totals = cell_scaled(untraced, Episode.total)
    tail_value, tail_label = tail(totals)
    if workload == "spmd_npb":
        p99 = percentile([t for ep in first for t in ep.phase_ms], 99)
        p99_note = "barrier phases, simulated"
    else:
        p99 = median([ep.sim["p99_ms"] for ep in first])
        p99_note = "request latency, simulated"
    return {
        "setup_s": (median([ep.setup() for ep in untraced]), "s",
                    "median of n=%d episodes" % n),
        "episodes_per_s": (n_cells / pass_s if pass_s else 0.0, "1/s",
                           "%d cells at their median time" % n_cells),
        "requests_per_s": (work / pass_s if pass_s else 0.0, "1/s",
                           "work items (%s) per host s" %
                           ("barrier phases" if workload == "spmd_npb"
                            else "completed requests")),
        "episode_s_p50": (median(totals), "s", "n=%d" % n),
        "episode_s_tail": (tail_value, "s", "%s of n=%d" % (tail_label, n)),
        "peak_rss_mb": (end["peak_rss_mb"] if end else 0.0, "MB",
                        "whole process, first pass"),
        "simulated_p99_ms": (p99, "ms", p99_note),
    }


def report_only(workload, episodes):
    """End-to-end quantities printed but not gated (see README.md): they are
    zero or undefined on some workloads. {name: (value or None, unit)}."""
    first = first_pass(episodes)
    out = {}
    if workload == "spmd_npb":
        load = [ep.sim["runtime_s"] for ep in first
                if ep.cell.endswith("/LOAD-YIELD")]
        speed = [ep.sim["runtime_s"] for ep in first
                 if ep.cell.endswith("/SPEED-YIELD")]
        out["simulated_speed_over_load"] = (
            statistics.mean(load) / statistics.mean(speed)
            if load and speed else None, "ratio")
        out["simulated_drop_rate"] = (None, "ratio")
    else:
        out["simulated_speed_over_load"] = (None, "ratio")
        out["simulated_drop_rate"] = (
            median([ep.sim["drop_rate"] for ep in first]), "ratio")
    return out


def _mean_count(episodes, key):
    """Mean of a count per episode that carries it (0 when none does)."""
    vals = [ep.counts[key] for ep in episodes if key in ep.counts]
    return statistics.mean(vals) if vals else 0.0


def per_layer(workload, episodes):
    """Per-layer metrics from a --trace 1 run: {name: (value, unit)}.
    Times are per-cell medians averaged per episode; counts are per-episode
    means over the first pass, so they are deterministic."""
    traced = [ep for ep in episodes if ep.traced]
    untraced = [ep for ep in episodes if not ep.traced]
    first = [ep for ep in traced if ep.pass_ == 0]

    def t(value):
        return per_episode_mean(traced, value)

    def c(key):
        return _mean_count(first, key)

    spmd = workload == "spmd_npb"
    serve = workload == "serve_recorded"
    cluster = workload == "cluster_dvfs"
    m = {}
    m["topo.build_s"] = (t(lambda ep: ep.dur("topo.build")), "s")
    m["core.setup_s"] = (t(lambda ep: ep.dur("core.setup")), "s")
    m["core.harvest_s"] = (t(lambda ep: ep.self_time("core.harvest")), "s")

    loop_span = "sim.loop" if spmd else "serve.loop"
    loop_s = t(lambda ep: ep.dur(loop_span)) if not cluster else 0.0
    events, segments, sim_s = c("events"), c("segments"), c("sim_s")
    m["sim.loop_s"] = (loop_s, "s")
    m["sim.events"] = (events, "count")
    m["sim.events_per_sim_s"] = (events / sim_s if sim_s else 0.0, "1/sim_s")
    m["sim.ns_per_event"] = (1e9 * loop_s / events if events and loop_s else 0.0,
                             "ns")
    m["sim.segments"] = (segments, "count")
    m["sim.segments_per_event"] = (segments / events if events else 0.0, "ratio")
    m["sim.tasks"] = (c("tasks"), "count")
    m["sim.segments_drain_s"] = (t(lambda ep: ep.dur("sim.segments_drain")), "s")
    m["sim.window_query_ns"] = (t(
        lambda ep: 1e9 * ep.dur("sim.window_query") / ep.counts["window_queries"]
        if ep.counts.get("window_queries") else 0.0), "ns")

    for cause in MIGRATION_CAUSES:
        m["balance.migrations." + cause] = (c("mig." + cause), "count")
    recorded = [ep for ep in first if "pull.pulled" in ep.counts]
    pulled = _mean_count(recorded, "pull.pulled")
    m["balance.pulls.performed"] = (pulled, "count")
    decisions = pulled
    for reason in PULL_REJECTIONS:
        v = _mean_count(recorded, "pull." + reason)
        decisions += v
        m["balance.pulls.rejected." + reason] = (v, "count")
    m["balance.pull_yield"] = (pulled / decisions if decisions else 0.0, "ratio")
    ratio = report_only(workload, untraced)["simulated_speed_over_load"][0]
    m["balance.speed_over_load"] = (ratio or 0.0, "ratio")

    def sc(key):
        return c(key) if serve else 0.0
    serve_loop = loop_s if serve else 0.0
    m["serve.setup_s"] = (t(lambda ep: ep.dur("serve.setup")), "s")
    m["serve.loop_s"] = (serve_loop, "s")
    m["serve.harvest_s"] = (t(lambda ep: ep.self_time("serve.harvest")), "s")
    for key in ("generated", "offered", "admitted", "dropped", "completed"):
        m["serve." + key] = (sc(key), "count")
    m["serve.admit_ratio"] = (sc("admitted") / sc("offered")
                              if sc("offered") else 0.0, "ratio")
    m["serve.drop_rate"] = (sc("dropped") / sc("offered")
                            if sc("offered") else 0.0, "ratio")
    m["serve.max_queue_depth"] = (sc("max_queue_depth"), "count")

    def cc(key):
        return c(key) if cluster else 0.0
    m["cluster.setup_s"] = (t(lambda ep: ep.dur("cluster.setup")), "s")
    m["cluster.run_s"] = (t(lambda ep: ep.dur("cluster.run")), "s")
    m["cluster.node_events"] = (cc("events"), "count")
    m["cluster.node_events_per_request"] = (
        cc("events") / cc("generated") if cc("generated") else 0.0, "ratio")
    m["cluster.node_tasks"] = (cc("tasks"), "count")
    m["cluster.node_migrations"] = (
        sum(cc("mig." + cause) for cause in MIGRATION_CAUSES), "count")
    m["cluster.pool_migrations"] = (cc("pool_migrations"), "count")
    m["cluster.peak_imbalance"] = (cc("peak_imbalance"), "ratio")
    for key in ("offered", "dropped", "completed"):
        m["cluster." + key] = (cc(key), "count")
    m["cluster.drop_rate"] = (cc("dropped") / cc("offered")
                              if cc("offered") else 0.0, "ratio")

    hot = t(lambda ep: ep.times.get("obs_hot_s", 0.0))
    m["obs.hot_s"] = (hot, "s")
    m["obs.export_s"] = (t(lambda ep: ep.times.get("obs_export_s", 0.0)), "s")
    m["obs.report_write_s"] = (t(lambda ep: ep.dur("obs.report_write")), "s")
    m["obs.report_bytes"] = (c("report_bytes"), "bytes")
    m["obs.spans"] = (c("spans"), "count")
    m["obs.spans_dropped"] = (c("spans_dropped"), "count")
    m["obs.decisions_dropped"] = (c("decisions_dropped"), "count")
    m["obs.run_segments_dropped"] = (c("run_segments_dropped"), "count")
    m["obs.share_of_loop"] = (hot / serve_loop if serve_loop else 0.0, "ratio")

    m["util.stats.percentile_ns"] = (
        t(lambda ep: ep.times.get("percentile_ns", 0.0)), "ns")
    m["util.stats.merge_ns"] = (t(lambda ep: ep.times.get("merge_ns", 0.0)), "ns")

    base = cell_median_sum(untraced, Episode.total)
    m["bench.trace_overhead_pct"] = (
        100.0 * (cell_median_sum(traced, Episode.total) / base - 1.0)
        if base else 0.0, "%")
    return m


def evaluate(workload, episodes, end, trace):
    """The run's verdict: {'correct', 'attempted', 'failed', 'problems',
    'metrics' (name -> (value, unit)), 'notes', 'report_only'}."""
    problems = []
    failed = {id(ep) for ep in episodes if ep.failure}
    for ep in episodes:
        if ep.failure:
            problems.append("%s pass %d: %s" % (ep.cell, ep.pass_, ep.failure))
    checks = determinism_failures(episodes)
    if trace:
        checks += identity_failures(episodes) + coverage_failures(episodes)
    for ep, why in checks:
        failed.add(id(ep))
        problems.append("%s pass %d%s: %s"
                        % (ep.cell, ep.pass_, " traced" if ep.traced else "",
                           why))
    first = first_pass(episodes)
    problems += floor_failures(workload, first)
    if end is None:
        problems.append("perfbench printed no end record")
    if not first:
        problems.append("no complete first pass")

    result = {
        "attempted": len(episodes),
        "failed": len(failed),
        "correct": not problems and bool(episodes),
        "problems": problems,
        "report_only": report_only(workload, episodes) if first else {},
    }
    if trace:
        result["metrics"] = {k: (v, u) for k, (v, u)
                             in per_layer(workload, episodes).items()}
        result["notes"] = {}
    else:
        e2e = end_to_end(workload, episodes, end) if first else {}
        result["metrics"] = {k: (v, u) for k, (v, u, _) in e2e.items()}
        result["notes"] = {k: note for k, (_, _, note) in e2e.items()}
    return result


def digest(workload, episodes):
    """Human-readable lines summarising the first pass's simulated results
    (runtimes, latency percentiles, migrations by cause). Not a gate."""
    first = first_pass(episodes)
    lines = []
    for ep in first:
        if workload == "spmd_npb":
            what = "runtime %.3f s" % ep.sim["runtime_s"]
        else:
            what = "latency p50 %.2f / p99 %.2f / max %.1f ms, drop rate %.4f" % (
                ep.sim["p50_ms"], ep.sim["p99_ms"], ep.sim["max_ms"],
                ep.sim["drop_rate"])
        migs = ", ".join("%s %d" % (k[4:], v) for k, v in
                         sorted(ep.counts.items())
                         if k.startswith("mig.") and v)
        lines.append("%s: %s; migrations: %s" % (ep.cell, what, migs or "none"))
    return lines
