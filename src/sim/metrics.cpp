#include "sim/metrics.hpp"

#include <algorithm>
#include <numeric>

namespace speedbal {

const char* to_string(MigrationCause cause) {
  switch (cause) {
    case MigrationCause::ForkPlacement: return "fork";
    case MigrationCause::WakePlacement: return "wake";
    case MigrationCause::Affinity: return "affinity";
    case MigrationCause::LinuxPeriodic: return "linux-periodic";
    case MigrationCause::LinuxNewIdle: return "linux-newidle";
    case MigrationCause::LinuxPush: return "linux-push";
    case MigrationCause::SpeedBalancer: return "speed";
    case MigrationCause::Dwrr: return "dwrr";
    case MigrationCause::Ule: return "ule";
    case MigrationCause::Hotplug: return "hotplug";
  }
  return "?";
}

MigrationCause parse_migration_cause(std::string_view s) {
  for (std::size_t i = 0; i < kNumMigrationCauses; ++i) {
    const auto cause = static_cast<MigrationCause>(i);
    if (s == to_string(cause)) return cause;
  }
  return MigrationCause::Affinity;
}

void Metrics::record_migration(const MigrationRecord& rec) {
  migrations_.push_back(rec);
  ++cause_counts_[static_cast<std::size_t>(rec.cause)];
  if (recorder_ != nullptr) {
    // Compact POD append; converted to trace instants in batches when the
    // telemetry buffer flushes (balance-interval granularity), replacing
    // the old per-migration trace write (mutex + string formatting each).
    recorder_->telemetry().append(
        {rec.time, rec.task, static_cast<std::int16_t>(rec.from),
         static_cast<std::int16_t>(rec.to)},
        static_cast<std::uint8_t>(rec.cause));
  }
}

void Metrics::set_recorder(obs::RunRecorder* rec) {
  recorder_ = rec;
  if (rec == nullptr) return;
  std::vector<std::string> names(kNumMigrationCauses);
  for (std::size_t i = 0; i < kNumMigrationCauses; ++i)
    names[i] = to_string(static_cast<MigrationCause>(i));
  rec->telemetry().set_kind_names(std::move(names));
}

void Metrics::record_run(TaskId task, CoreId core, SimTime dur) {
  const auto t = static_cast<std::size_t>(task);
  if (t >= exec_.size()) exec_.resize(t + 1);
  auto& per_core = exec_[t];
  if (per_core.empty()) per_core.assign(static_cast<std::size_t>(num_cores_), 0);
  per_core[static_cast<std::size_t>(core)] += dur;
}

void Metrics::index_segment(const RunSegment& seg) const {
  const auto t = static_cast<std::size_t>(seg.task);
  const auto core = static_cast<std::int16_t>(seg.core);
  if (t >= intervals_.size()) {
    intervals_.resize(t + 1);
    last_core_.resize(t + 1, std::int16_t{-2});
  }
  auto& iv = intervals_[t];
  if (iv.empty() || seg.start >= iv.back().start) {
    // Exactly-contiguous continuation on the same core: extend the last
    // interval instead of appending. Windowed sums cannot tell the
    // difference, and back-to-back dispatches of a lone task collapse to
    // one entry.
    if (!iv.empty() && iv.back().end() == seg.start && last_core_[t] == core) {
      iv.back().dur += seg.dur;
      return;
    }
    const SimTime cum = iv.empty() ? 0 : iv.back().cum + iv.back().dur;
    iv.push_back({seg.start, seg.dur, cum});
    last_core_[t] = core;
    return;
  }
  // Out-of-order recording (not produced by the Simulator, but legal for
  // external callers): sorted insert, then rebuild the running sums from
  // the insertion point. Disable adjacent-merge for the next append — the
  // tail is no longer the record most recently seen.
  const auto pos = std::upper_bound(
      iv.begin(), iv.end(), seg.start,
      [](SimTime s, const Interval& i) { return s < i.start; });
  const auto idx = static_cast<std::size_t>(pos - iv.begin());
  iv.insert(pos, {seg.start, seg.dur, 0});
  for (std::size_t i = idx; i < iv.size(); ++i)
    iv[i].cum = i == 0 ? 0 : iv[i - 1].cum + iv[i - 1].dur;
  last_core_[t] = -2;
}

void Metrics::reset() {
  exec_.clear();
  intervals_.clear();
  last_core_.clear();
  indexed_ = 0;
  segments_.clear();
  migrations_.clear();
  cause_counts_.fill(0);
}

const std::vector<SimTime>& Metrics::exec_by_core(TaskId task) const {
  const auto t = static_cast<std::size_t>(task);
  if (task < 0 || t >= exec_.size() || exec_[t].empty()) return empty_;
  return exec_[t];
}

SimTime Metrics::total_exec(TaskId task) const {
  const auto& per_core = exec_by_core(task);
  return std::accumulate(per_core.begin(), per_core.end(), SimTime{0});
}

SimTime Metrics::exec_in_window(TaskId task, SimTime from, SimTime to) const {
  // Catch the index up with every segment recorded since the last query.
  for (; indexed_ < segments_.size(); ++indexed_)
    index_segment(segments_[indexed_]);
  const auto t = static_cast<std::size_t>(task);
  if (task < 0 || t >= intervals_.size() || from >= to) return 0;
  const auto& iv = intervals_[t];
  // First segment ending after `from` and first segment starting at/after
  // `to` bound the overlapping range; the running sums give its total
  // duration without iterating it.
  const auto lo = std::partition_point(
      iv.begin(), iv.end(), [from](const Interval& i) { return i.end() <= from; });
  const auto hi = std::partition_point(
      iv.begin(), iv.end(), [to](const Interval& i) { return i.start < to; });
  if (lo >= hi) return 0;
  const Interval& first = *lo;
  const Interval& last = *(hi - 1);
  SimTime total = last.cum + last.dur - first.cum;
  total -= std::max<SimTime>(0, from - first.start);
  total -= std::max<SimTime>(0, last.end() - to);
  return total;
}

double Metrics::residency_fraction(
    TaskId task, const std::function<bool(CoreId)>& pred) const {
  const auto& per_core = exec_by_core(task);
  SimTime total = 0;
  SimTime matched = 0;
  for (CoreId c = 0; c < num_cores_; ++c) {
    total += per_core[static_cast<std::size_t>(c)];
    if (pred(c)) matched += per_core[static_cast<std::size_t>(c)];
  }
  return total > 0 ? static_cast<double>(matched) / static_cast<double>(total)
                   : 0.0;
}

std::map<MigrationCause, std::int64_t> Metrics::migration_counts_by_cause() const {
  std::map<MigrationCause, std::int64_t> out;
  for (std::size_t i = 0; i < kNumMigrationCauses; ++i)
    if (cause_counts_[i] > 0) out[static_cast<MigrationCause>(i)] = cause_counts_[i];
  return out;
}

void export_run_to_recorder(const Metrics& metrics, obs::RunRecorder& rec,
                            int node) {
  for (const auto& [cause, count] : metrics.migration_counts_by_cause())
    rec.incr(std::string("migrations.") + to_string(cause), count);
  // One metered bulk copy of compact PODs; the recorder derives the "run"
  // trace spans lazily at write time. Doing this per segment through the
  // trace collector (string name + mutex each) used to cost several
  // milliseconds per run and showed up as a fake 40% serve-throughput gap.
  obs::OverheadMeter::Scoped meter(&rec.export_overhead());
  std::vector<obs::RunSegmentTable::Segment> batch;
  batch.reserve(metrics.segments().size());
  for (const auto& seg : metrics.segments())
    batch.push_back({seg.start, seg.dur, static_cast<std::int32_t>(seg.core),
                     static_cast<std::int32_t>(seg.task), node, 0});
  rec.run_segments().add_batch(std::move(batch));
}

}  // namespace speedbal
