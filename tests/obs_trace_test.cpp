// Observability layer: the trace collector, speed timeline, decision log,
// and the RunRecorder exporters. The Chrome-trace and run-report outputs
// are parsed back with the in-tree JSON parser, so these tests double as
// validity checks for what --trace-out / --report-json write to disk.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <locale>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"
#include "obs/recorder.hpp"
#include "topo/presets.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace speedbal {
namespace {

using obs::DecisionRecord;
using obs::PullReason;
using obs::RunRecorder;
using obs::SpeedSample;

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", 42);
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().kv("k", "v").end_object();
  w.end_object();

  const auto doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("name").as_string(), "a \"quoted\"\nstring");
  EXPECT_EQ(doc.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 0.5);
  EXPECT_TRUE(doc.at("on").as_bool());
  ASSERT_EQ(doc.at("list").size(), 3u);
  EXPECT_EQ(doc.at("list")[2].as_int(), 3);
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, WriterEscapesExactly) {
  // Byte-for-byte: the writer escapes only '"', '\\' and bytes below 0x20
  // (\n, \r, \t by name, the rest as \u00XX), in keys and values alike, and
  // passes every other byte through unchanged.
  const std::string ctl("\x01", 1);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", ""},
      {"plain", "plain"},
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\n", "\\n"},
      {"\r", "\\r"},
      {"\t", "\\t"},
      {ctl, "\\u0001"},
      {std::string("\x1f", 1), "\\u001f"},
      {"\"lead", "\\\"lead"},
      {"mid\\dle", "mid\\\\dle"},
      {"trail\n", "trail\\n"},
      {"\ta\rb" + ctl + "c\"", "\\ta\\rb\\u0001c\\\""},
      {"\"\\\n\r\t" + ctl, "\\\"\\\\\\n\\r\\t\\u0001"},
      {"caf\xc3\xa9 /", "caf\xc3\xa9 /"},
  };
  for (const auto& [raw, escaped] : cases) {
    SCOPED_TRACE(escaped);
    std::ostringstream os;
    JsonWriter(os).begin_object().kv(raw, raw).end_object();
    EXPECT_EQ(os.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
    EXPECT_EQ(json_escape(raw), escaped);
    std::ostringstream arr;
    JsonWriter(arr).begin_array().value(raw).value(raw).end_array();
    EXPECT_EQ(arr.str(), "[\"" + escaped + "\",\"" + escaped + "\"]");
  }
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  // Numerals outside the RFC 8259 grammar, and one outside double range.
  for (const char* bad : {"+1", "01", ".5", "1.", "-", "-01", "1e", "1e+",
                          "[1.e5]", "0x10", "1e400"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(JsonValue::parse(bad), std::runtime_error);
  }
}

TEST(Json, ParserAcceptsRfcNumbers) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"0", 0.0},         {"-0", -0.0},        {"12", 12.0},
      {"-3.25", -3.25},   {"0.5e-3", 0.5e-3},  {"1E+2", 100.0},
      {"2e2", 200.0},
      // The writer's rendering of the smallest subnormal parses back.
      {"4.94065645841e-324", 4.94065645841e-324},
  };
  for (const auto& [text, want] : cases) {
    SCOPED_TRACE(text);
    const double got = JsonValue::parse(text).as_number();
    EXPECT_EQ(got, want);
    EXPECT_EQ(std::signbit(got), std::signbit(want));
  }
}

std::string written(double v) {
  std::ostringstream os;
  JsonWriter(os).value(v);
  return os.str();
}

TEST(Json, DoubleMatchesPrintfG12) {
  std::vector<double> corpus = {
      0.0,     -0.0,    5e-324,   -5e-324, 1e-7,   1e21,   1e-5,
      1e-4,    0.1,     1.0 / 3,  2.5,     -1.5,   100.0,  1e15,
      1e16,    1e17,    123456789012.0,    1234567890123.0, 999999999999.5,
      DBL_MIN, DBL_MAX, -DBL_MAX, 2.2250738585072009e-308};
  Rng rng(1509);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) corpus.push_back(v);
    corpus.push_back(rng.uniform(-1e6, 1e6));
    corpus.push_back(rng.uniform() *
                     std::pow(10.0, static_cast<double>(rng.uniform_int(-30, 30))));
    corpus.push_back(static_cast<double>(rng.uniform_int(-100000, 100000)) / 64);
  }
  int mismatches = 0;
  for (const double v : corpus) {
    char want[32];
    std::snprintf(want, sizeof(want), "%.12g", v);
    const std::string got = written(v);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << "value " << std::hexfloat << v << ": wrote " << got
                    << ", printf gives " << want;
  }
  EXPECT_EQ(mismatches, 0) << "of " << corpus.size() << " values";
  // JSON has no NaN or infinity.
  EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, IntegerExtremes) {
  std::ostringstream os;
  JsonWriter(os)
      .begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::int64_t>::max())
      .value(0)
      .value(-1)
      .value(std::size_t{42})
      .end_array();
  EXPECT_EQ(os.str(),
            "[-9223372036854775808,9223372036854775807,0,-1,42]");
  EXPECT_EQ(JsonValue::parse(os.str()).size(), 5u);
}

TEST(Json, AsIntIsExactAndRangeChecked) {
  // Integer tokens convert without passing through a double: 2^63 - 1 and
  // 2^53 + 1 would round there.
  EXPECT_EQ(JsonValue::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonValue::parse("9007199254740993").as_int(), 9007199254740993);
  // The writer's INT64_MAX round-trips.
  std::ostringstream os;
  JsonWriter(os).value(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(JsonValue::parse(os.str()).as_int(),
            std::numeric_limits<std::int64_t>::max());
  // Fraction and exponent tokens truncate toward zero while they fit.
  EXPECT_EQ(JsonValue::parse("1e3").as_int(), 1000);
  EXPECT_EQ(JsonValue::parse("-2.75").as_int(), -2);
  // Out of range: an error, never a wrapped or undefined conversion. The
  // values still parse as numbers.
  for (const char* text : {"9223372036854775808", "-9223372036854775809",
                           "9223372036854775808.0", "9.3e18", "1e300",
                           "-1e300"}) {
    const JsonValue v = JsonValue::parse(text);
    EXPECT_GT(std::abs(v.as_number()), 9e18) << text;
    EXPECT_THROW(v.as_int(), std::runtime_error) << text;
  }
}

// Groups thousands with ',' and uses ',' as the decimal point, so any
// number formatted through the stream's locale would come out as bad JSON.
struct GroupingPunct : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  char do_decimal_point() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(Json, WriterIgnoresStreamLocale) {
  std::ostringstream os;
  os.imbue(std::locale(std::locale::classic(), new GroupingPunct));
  JsonWriter(os)
      .begin_object()
      .kv("n", std::int64_t{1000000})
      .kv("i", 1234567)
      .kv("x", 1234567.5)
      .end_object();
  EXPECT_EQ(os.str(), R"({"n":1000000,"i":1234567,"x":1234567.5})");
  const auto doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("n").as_int(), 1000000);
  EXPECT_EQ(doc.at("x").as_number(), 1234567.5);
}

// Accepts `capacity` bytes, then refuses every further write.
class CappedBuf : public std::streambuf {
 public:
  explicit CappedBuf(std::size_t capacity) : data_(capacity) {
    setp(data_.data(), data_.data() + data_.size());
  }
  std::string str() const { return std::string(pbase(), pptr()); }

 private:
  std::vector<char> data_;
};

TEST(Json, RawWritesInterleave) {
  std::ostringstream os;
  JsonWriter(os).begin_array().value(1).value("a").end_array();
  os << "\n";
  JsonWriter(os).begin_object().kv("k", 2.5).end_object();
  os << '\n';
  EXPECT_EQ(os.str(), "[1,\"a\"]\n{\"k\":2.5}\n");

  CappedBuf roomy(64);
  std::ostream fits(&roomy);
  JsonWriter(fits).begin_object().kv("k", 1).end_object();
  EXPECT_TRUE(fits.good());
  EXPECT_EQ(roomy.str(), R"({"k":1})");
  CappedBuf one_short(6);  // only the closing brace is refused
  std::ostream clipped(&one_short);
  JsonWriter(clipped).begin_object().kv("k", 1).end_object();
  EXPECT_TRUE(clipped.bad());
  EXPECT_EQ(one_short.str(), R"({"k":1)");
  CappedBuf digits(3);  // a bare number is one block write
  std::ostream number(&digits);
  JsonWriter(number).value(123456);
  EXPECT_TRUE(number.bad());

  // A short write anywhere (punctuation, key, string, number) sets badbit.
  for (std::size_t cap : {0, 1, 3, 6, 9, 14}) {
    SCOPED_TRACE(cap);
    CappedBuf tight(cap);
    std::ostream out(&tight);
    JsonWriter(out).begin_object().kv("key", "text").kv("n", 123456).end_object();
    EXPECT_TRUE(out.bad());
  }
}

TEST(TraceCollector, DisabledEmitsNothing) {
  obs::TraceCollector tc;
  tc.set_enabled(false);
  tc.counter(0, "x", {{"v", 1.0}});
  tc.instant(0, 0, "e", "cat");
  tc.span(0, 10, 0, "s", "cat");
  EXPECT_EQ(tc.size(), 0u);
}

TEST(TraceCollector, SpanCapCountsDrops) {
  obs::TraceCollector tc;
  tc.set_span_cap(2);
  for (int i = 0; i < 5; ++i) tc.span(i, 1, 0, "s", "run");
  tc.instant(9, 0, "e", "cat");  // Instants are never capped.
  EXPECT_EQ(tc.size(), 3u);
  EXPECT_EQ(tc.dropped_spans(), 3);
}

/// Parse a Chrome trace and return the traceEvents array.
JsonValue parse_trace(const std::string& text) {
  auto doc = JsonValue::parse(text);
  EXPECT_NE(doc.find("traceEvents"), nullptr);
  return doc;
}

TEST(TraceCollector, ChromeTraceParsesAndIsOrderedPerTrack) {
  obs::TraceCollector tc;
  // Emit out of timestamp order across two tracks.
  tc.instant(300, 1, "c", "cat");
  tc.instant(100, 0, "a", "cat");
  tc.span(200, 50, 1, "b", "run");
  tc.counter(150, "speed", {{"v", 2.0}});

  std::ostringstream os;
  obs::write_chrome_trace(os, tc.snapshot(), "test-proc",
                          {{0, "core 0"}, {1, "core 1"}});
  const auto doc = parse_trace(os.str());
  const auto& events = doc.at("traceEvents");

  std::map<std::int64_t, std::int64_t> last_ts_by_tid;
  bool saw_process_name = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") {
      if (ev.at("name").as_string() == "process_name")
        saw_process_name =
            ev.at("args").at("name").as_string() == "test-proc";
      continue;
    }
    const std::int64_t tid = ev.at("tid").as_int();
    const std::int64_t ts = ev.at("ts").as_int();
    auto it = last_ts_by_tid.find(tid);
    if (it != last_ts_by_tid.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts_by_tid[tid] = ts;
  }
  EXPECT_TRUE(saw_process_name);
  // 4 events beyond the 3 metadata records.
  EXPECT_EQ(events.size(), 3u + 4u);
}

TEST(SpeedTimeline, GlobalStats) {
  obs::SpeedTimeline tl;
  tl.set_cores({0, 1});
  for (const double g : {1.0, 2.0, 3.0}) {
    SpeedSample s;
    s.ts_us = static_cast<std::int64_t>(g * 100);
    s.global = g;
    s.core_speed = {g, g};
    s.queue_len = {1, 1};
    s.below_threshold = {false, false};
    tl.add(s);
  }
  const auto stats = tl.global_stats();
  EXPECT_EQ(stats.samples, 3);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.variance, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
}

TEST(DecisionLog, CountsAndRecordCap) {
  obs::DecisionLog log;
  log.set_record_cap(2);
  DecisionRecord rec;
  rec.reason = PullReason::Pulled;
  log.add(rec);
  rec.reason = PullReason::AboveThreshold;
  log.add(rec);
  log.add(rec);
  EXPECT_EQ(log.count(PullReason::Pulled), 1);
  EXPECT_EQ(log.count(PullReason::AboveThreshold), 2);
  // Counters keep counting past the cap; record storage does not.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1);
}

TEST(RunRecorder, ReportRoundTripsCounters) {
  RunRecorder rec;
  rec.set_meta("tool", "unit-test");
  rec.incr("migrations.speed", 7);
  rec.incr("migrations.speed", 3);
  DecisionRecord d;
  d.reason = PullReason::Pulled;
  rec.decisions().add(d);
  d.reason = PullReason::NumaBlocked;
  rec.decisions().add(d);

  std::ostringstream os;
  rec.write_report_json(os);
  const auto doc = JsonValue::parse(os.str());

  EXPECT_EQ(doc.at("meta").at("tool").as_string(), "unit-test");
  const auto& counters = doc.at("counters");
  EXPECT_EQ(counters.at("migrations.speed").as_int(), 10);
  EXPECT_EQ(counters.at("pulls.performed").as_int(), 1);
  EXPECT_EQ(counters.at("pulls.rejected.numa-blocked").as_int(), 1);
  EXPECT_EQ(doc.at("decisions").at("by_reason").at("pulled").as_int(), 1);
  ASSERT_EQ(doc.at("decisions").at("records").size(), 2u);
  EXPECT_EQ(doc.at("decisions").at("records")[0].at("reason").as_string(),
            "pulled");
}

TEST(RunRecorder, TraceContainsTimelineAndPullEvents) {
  RunRecorder rec;
  rec.set_meta("tool", "unit-test");
  rec.timeline().set_cores({0, 1});
  SpeedSample s;
  s.ts_us = 100;
  s.global = 1.5;
  s.core_speed = {1.0, 2.0};
  s.queue_len = {2, 1};
  s.below_threshold = {true, false};
  rec.timeline().add(s);
  DecisionRecord d;
  d.ts_us = 100;
  d.local = 0;
  d.source = 1;
  d.victim = 42;
  d.reason = PullReason::Pulled;
  rec.decisions().add(d);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const auto doc = JsonValue::parse(os.str());
  const auto& events = doc.at("traceEvents");

  bool saw_global_counter = false;
  bool saw_pull_instant = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const std::string ph = ev.at("ph").as_string();
    if (ph == "C" && ev.at("name").as_string() == "global speed") {
      saw_global_counter = true;
      EXPECT_DOUBLE_EQ(ev.at("args").at("speed").as_number(), 1.5);
    }
    if (ph == "i" && ev.at("name").as_string() == "pull") {
      saw_pull_instant = true;
      EXPECT_EQ(ev.at("args").at("victim").as_int(), 42);
      EXPECT_EQ(ev.at("args").at("from").as_int(), 1);
      EXPECT_EQ(ev.at("args").at("to").as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_global_counter);
  EXPECT_TRUE(saw_pull_instant);
}

/// End-to-end: a small SPEED-YIELD simulation recorded through the same
/// path simrun uses, then both exports parsed back.
TEST(RunRecorder, EndToEndSimulatedRun) {
  const auto topo = presets::by_name("generic2");
  const auto prof = npb::by_name("ep.S");
  auto config = scenarios::npb_config(topo, prof, /*threads=*/3, /*cores=*/2,
                                      scenarios::Setup::SpeedYield,
                                      /*repeats=*/1, /*seed=*/42);
  RunRecorder rec;
  config.recorder = &rec;
  const auto result = run_experiment(config);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs[0].completed);

  // The balancer sampled speeds at balance intervals and logged decisions.
  EXPECT_GT(rec.timeline().size(), 0u);
  EXPECT_GT(rec.decisions().size(), 0u);
  const auto stats = rec.timeline().global_stats();
  EXPECT_GT(stats.mean, 0.0);

  // One "migration" instant per recorded migration.
  std::ostringstream trace_os;
  rec.write_chrome_trace(trace_os);
  const auto trace = JsonValue::parse(trace_os.str());
  std::int64_t migration_instants = 0;
  const auto& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.at("ph").as_string() == "i" &&
        ev.at("name").as_string() == "migration")
      ++migration_instants;
  }
  EXPECT_EQ(migration_instants, result.runs[0].total_migrations);

  // The report's counters agree with the run's per-cause migration totals.
  std::ostringstream report_os;
  rec.write_report_json(report_os);
  const auto report = JsonValue::parse(report_os.str());
  EXPECT_EQ(report.at("global_speed").at("samples").as_int(),
            static_cast<std::int64_t>(rec.timeline().size()));
  std::int64_t counted = 0;
  for (const auto& [name, value] : report.at("counters").members())
    if (name.rfind("migrations.", 0) == 0) counted += value.as_int();
  EXPECT_EQ(counted, result.runs[0].total_migrations);
}

}  // namespace
}  // namespace speedbal
