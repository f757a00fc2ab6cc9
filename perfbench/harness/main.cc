// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <file>]
//   perfbench_harness --list-metrics   # metric names and units, as JSON
//   perfbench_harness --self-test      # statistics and span math checks
//
// --trace 0 (timed pass): sets the workload up five times (setup_s is the
// median), runs the closed loop for --seconds and prints the end-to-end
// metrics. --trace 1: sets up once, runs an untraced half and a traced half
// of --seconds and prints the per-layer metrics; the spans of the traced
// half go to --trace-out. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/client.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "orc/stripe_cache.h"
#include "table/scan_stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json names; test_harness.py keeps them in step.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"query_ms_geomean", "ms"},
    {"rows_scanned_per_s", "1/s"},
    {"read_ms_p50", "ms"},
    {"read_ms_p95", "ms"},
    {"dml_ms_p50", "ms"},
    {"dml_ms_p95", "ms"},
    {"point_us_p50", "us"},
    {"point_us_p99", "us"},
    {"space_amp", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sql.parse_us", "us"},
    {"sql.execute_self_us", "us"},
    {"dualtable.index_lookup_us", "us"},
    {"dualtable.union_read_ms", "ms"},
    {"dualtable.master_scan_ms", "ms"},
    {"dualtable.patch_ms", "ms"},
    {"dualtable.dml_locate_ms", "ms"},
    {"dualtable.compact_ms", "ms"},
    {"dualtable.compact_rows_rewritten", "count"},
    {"dualtable.plan_edit", "count"},
    {"dualtable.plan_overwrite", "count"},
    {"dualtable.cost_pred_error", "ratio"},
    {"kv.delta_scan_ms", "ms"},
    {"kv.delta_cells", "count"},
    {"kv.get_us", "us"},
    {"kv.bytes_written", "B"},
    {"kv.sstables", "count"},
    {"orc.decode_ns_per_value", "ns"},
    {"orc.stripe_cache_hit_rate", "ratio"},
    {"orc.stripe_cache_evictions", "1/stmt"},
    {"fs.read_mb_per_s", "MB/s"},
    {"fs.bytes_read_per_query", "B"},
    {"fs.bytes_written_per_dml", "B"},
    {"fs.write_amp", "ratio"},
    {"table.passthrough_batch_frac", "ratio"},
    {"table.materialized_rows_frac", "ratio"},
    {"table.stripes_skipped_frac", "ratio"},
    {"exec.self_ms", "ms"},
    {"exec.parallel_aggregate_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_scan_cold") return MakeTpchScanCold();
  if (name == "update_read_mix") return MakeUpdateReadMix();
  if (name == "point_serving") return MakePointServing();
  return nullptr;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cache and scan-meter movement over one pass of the loop.
struct PassCounters {
  dtl::orc::StripeCacheStats cache;
  dtl::table::ScanSnapshot scan;

  static PassCounters Now() {
    return {dtl::orc::StripeCache::Default()->Stats(), dtl::table::GlobalScanMeter().Snapshot()};
  }
  PassCounters Since(const PassCounters& before) const {
    PassCounters d;
    d.cache.hits = cache.hits - before.cache.hits;
    d.cache.misses = cache.misses - before.cache.misses;
    d.cache.evictions = cache.evictions - before.cache.evictions;
    d.scan = scan - before.scan;
    return d;
  }
};

/// Runs whole rounds until `seconds` of wall time have passed.
uint64_t RunLoop(Workload* workload, Client* client, double seconds) {
  const Clock::time_point start = Clock::now();
  uint64_t rounds = 0;
  while (SecondsSince(start) < seconds) {
    workload->Round(client);
    ++rounds;
  }
  return rounds;
}

/// Average logical (decoded, in-memory) bytes per row of `table`.
double LogicalRowBytes(dtl::sql::Session* session, const std::string& table) {
  auto entry = session->catalog()->Lookup(table);
  if (!entry.ok()) return 0;
  auto it = entry->table->Scan(dtl::table::ScanSpec{});
  if (!it.ok()) return 0;
  double bytes = 0, rows = 0;
  while ((*it)->Next()) {
    for (const dtl::Value& v : (*it)->row()) bytes += static_cast<double>(v.ByteSize());
    rows += 1;
  }
  return Ratio(bytes, rows);
}

/// Stored bytes now over stored bytes after a full COMPACT of every table.
double SpaceAmp(Workload* workload, Client* client) {
  dtl::sql::Session* session = workload->session();
  const double before = static_cast<double>(session->fs()->TotalBytesStored());
  for (const std::string& table : workload->tables()) {
    auto st = session->Execute("COMPACT TABLE " + table);
    if (!st.ok()) client->Fail("final COMPACT " + table + ": " + st.status().ToString());
  }
  return Ratio(before, static_cast<double>(session->fs()->TotalBytesStored()));
}

bool IsCold(Workload* workload) { return std::strcmp(workload->regime(), "cold") == 0; }

/// Fails the run when the cache regime drifted from the workload's label:
/// a cold workload's scans must (almost) never hit the stripe cache, a warm
/// one's must hit at least a quarter of the time. Warm stays well below 1
/// because every OVERWRITE and COMPACT publishes new files whose first scan
/// per projection misses; a working set that stopped fitting falls to ~0.
void CheckRegime(Workload* workload, Client* client, double hit_rate) {
  const bool cold = IsCold(workload);
  if (cold && hit_rate > 0.05) {
    client->Fail("cold workload hit the stripe cache at rate " + std::to_string(hit_rate));
  }
  if (!cold && hit_rate < 0.25) {
    client->Fail("warm workload no longer fits the stripe cache (hit rate " +
                 std::to_string(hit_rate) + ")");
  }
}

void PrintSummary(const Args& args, Workload* workload, const Client& client,
                  uint64_t rounds, double hit_rate) {
  std::printf("perfbench workload=%s seed=%llu trace=%d regime=%s %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              workload->regime(), workload->Describe().c_str());
  std::printf("perfbench rounds=%llu statements=%llu failed=%llu stripe_cache_hit_rate=%.4f\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(client.attempted()),
              static_cast<unsigned long long>(client.failed()), hit_rate);
  for (const auto& [cls, seconds] : client.by_class()) {
    std::printf("perfbench class=%s n=%zu p50_ms=%.4f p95_ms=%.4f", cls.c_str(),
                seconds.size(), Percentile(seconds, 0.5) * 1e3, Percentile(seconds, 0.95) * 1e3);
    auto plans = client.plans().find(cls);
    if (plans != client.plans().end()) {
      for (const auto& [plan, n] : plans->second) {
        std::printf(" plan_%s=%llu", plan.c_str(), static_cast<unsigned long long>(n));
      }
    }
    std::printf("\n");
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", defs[i].name, v, defs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int TimedRun(const Args& args) {
  constexpr int kSetups = 5;
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // one data set in memory at a time
    workload = MakeWorkload(args.workload);
    const Clock::time_point start = Clock::now();
    Status st = workload->Setup(args.seed);
    setup_seconds.push_back(SecondsSince(start));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  Client client(workload->session(), nullptr, IsCold(workload.get()));
  workload->Prepare(&client);
  const uint64_t rounds = RunLoop(workload.get(), &client, args.seconds);
  const double hit_rate = client.scan_cache_hit_rate();
  CheckRegime(workload.get(), &client, hit_rate);
  const double space_amp = SpaceAmp(workload.get(), &client);

  std::vector<double> class_medians;
  for (const auto& [cls, seconds] : client.by_class()) {
    class_medians.push_back(Median(seconds) * 1e3);
  }
  std::map<std::string, double> m;
  m["setup_s"] = Median(setup_seconds);
  m["ops_per_s"] = Ratio(static_cast<double>(client.attempted()), client.exec_seconds());
  m["peak_rss_mb"] = PeakRssMb();
  m["query_ms_geomean"] = GeoMean(class_medians);
  m["rows_scanned_per_s"] = Ratio(static_cast<double>(client.rows_scanned()), client.exec_seconds());
  m["read_ms_p50"] = Percentile(client.read_seconds(), 0.50) * 1e3;
  m["read_ms_p95"] = Percentile(client.read_seconds(), 0.95) * 1e3;
  m["dml_ms_p50"] = Percentile(client.dml_seconds(), 0.50) * 1e3;
  m["dml_ms_p95"] = Percentile(client.dml_seconds(), 0.95) * 1e3;
  m["point_us_p50"] = Percentile(client.point_seconds(), 0.50) * 1e6;
  m["point_us_p99"] = Percentile(client.point_seconds(), 0.99) * 1e6;
  m["space_amp"] = space_amp;

  PrintSummary(args, workload.get(), client, rounds, hit_rate);
  std::printf("perfbench setup_s_each=");
  for (double s : setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");
  PrintResult(client.failed() == 0, client.attempted(), client.failed(), kEndToEnd, m);
  return 0;
}

int TracedRun(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (Status st = workload->Setup(args.seed); !st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  dtl::sql::Session* session = workload->session();

  // Untraced half: the reference throughput and the cache/skip counters.
  const bool cold = IsCold(workload.get());
  Client plain(session, nullptr, cold);
  workload->Prepare(&plain);
  const double row_bytes = LogicalRowBytes(session, workload->tables().front());
  const PassCounters before = PassCounters::Now();
  const uint64_t plain_rounds = RunLoop(workload.get(), &plain, args.seconds / 2);
  const PassCounters pass = PassCounters::Now().Since(before);
  const double hit_rate = plain.scan_cache_hit_rate();
  CheckRegime(workload.get(), &plain, hit_rate);

  // Traced half: spans around the statements and their layer replays.
  SpanRecorder spans;
  Client traced(session, &spans, cold);
  const size_t audit_cursor = session->cost_audit()->size();
  const uint64_t traced_rounds = RunLoop(workload.get(), &traced, args.seconds / 2);

  const LayerSamples& s = traced.layers();
  // Per-statement means: a layer's cost averaged over the statements that
  // reach it (medians would pick whichever statement class is most common).
  const auto mean = [&s](const char* metric) {
    auto it = s.samples.find(metric);
    return it == s.samples.end() ? 0.0 : Mean(it->second);
  };
  std::map<std::string, double> m;
  for (const char* metric :
       {"sql.parse_us", "sql.execute_self_us", "dualtable.index_lookup_us",
        "dualtable.union_read_ms", "dualtable.master_scan_ms", "dualtable.patch_ms",
        "dualtable.dml_locate_ms", "dualtable.compact_ms", "dualtable.compact_rows_rewritten",
        "kv.delta_scan_ms", "kv.delta_cells", "kv.get_us", "kv.bytes_written",
        "fs.bytes_read_per_query", "fs.bytes_written_per_dml", "exec.self_ms",
        "exec.parallel_aggregate_ms"}) {
    m[metric] = mean(metric);
  }
  m["dualtable.plan_edit"] = s.Sum("dualtable.plan_edit");
  m["dualtable.plan_overwrite"] = s.Sum("dualtable.plan_overwrite");
  m["dualtable.cost_pred_error"] = session->cost_audit()->MeanPredictionErrorSince(audit_cursor);
  double sstables = 0;
  for (const std::string& name : workload->tables()) {
    auto entry = session->catalog()->Lookup(name);
    auto* t = entry.ok() ? dynamic_cast<dtl::dual::DualTable*>(entry->table.get()) : nullptr;
    if (t != nullptr) sstables += static_cast<double>(t->attached()->store()->NumSstables());
  }
  m["kv.sstables"] = sstables;
  m["orc.decode_ns_per_value"] = Ratio(s.Sum("orc.decode_ns"), s.Sum("orc.values_decoded"));
  m["orc.stripe_cache_hit_rate"] = hit_rate;
  m["orc.stripe_cache_evictions"] =
      Ratio(static_cast<double>(pass.cache.evictions), static_cast<double>(plain.attempted()));
  m["fs.read_mb_per_s"] = Ratio(s.Sum("fs.read_bytes"), s.Sum("fs.read_us"));
  m["fs.write_amp"] =
      Ratio(s.Sum("fs.change_bytes_written"), s.Sum("dml.rows_changed") * row_bytes);
  m["table.passthrough_batch_frac"] =
      Ratio(s.Sum("table.passthrough_batches"), s.Sum("table.batches"));
  m["table.materialized_rows_frac"] = Ratio(s.Sum("table.materialized_rows"), s.Sum("table.rows"));
  const double stripes_loaded = static_cast<double>(pass.cache.hits + pass.cache.misses);
  m["table.stripes_skipped_frac"] =
      Ratio(static_cast<double>(pass.scan.stripes_skipped),
            static_cast<double>(pass.scan.stripes_skipped) + stripes_loaded);
  const double plain_ops = Ratio(static_cast<double>(plain.attempted()), plain.exec_seconds());
  const double traced_ops = Ratio(static_cast<double>(traced.attempted()), traced.exec_seconds());
  m["trace.overhead_pct"] = Ratio(plain_ops - traced_ops, plain_ops) * 100.0;

  PrintSummary(args, workload.get(), traced, plain_rounds + traced_rounds, hit_rate);
  std::printf("perfbench spans=%zu", spans.spans().size());
  for (const auto& [name, us] : spans.SelfTimeByName()) {
    std::printf(" self_ms[%s]=%.3f", name.c_str(), us / 1e3);
  }
  std::printf("\n");
  if (!args.trace_out.empty()) {
    if (spans.WriteJsonLines(args.trace_out)) {
      std::printf("perfbench trace written to %s\n", args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  const uint64_t attempted = plain.attempted() + traced.attempted();
  const uint64_t failed = plain.failed() + traced.failed();
  PrintResult(failed == 0, attempted, failed, kPerLayer, m);
  return 0;
}

void ListMetrics() {
  const auto print = [](const char* key, const std::vector<MetricDef>& defs) {
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i > 0 ? ", " : "", defs[i].name,
                  defs[i].unit);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [\"tpch_scan_cold\", \"update_read_mix\", \"point_serving\"], ");
  print("end_to_end", kEndToEnd);
  std::printf(", ");
  print("per_layer", kPerLayer);
  std::printf("}\n");
}

int SelfTest() {
  int failures = SelfTestStats();
  // Span self time: a request with one child keeps its duration minus the
  // child's, and the child inherits the request id.
  SpanRecorder spans;
  const uint32_t root = spans.BeginRequest("request.x");
  const uint32_t child = spans.Begin("layer.a", root);
  spans.End(child);
  spans.End(root);
  const auto self = spans.SelfTimeByName();
  const SpanRecord& r = spans.spans()[0];
  const SpanRecord& c = spans.spans()[1];
  if (c.request != r.request || c.parent != r.id ||
      std::fabs(self.at("request.x") - (r.duration_us() - c.duration_us())) > 1e-6) {
    std::fprintf(stderr, "self-test FAILED: span self time\n");
    ++failures;
  }
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && MakeWorkload(args->workload) != nullptr && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    perfbench::ListMetrics();
    return 0;
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return perfbench::SelfTest();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload tpch_scan_cold|update_read_mix|point_serving "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return args.trace == 1 ? perfbench::TracedRun(args) : perfbench::TimedRun(args);
}
