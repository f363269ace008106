// perfbench: the repository benchmark. One caller runs TSJ joins back to
// back in a closed loop on a seeded workload, times every call from
// outside the library, checks that every result is exact, and prints its
// metrics by name with their units; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload ring|ring-spill|rp-tokens --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics: join wall and CPU medians,
// throughput, peak RSS, set-up time and planted-pair recall. --trace 1 is
// the separate traced run: it alternates untraced and traced calls, runs
// the per-layer replays, writes a Chrome trace to
// DIR/trace-<workload>-<seed>.json, and reports the per-layer metrics.
// Both modes run the same correctness gate.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "mapreduce/spill.h"
#include "measure.h"
#include "replay.h"
#include "trace.h"
#include "tsj/tsj.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

// Set-up is repeated until it has run this long (at least five times) and
// reported as a median, so that one slow repetition does not move it.
constexpr int kMinSetupRepetitions = 5;
constexpr double kMinSetupSeconds = 1.5;
// The first calls of a process pay for page faults and allocator growth
// (about 1.5 s against a 0.55 s steady state on ring); they are traced but
// never timed.
constexpr int kWarmupCalls = 2;
constexpr int kMinTimedCalls = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// CC_* variables silently change the program under test (spill budget,
// fault injection, checkpointing, SIMD backend, task watchdog).
bool RefuseEnvOverrides() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CC_", 3) == 0) {
      const char* eq = std::strchr(*env, '=');
      const std::string name =
          eq ? std::string(*env, eq - *env) : std::string(*env);
      std::cerr << "perfbench: refusing to run with " << name
                << " set: it changes the program under test\n";
      return true;
    }
  }
  return false;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t CountEntries(const std::string& dir) {
  std::error_code ec;
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

struct Call {
  tsj::Status status;
  double start_s = 0;  // trace-recorder time
  double wall_s = 0;
  double cpu_s = 0;
  tsj::TsjRunInfo info;
  std::vector<tsj::TsjPair> pairs;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << FormatNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Upper bound on JobStats::peak_resident_records under a spill budget, from
// the slack job_stats.h documents: one merge window (the largest reduce
// group) per concurrent reduce worker, plus, per producer, the one-record
// flush overshoot and up to kSpillResidentPublishBatch unpublished records.
// Producers are the map tasks (4 per worker) and, in a fused job, the
// stage-one reduce partitions.
uint64_t ResidentLimit(const WorkloadConfig& config,
                       const tsj::TsjRunInfo& info) {
  uint64_t largest_group = 0;
  for (const tsj::JobStats& job : info.pipeline.jobs) {
    for (const tsj::GroupLoad& group : job.group_loads) {
      largest_group = std::max(largest_group, group.records);
    }
  }
  const uint64_t producers = 4 * config.workers + info.shuffle_partitions;
  return config.spill_budget_records + config.workers * largest_group +
         producers * (1 + tsj::kSpillResidentPublishBatch);
}

// Per-layer values of one call, taken from the counters and phase walls
// the library returns.
std::map<std::string, double> CallLayers(const WorkloadConfig& config,
                                         const Call& call) {
  const tsj::TsjRunInfo& info = call.info;
  std::map<std::string, double> m;
  for (const std::string& role : ReportedRoles()) {
    for (const char* phase : {"map_s", "shuffle_s", "reduce_s"}) {
      m["mapreduce." + role + "." + phase] = 0;
    }
  }
  double phase_sum = 0;
  for (const tsj::JobStats& job : info.pipeline.jobs) {
    const std::string prefix = "mapreduce." + JobRole(job.name) + ".";
    if (m.count(prefix + "map_s") != 0) {
      m[prefix + "map_s"] += job.map_wall_seconds;
      m[prefix + "shuffle_s"] += job.shuffle_wall_seconds;
      m[prefix + "reduce_s"] += job.reduce_wall_seconds;
    }
    phase_sum += job.total_wall_seconds();
  }
  m["tsj.glue_s"] = call.wall_s - phase_sum;
  m["tsj.layer_coverage"] = LayerCoverage(phase_sum, call.wall_s);
  m["tsj.cand.shared_token"] = info.shared_token_candidates;
  m["tsj.cand.similar_token"] = info.similar_token_candidates;
  m["tsj.cand.distinct"] = info.distinct_candidates;
  m["mapreduce.combiner_keep_ratio"] =
      Ratio(info.combiner_output_records, info.combiner_input_records);
  m["filter.length_pruned"] = info.length_filtered;
  m["filter.histogram_pruned"] = info.histogram_filtered;
  m["filter.verified"] = info.verified_candidates;
  m["filter.yield"] = Ratio(info.result_pairs, info.distinct_candidates);
  m["verify.work_units"] = info.verify_work_units;
  m["cache.l1_hit_ratio"] =
      Ratio(info.token_pair_cache_l1_hits,
            info.token_pair_cache_l1_hits + info.token_pair_cache_l1_misses);
  m["cache.shared_hit_ratio"] =
      Ratio(info.token_pair_cache_hits,
            info.token_pair_cache_hits + info.token_pair_cache_misses);
  m["cache.flush_batches"] = info.token_pair_cache_flush_batches;
  m["verify.lane_occupancy"] = Ratio(info.batched_verify_lanes_filled,
                                     info.batched_verify_lane_slots);
  m["massjoin.token_pairs"] = info.similar_token_pairs;
  m["mapreduce.shuffle_records"] = info.pipeline.total_shuffle_records();
  m["mapreduce.peak_shuffle_records"] = info.peak_shuffle_records;
  m["spill.files"] = info.spill_files;
  m["spill.bytes"] = info.spill_bytes;
  m["spill.compression_ratio"] = Ratio(info.spill_raw_bytes, info.spill_bytes);
  m["spill.merge_passes"] = info.merge_passes;
  m["spill.prefetch_hits"] = info.prefetch_hits;
  // Without a budget the gauge equals the in-memory shuffle peak, which
  // mapreduce.peak_shuffle_records already reports.
  m["spill.peak_resident_records"] =
      config.spill_budget_records > 0 ? info.peak_resident_records : 0;
  m["pool.busy_ratio"] = BusyRatio(call.cpu_s, call.wall_s, config.workers);
  m["mapreduce.task_failures"] = info.task_failures;
  m["mapreduce.task_retries"] = info.task_retries;
  return m;
}

// Unit of a per-call layer metric, from its name.
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&name](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with("_s")) return "s";
  if (name == "spill.bytes") return "B";
  for (const char* word : {"ratio", "coverage", "yield", "occupancy"}) {
    if (name.find(word) != std::string::npos) return "ratio";
  }
  return "count";
}

// Lays the call's job phases out as child spans of its join span, in
// execution order, each as long as its measured wall.
void TraceCall(const Call& call, const std::string& name,
               TraceRecorder* trace) {
  const double end = call.start_s + call.wall_s;
  const int parent = trace->Add(name, "tsj", call.start_s, end);
  double cursor = call.start_s;
  for (const tsj::JobStats& job : call.info.pipeline.jobs) {
    const std::pair<const char*, double> phases[] = {
        {".map", job.map_wall_seconds},
        {".shuffle", job.shuffle_wall_seconds},
        {".reduce", job.reduce_wall_seconds}};
    for (const auto& [phase, seconds] : phases) {
      const double stop = std::min(end, cursor + seconds);
      trace->Add(job.name + phase, "mapreduce", cursor, stop, parent);
      cursor = stop;
    }
  }
}

bool SameValue(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// True when every pair of `part` appears in `all` with a bit-identical
// NSLD; both sorted by PairLess.
bool IsSubset(const std::vector<tsj::TsjPair>& part,
              const std::vector<tsj::TsjPair>& all) {
  size_t j = 0;
  for (const tsj::TsjPair& pair : part) {
    while (j < all.size() && PairLess(all[j], pair)) ++j;
    if (j == all.size() || all[j].a != pair.a || all[j].b != pair.b ||
        !SameValue(all[j].nsld, pair.nsld)) {
      return false;
    }
  }
  return true;
}

bool SamePairs(const std::vector<tsj::TsjPair>& x,
               const std::vector<tsj::TsjPair>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b ||
        !SameValue(x[i].nsld, y[i].nsld)) {
      return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  WorkloadConfig config;
  if (!LookupWorkload(args.workload, &config)) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (RefuseEnvOverrides()) return 2;
  const size_t cpus = AvailableCpus();
  if (config.threads() > cpus) {
    std::cerr << "perfbench: " << config.name << " needs " << config.threads()
              << " threads (" << config.workers << " workers"
              << (config.spill_budget_records > 0 ? " + spill prefetch" : "")
              << ") but only " << cpus << " CPUs are available\n";
    return 2;
  }

  // A spill directory private to this run; it must be empty after every
  // call and is removed at exit.
  const std::string spill_dir =
      args.work_dir + "/spill-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << spill_dir << ": "
              << ec.message() << "\n";
    return 2;
  }

  TraceRecorder trace;

  // ---- Set-up: generation, then interning, several times. -------------
  Inputs inputs;
  tsj::Corpus r, p;
  std::vector<double> setup_s, generate_s, intern_s;
  for (tsj::Stopwatch setup; static_cast<int>(setup_s.size()) <
                                 kMinSetupRepetitions ||
                             setup.ElapsedSeconds() < kMinSetupSeconds;) {
    inputs = Inputs();
    r = tsj::Corpus();
    p = tsj::Corpus();
    const double t0 = trace.Now();
    inputs = Generate(config, args.seed);
    const double t1 = trace.Now();
    r = Intern(inputs.r_names);
    if (config.cross) p = Intern(inputs.p_names);
    const double t2 = trace.Now();
    trace.Add("setup.generate", "workload", t0, t1);
    trace.Add("setup.intern", "tokenized", t1, t2);
    generate_s.push_back(t1 - t0);
    intern_s.push_back(t2 - t1);
    setup_s.push_back(t2 - t0);
  }
  const size_t num_strings = r.size() + (config.cross ? p.size() : 0);

  const tsj::TokenizedStringJoiner joiner(JoinOptions(config, spill_dir));
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reference_digest = 0;
  std::vector<tsj::TsjPair> reference;
  bool have_reference = false;

  auto run_join = [&](const tsj::TokenizedStringJoiner& j,
                      const tsj::Corpus& r_corpus,
                      const tsj::Corpus& p_corpus) {
    Call call;
    const double cpu0 = CpuSeconds();
    call.start_s = trace.Now();
    tsj::Stopwatch watch;
    auto result = config.cross ? j.Join(r_corpus, p_corpus, &call.info)
                               : j.SelfJoin(r_corpus, &call.info);
    call.wall_s = watch.ElapsedSeconds();
    call.cpu_s = CpuSeconds() - cpu0;
    call.status = result.status();
    if (result.ok()) call.pairs = std::move(result).value();
    return call;
  };

  // Checks one call of the configured joiner; false when it failed.
  auto check = [&](Call& call) {
    ++attempted;
    std::string why;
    if (!call.status.ok()) {
      why = "status " + call.status.ToString();
    } else {
      const uint64_t digest = PairDigest(call.pairs);
      if (!have_reference) {
        reference = call.pairs;
        std::sort(reference.begin(), reference.end(), PairLess);
        reference_digest = digest;
        have_reference = true;
      } else if (digest != reference_digest) {
        why = "result digest differs from the first call";
      }
    }
    if (config.spill_budget_records > 0) {
      if (CountEntries(spill_dir) != 0) {
        why = "spill files left behind";
        std::filesystem::remove_all(spill_dir, ec);
        std::filesystem::create_directories(spill_dir, ec);
      }
      const uint64_t limit = ResidentLimit(config, call.info);
      if (call.info.peak_resident_records > limit) {
        why = "peak resident records " +
              std::to_string(call.info.peak_resident_records) +
              " exceed the budget plus slack " + std::to_string(limit);
      }
      if (call.info.spill_files == 0) why = "the spill workload did not spill";
    }
    call.pairs.clear();
    call.pairs.shrink_to_fit();
    if (why.empty()) return true;
    ++failed;
    std::cerr << "perfbench: join call " << attempted << " failed: " << why
              << "\n";
    return false;
  };

  // ---- Warm-up calls: traced as spans, never timed. ---------------------
  tsj::TsjRunInfo first_info;
  for (int i = 0; i < kWarmupCalls; ++i) {
    Call call = run_join(joiner, r, p);
    check(call);
    if (i == 0) first_info = call.info;
    if (args.trace) TraceCall(call, "join.warmup", &trace);
  }

  // ---- Timed closed loop. -----------------------------------------------
  // The traced run alternates untraced and traced calls so that both see
  // the same machine state; only untraced calls give end-to-end figures.
  std::vector<double> wall_s, cpu_s, traced_wall_s;
  std::vector<std::map<std::string, double>> layers;
  tsj::Stopwatch loop;
  for (int i = 0; loop.ElapsedSeconds() < args.seconds ||
                  static_cast<int>(wall_s.size()) < kMinTimedCalls;
       ++i) {
    const bool traced = args.trace && i % 2 == 1;
    Call call = run_join(joiner, r, p);
    if (traced) {
      TraceCall(call, "join", &trace);
      traced_wall_s.push_back(call.wall_s);
      layers.push_back(CallLayers(config, call));
    } else {
      wall_s.push_back(call.wall_s);
      cpu_s.push_back(call.cpu_s);
    }
    check(call);
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- Correctness gate. ------------------------------------------------
  // On a slice of a few thousand strings no token reaches M, so a join of
  // the slice alone is exact and must equal the exhaustive oracle; the
  // timed result, which M may thin out, must agree with the oracle on
  // every pair it reports inside the slice.
  bool gate_ok = have_reference;
  if (have_reference) {
    const OracleSlice slice = ChooseOracleSlice(config, inputs);
    double start = trace.Now();
    const std::vector<tsj::TsjPair> expected =
        OraclePairs(config, inputs, slice);
    trace.Add("gate.oracle", "tokenized", start, trace.Now());
    std::cout << "oracle: " << expected.size() << " pairs on a "
              << slice.r.size() << " x " << slice.p.size() << " slice in "
              << FormatNumber(trace.Now() - start) << " s\n";

    const Inputs sliced = SliceInputs(config, inputs, slice);
    const tsj::Corpus slice_r = Intern(sliced.r_names);
    const tsj::Corpus slice_p = Intern(sliced.p_names);
    Call call = run_join(joiner, slice_r, slice_p);
    ++attempted;
    for (tsj::TsjPair& pair : call.pairs) {
      pair.a = slice.r[pair.a];
      pair.b = slice.p[pair.b];
    }
    std::sort(call.pairs.begin(), call.pairs.end(), PairLess);
    if (!call.status.ok() || call.info.dropped_tokens != 0 ||
        !SamePairs(expected, call.pairs)) {
      std::cerr << "perfbench: join of the oracle slice returned "
                << call.pairs.size() << " pairs (" << call.status.ToString()
                << ", " << call.info.dropped_tokens
                << " tokens over M), the oracle " << expected.size() << "\n";
      gate_ok = false;
    }
    const std::vector<tsj::TsjPair> got = RestrictToSlice(reference, slice);
    if (!IsSubset(got, expected)) {
      std::cerr << "perfbench: timed result holds pairs or NSLD values the "
                   "oracle does not\n";
      gate_ok = false;
    }
  }
  if (have_reference && config.spill_budget_records > 0) {
    // The spilled result must equal an in-memory join of the same corpus.
    WorkloadConfig in_memory = config;
    in_memory.spill_budget_records = 0;
    const tsj::TokenizedStringJoiner reference_joiner(
        JoinOptions(in_memory, spill_dir));
    Call call = run_join(reference_joiner, r, p);
    ++attempted;
    if (!call.status.ok() || PairDigest(call.pairs) != reference_digest) {
      std::cerr << "perfbench: spilled result differs from the in-memory "
                   "join\n";
      ++failed;
      gate_ok = false;
    }
  }
  if (!gate_ok) failed = attempted;  // every call returned the same result

  // ---- Replays (traced run only). ---------------------------------------
  ReplayResult replay;
  if (args.trace && gate_ok) {
    replay = RunReplays(config, inputs, r, p, &trace);
    if (!replay.error.empty()) {
      std::cerr << "perfbench: replay: " << replay.error << "\n";
      gate_ok = false;
    }
    std::cout << "replays: " << replay.candidates << " sampled candidates, "
              << replay.survivors << " past the bounds, " << replay.edges
              << " edges, " << replay.solves << " assignment solves, "
              << replay.massjoin_pairs << " MassJoin token pairs\n";
  }

  if (CountEntries(spill_dir) != 0) {
    std::cerr << "perfbench: spill directory not empty at exit\n";
    gate_ok = false;
  }
  std::filesystem::remove_all(spill_dir, ec);
  bool correct = gate_ok && failed == 0;

  // ---- Report. ----------------------------------------------------------
  const double join_wall = Median(wall_s);
  std::cout << "workload " << config.name << " seed " << args.seed << ": "
            << num_strings << " strings, " << reference.size()
            << " result pairs, " << config.workers << " workers, "
            << first_info.dropped_tokens << " tokens over M, "
            << first_info.distinct_candidates << " distinct candidates\n";
  std::cout << "join_wall_s: median " << FormatNumber(join_wall) << " s over "
            << wall_s.size() << " timed calls";
  if (const auto tail = TailPercentile(wall_s)) {
    std::cout << ", p" << tail->percentile << " "
              << FormatNumber(tail->value) << " s";
  }
  std::cout << "\ntimed calls (wall_s/cpu_s):";
  for (size_t i = 0; i < wall_s.size(); ++i) {
    std::printf(" %.3f/%.3f", wall_s[i], cpu_s[i]);
  }
  std::cout << std::endl;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"join_wall_s", "s", join_wall},
        {"join_cpu_s", "s", Median(cpu_s)},
        {"strings_per_s", "1/s", Ratio(num_strings, join_wall)},
        {"peak_rss_mb", "MB", peak_rss_mb},
        {"setup_s", "s", Median(setup_s)},
        {"planted_pair_recall", "ratio", PlantedRecall(inputs, reference)},
    };
  } else {
    const std::string trace_path = args.work_dir + "/trace-" + config.name +
                                   "-" + std::to_string(args.seed) + ".json";
    std::cout << "per-layer spans (layer count busy_s self_s):\n";
    for (const LayerTotals& layer : trace.Layers()) {
      std::cout << "  " << layer.layer << " " << layer.count << " "
                << FormatNumber(layer.busy_s) << " "
                << FormatNumber(layer.self_s) << "\n";
    }
    if (!trace.WriteChromeTrace(trace_path)) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
      correct = false;
    }
    std::cout << "trace: " << trace_path << "\n";

    std::map<std::string, std::vector<double>> samples;
    for (const auto& call_layers : layers) {
      for (const auto& [name, value] : call_layers) {
        samples[name].push_back(value);
      }
    }
    for (const auto& [name, values] : samples) {
      metrics.push_back({name, LayerUnit(name), Median(values)});
    }
    const auto tail = TailPercentile(wall_s);
    const std::vector<Metric> extra = {
        {"bounds.ns_per_candidate", "ns", replay.bounds_ns_per_candidate},
        {"verify.ns_per_pair", "ns", replay.verify_ns_per_pair},
        {"distance.ns_per_edge", "ns", replay.distance_ns_per_edge},
        {"assignment.ns_per_solve", "ns", replay.assignment_ns_per_solve},
        {"massjoin.replay_s", "s", replay.massjoin_replay_s},
        {"replay.candidates", "count", static_cast<double>(replay.candidates)},
        {"setup.generate_s", "s", Median(generate_s)},
        {"setup.intern_s", "s", Median(intern_s)},
        {"join.timed_calls", "count", static_cast<double>(wall_s.size())},
        {"join.tail_percentile", "%",
         tail ? static_cast<double>(tail->percentile) : 0},
        {"join.tail_wall_s", "s", tail ? tail->value : 0},
        {"join.error_rate", "ratio", Ratio(failed, attempted)},
        {"trace.overhead_ratio", "ratio",
         Ratio(Median(traced_wall_s), join_wall) - 1},
    };
    metrics.insert(metrics.end(), extra.begin(), extra.end());
  }
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << FormatNumber(metric.value)
              << " " << metric.unit << "\n";
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <";
    const auto names = perfbench::WorkloadNames();
    for (size_t i = 0; i < names.size(); ++i) {
      std::cerr << (i ? "|" : "") << names[i];
    }
    std::cerr << "> --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
    return 2;
  }
  return perfbench::Run(args);
}
