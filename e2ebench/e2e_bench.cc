// End-to-end benchmark of the ooint federation.
//
// Three workloads run through the library's public API, each from
// generated input texts (schema, data and assertion languages):
//
//   connect     closed loop, one caller: a fresh materialized
//               FsmClient::Connect per op on one generated Fsm.
//   demand      closed loop, one caller: text queries on a demand-driven
//               genealogy client; ~70% hit a small cached hot set, ~30%
//               ask goals never asked since the cache was last dropped.
//   serve_live  open loop at a fixed rate served by two workers: point
//               reads, top-k cursor reads and ApplyDelta batches on a
//               live-updates materialized client.
//
// With --trace 0 the run measures the end-to-end metrics. With
// --trace 1 the first half of the run repeats the untraced loop (for
// the medians the traced ops are compared against) and the second half
// records spans around every call into a module's public functions and
// reports per-layer metrics. Spans are kept in memory and written to
// --spans at the end.
//
//   e2e_bench --workload connect|demand|serve_live --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Every answer is checked. The last line of standard output is one JSON
// object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/admission.h"
#include "federation/agent_connection.h"
#include "federation/fsm.h"
#include "federation/fsm_agent.h"
#include "federation/fsm_client.h"
#include "federation/query_parser.h"
#include "federation/serving.h"
#include "model/instance_parser.h"
#include "model/schema_parser.h"
#include "rules/magic.h"
#include "workload/fixtures.h"
#include "workload/generator.h"
#include "workload/populator.h"

#if !defined(NDEBUG)
#error "e2e_bench measures optimized builds only (CMAKE_BUILD_TYPE=Release)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "e2e_bench refuses sanitizer builds"
#endif

namespace ooint {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// --- Settings ---------------------------------------------------------

/// Set-ups per run, at least kSetups and until kSetupSeconds have been
/// spent (a set-up takes 10–60 ms); setup_s is their median.
constexpr int kSetups = 15;
constexpr int kMaxSetups = 200;
constexpr double kSetupSeconds = 1.0;

/// Latency and throughput are taken per window of this many seconds and
/// reported at the quiet quartile of the windows (see QuietQuantile).
constexpr double kWindowS = 2;

/// connect: the generated counterpart pair. Integration and derivation
/// cost swing several-fold from one generated world to the next, so the
/// world is drawn from a fixed seed and --seed only permutes the order
/// its objects are inserted in (which changes OIDs, not the work).
constexpr size_t kConnectClasses = 32;
constexpr size_t kConnectObjects = 160;
constexpr std::uint64_t kConnectWorldSeed = 8;

/// demand: genealogy families, hot goals, and ops per round (the cache
/// is dropped between rounds, so every round repeats the same counts).
constexpr size_t kDemandFamilies = 1024;
constexpr size_t kHotGoals = 16;
constexpr size_t kRoundOps = 400;
constexpr double kHotShare = 0.7;

/// serve_live: world size, offered rate, workers, op mix and batch size.
constexpr size_t kLiveFamilies = 256;
constexpr double kLiveRatePerS = 400;
constexpr int kLiveWorkers = 2;
constexpr double kPointShare = 0.7;
constexpr double kTopKShare = 0.2;  // the remaining 10% are writes
/// A point-read op looks up the uncles of this many consecutive
/// families, one Run each, like a page that needs a few lookups: one
/// 10 µs lookup is too short to time steadily on a shared host.
constexpr size_t kPointBatch = 8;
constexpr size_t kReplacementsPerWrite = 2;
constexpr size_t kTopK = 10;
constexpr size_t kTopKPage = 5;
constexpr int kMaxCursorReopens = 8;

/// How often the CPU migrator moves threads. A connect (~45 ms) must
/// span several moves to average over the vCPUs; the other workloads'
/// ops are short, and moving less often leaves fewer of them to start on
/// a cold cache. Each period gave the steadiest runs of 10 and 25 ms.
constexpr auto kConnectRotate = std::chrono::milliseconds(10);
constexpr auto kRotate = std::chrono::milliseconds(25);

/// A traced op's span sum should lie within this share of the untraced
/// median of the same op kind. Host speed drifts by more than this
/// between the two halves of a run now and then, so a miss is reported,
/// not counted as a wrong answer.
constexpr double kSpanTolerance = 0.30;

// --- CPU rotation -----------------------------------------------------

/// The run's time origin: span times count from it.
const Clock::time_point kOrigin = Clock::now();

/// Tells the CPU the thread is spinning, which frees issue slots for a
/// sibling hyperthread.
inline void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The CPUs the process may use, read once before any thread is pinned
/// (threads inherit their creator's affinity).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  return cpus;
}
const std::vector<int> kAllowedCpus = AllowedCpus();

/// Moves every registered thread to its next allowed CPU every period,
/// all at once, from a thread of its own. On a shared host some vCPUs
/// run far slower than others, and which ones changes from second to
/// second; a thread left on one vCPU makes whole runs fast or
/// slow, and one that only moves between ops makes each op fast or slow.
/// Moving threads in the middle of ops makes every op average over the
/// vCPUs. Registered threads sit on distinct CPUs in every slot.
class CpuMigrator {
 public:
  CpuMigrator() : thread_([this] { Loop(); }) {}
  ~CpuMigrator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  CpuMigrator(const CpuMigrator&) = delete;
  CpuMigrator& operator=(const CpuMigrator&) = delete;

  void Add(pid_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    tids_.push_back(tid);
    Pin(tids_.size() - 1);
  }
  void Remove(pid_t tid) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(tids_, tid);
  }
  void set_period(std::chrono::milliseconds period) {
    std::lock_guard<std::mutex> lock(mu_);
    period_ = period;
  }

 private:
  /// Pins registered thread `i` to its CPU in the current slot. mu_ held.
  void Pin(size_t i) {
    if (kAllowedCpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(kAllowedCpus[(slot_ + i) % kAllowedCpus.size()], &one);
    sched_setaffinity(tids_[i], sizeof one, &one);
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      ++slot_;
      for (size_t i = 0; i < tids_.size(); ++i) Pin(i);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::chrono::milliseconds period_ = kRotate;
  size_t slot_ = 0;
  std::vector<pid_t> tids_;
  std::thread thread_;  // last: it uses the members above
};

CpuMigrator& Migrator() {
  static CpuMigrator migrator;
  return migrator;
}

/// Keeps the calling thread on rotating CPUs while it lives.
class RotatingCpus {
 public:
  RotatingCpus() : tid_(gettid()) { Migrator().Add(tid_); }
  ~RotatingCpus() { Migrator().Remove(tid_); }
  RotatingCpus(const RotatingCpus&) = delete;
  RotatingCpus& operator=(const RotatingCpus&) = delete;

 private:
  pid_t tid_;
};

// --- Deterministic inputs -------------------------------------------

/// splitmix64: the benchmark's only source of randomness, so a seed
/// means the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x100000001b3ULL + stream).Next();
}

/// The five input texts a federation is built from.
struct WorldText {
  std::string schema1;
  std::string schema2;
  std::string assertions;
  std::string data1;
  std::string data2;
};

/// connect: a random-DAG schema, its counterpart, assertions with
/// derivations, and generated populations on both sides, inserted in an
/// order drawn from `seed`.
Result<WorldText> ConnectWorld(std::uint64_t world_seed, std::uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.name = "S1";
  schema_options.class_prefix = "c";
  schema_options.num_classes = kConnectClasses;
  schema_options.shape = IsAShape::kRandomDag;
  schema_options.max_parents = 2;
  schema_options.attrs_per_class = 2;
  schema_options.with_aggregations = false;
  schema_options.seed = SubSeed(world_seed, 1);
  OOINT_ASSIGN_OR_RETURN(Schema s1, GenerateSchema(schema_options));
  OOINT_ASSIGN_OR_RETURN(Schema s2, GenerateCounterpartSchema(s1, "S2", "d"));
  AssertionGenOptions assertion_options;
  assertion_options.equivalence_fraction = 0.4;
  assertion_options.inclusion_fraction = 0.2;
  assertion_options.derivation_fraction = 0.4;
  assertion_options.seed = SubSeed(world_seed, 2);
  OOINT_ASSIGN_OR_RETURN(
      AssertionSet assertions,
      GenerateAssertions(s1, s2, "c", "d", assertion_options));
  PopulateOptions populate;
  populate.num_objects = kConnectObjects;
  populate.seed = SubSeed(world_seed, 3);
  OOINT_ASSIGN_OR_RETURN(StoreSpec data1, GenerateInstances(s1, populate));
  populate.seed = SubSeed(world_seed, 4);
  OOINT_ASSIGN_OR_RETURN(StoreSpec data2, GenerateInstances(s2, populate));
  // Without aggregations no object names another, so any order is valid.
  Rng rng(SubSeed(seed, 8));
  rng.Shuffle(&data1.objects);
  rng.Shuffle(&data2.objects);
  return WorldText{SchemaToText(s1), SchemaToText(s2), assertions.ToString(),
                   StoreSpecToText(data1), StoreSpecToText(data2)};
}

std::string ParentSsn(size_t family) { return "P" + std::to_string(family); }
std::string UncleSsn(size_t family) { return "U" + std::to_string(family); }
std::string Child(size_t family, char which) {
  return "C" + std::to_string(family) + which;
}

/// The Appendix B genealogy world: family f has parent P<f> with
/// children C<f>a and C<f>b, and one brother U<f> of the parent, so
/// U<f> is the uncle of both children. The seed orders the families.
Result<WorldText> GenealogyWorld(size_t families, std::uint64_t seed) {
  OOINT_ASSIGN_OR_RETURN(Fixture fixture, MakeGenealogyFixture());
  std::vector<size_t> order(families);
  for (size_t f = 0; f < families; ++f) order[f] = f;
  Rng rng(SubSeed(seed, 5));
  rng.Shuffle(&order);
  StoreSpec spec;
  for (size_t f : order) {
    ObjectSpec parent;
    parent.class_name = "parent";
    parent.attrs["Pssn#"] = Value::String(ParentSsn(f));
    parent.attrs["name"] = Value::String("parent_" + std::to_string(f));
    parent.attrs["children"] = Value::Set(
        {Value::String(Child(f, 'a')), Value::String(Child(f, 'b'))});
    spec.objects.push_back(std::move(parent));
    ObjectSpec brother;
    brother.class_name = "brother";
    brother.attrs["Bssn#"] = Value::String(UncleSsn(f));
    brother.attrs["name"] = Value::String("uncle_" + std::to_string(f));
    brother.attrs["brothers"] = Value::Set({Value::String(ParentSsn(f))});
    spec.objects.push_back(std::move(brother));
  }
  return WorldText{SchemaToText(fixture.s1), SchemaToText(fixture.s2),
                   fixture.assertion_text, StoreSpecToText(spec), ""};
}

// --- Statistics -------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One measured op: when it began (s since the phase began) and its
/// latency in ms.
struct Sample {
  double at_s;
  double ms;
};

/// Splits samples into kWindowS windows by start time; a short run is
/// one window.
std::vector<std::vector<double>> Windows(const std::vector<Sample>& samples) {
  std::vector<std::vector<double>> windows;
  for (const Sample& sample : samples) {
    const size_t w = static_cast<size_t>(sample.at_s / kWindowS);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(sample.ms);
  }
  std::erase_if(windows, [](const std::vector<double>& w) { return w.empty(); });
  return windows;
}

/// Latency quantile `q` taken in every window, reported at the quiet
/// quartile of the windows. Other tenants of the host slow whole seconds
/// of a run by up to 2x, and how many seconds they hit differs from run
/// to run by more than any change worth detecting; the quiet quartile
/// measures the program, not the neighbours.
double QuietQuantile(const std::vector<Sample>& samples, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : Windows(samples)) {
    per_window.push_back(Quantile(window, q));
  }
  return Quantile(per_window, 0.25);
}

/// Ops per second of time spent inside ops, per window, at the quiet
/// (fast) quartile of the windows.
double QuietRate(const std::vector<Sample>& samples) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : Windows(samples)) {
    double ms = 0;
    for (double op : window) ms += op;
    per_window.push_back(static_cast<double>(window.size()) / (ms / 1000.0));
  }
  return Quantile(per_window, 0.75);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- Tracing ----------------------------------------------------------

/// One timed step. Names are "<layer>.<step>" string literals; the
/// layer is one of the library's modules, or "bench" for the op itself.
struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  /// Index of the enclosing span in the same tracer; -1 for a root.
  int parent;
  std::uint64_t request;
  /// Extra work the traced op does to measure a layer (a separate fetch
  /// or rewrite call) that the untraced op does not do.
  bool probe;
};

/// An in-memory span list, one per thread; times are ms since kOrigin.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 15); }
  void set_request(std::uint64_t request) { request_ = request; }
  double Now() const { return Ms(Clock::now() - kOrigin); }
  int Open(const char* name, int parent, bool probe = false) {
    spans_.push_back({name, Now(), 0, parent, request_, probe});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int span) { spans_[span].end_ms = Now(); }
  /// A sub-interval of `parent` whose length the library measured itself
  /// (its Stats), laid out inside the parent by the caller.
  void Record(const char* name, int parent, double start_ms, double end_ms) {
    spans_.push_back({name, start_ms, end_ms, parent, request_, false});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// Runs `body`, inside span `name` when `tracer` is set.
template <typename F>
auto InSpan(Tracer* tracer, int parent, const char* name, F&& body,
            bool probe = false) {
  if (tracer == nullptr) return body();
  const int span = tracer->Open(name, parent, probe);
  auto result = body();
  tracer->Close(span);
  return result;
}

/// InSpan that also adds the call's wall time to *call_ms, so an op's
/// library time excludes the benchmark's own bookkeeping and checks.
template <typename F>
auto TimedCall(Tracer* tracer, int parent, const char* name, double* call_ms,
               F&& body) {
  const auto start = Clock::now();
  auto result = InSpan(tracer, parent, name, std::forward<F>(body));
  *call_ms += Ms(Clock::now() - start);
  return result;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

/// One traced request, folded: its kind (root span name without the
/// "bench." prefix), the root's wall time, the time of its direct
/// children that are not probes (the steps the untraced op takes), and
/// every descendant span's time summed by name.
struct RequestProfile {
  std::string kind;
  double wall_ms = 0;
  double replica_ms = 0;
  std::map<std::string, double> ms_by_name;
};

struct TraceSummary {
  std::vector<RequestProfile> requests;
  /// Self time (span minus its children) summed per layer over op
  /// requests (set-up excluded).
  std::map<std::string, double> op_self_ms;
  size_t op_requests = 0;
};

TraceSummary Summarize(const std::vector<const Tracer*>& tracers) {
  TraceSummary summary;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> self(spans.size());
    std::vector<int> root(spans.size());
    std::map<int, size_t> request_of_root;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = span.end_ms - span.start_ms;
      self[i] += duration;
      if (span.parent < 0) {
        root[i] = static_cast<int>(i);
        RequestProfile profile;
        profile.kind = std::string(span.name).substr(std::strlen("bench."));
        profile.wall_ms = duration;
        request_of_root[static_cast<int>(i)] = summary.requests.size();
        summary.requests.push_back(std::move(profile));
        continue;
      }
      root[i] = root[span.parent];
      self[span.parent] -= duration;
      RequestProfile& profile = summary.requests[request_of_root[root[i]]];
      profile.ms_by_name[span.name] += duration;
      if (spans[span.parent].parent < 0 && !span.probe) {
        profile.replica_ms += duration;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[root[i]].name, "bench.setup") == 0) continue;
      summary.op_self_ms[LayerOf(spans[i].name)] += self[i];
      if (spans[i].parent < 0) ++summary.op_requests;
    }
  }
  return summary;
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& span : tracers[t]->spans()) {
      std::fprintf(out,
                   "{\"tracer\": %zu, \"request\": %llu, \"name\": \"%s\", "
                   "\"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %d, "
                   "\"probe\": %s}\n",
                   t, static_cast<unsigned long long>(span.request), span.name,
                   span.start_ms, span.end_ms, span.parent,
                   span.probe ? "true" : "false");
    }
  }
  std::fclose(out);
}

// --- Results ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"p50_ms", "ms"},      {"p90_ms", "ms"},
    {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"integrate.integrate_ms", "ms"},
    {"integrate.consistency_ms", "ms"},
    {"integrate.pairs_checked", "count"},
    {"integrate.rules_generated", "count"},
    {"integrate.self_ms", "ms"},
    {"model.schema_parse_ms", "ms"},
    {"model.data_load_ms", "ms"},
    {"assertions.declare_ms", "ms"},
    {"rules.fixpoint_ms", "ms"},
    {"rules.base_load_ms", "ms"},
    {"rules.base_facts", "count"},
    {"rules.derived_facts", "count"},
    {"rules.iterations", "count"},
    {"rules.rule_applications", "count"},
    {"rules.index_probes", "count"},
    {"rules.cursor_steps", "count"},
    {"rules.merge_steps", "count"},
    {"rules.extents_fetched", "count"},
    {"rules.cursor_steps_per_derived", "ratio"},
    {"rules.bytes_per_fact", "bytes"},
    {"rules.demand_rewrite_ms", "ms"},
    {"rules.demand_fixpoint_ms", "ms"},
    {"rules.demand_base_load_ms", "ms"},
    {"rules.outcome_bytes", "bytes"},
    {"rules.pipeline_rows_in", "count"},
    {"rules.pipeline_rows_out", "count"},
    {"rules.pipeline_peak_held_bytes", "bytes"},
    {"rules.pipeline_heap_evictions", "count"},
    {"rules.delta_facts_changed", "count"},
    {"rules.delta_rederived", "count"},
    {"rules.delta_rounds", "count"},
    {"rules.self_ms", "ms"},
    {"federation.query_parse_ms", "ms"},
    {"federation.fetch_ms", "ms"},
    {"federation.fetch_calls", "count"},
    {"federation.fetch_retries", "count"},
    {"federation.cache_hits", "count"},
    {"federation.cache_misses", "count"},
    {"federation.cache_hit_ratio", "ratio"},
    {"federation.run_ms", "ms"},
    {"federation.cursor_open_ms", "ms"},
    {"federation.next_page_ms", "ms"},
    {"federation.apply_delta_ms", "ms"},
    {"federation.cursor_reopens", "count"},
    {"federation.self_ms", "ms"},
    {"common.admission_wait_ms", "ms"},
    {"common.admission_rejected", "count"},
    {"bench.generator_late_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.span_sum_ratio", "ratio"},
};

/// What one run reports. `failed` counts ops that errored, were shed or
/// answered wrongly; `correct` is false on any wrong answer or failed
/// self-check.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void OpFailed(const std::string& why) {
    ++failed;
    Problem(why);
  }
  void WrongAnswer(const std::string& why) {
    correct = false;
    OpFailed(why);
  }
  void Problem(const std::string& why) {
    if (problems.size() < 8) problems.push_back(why);
  }
};

/// The exact-count self-check: a count a single caller observes must
/// repeat exactly from op to op of the same kind (and so from run to
/// run on the same seed).
class CountCheck {
 public:
  explicit CountCheck(Report* report) : report_(report) {}
  void Observe(const std::string& key, double value) {
    auto [it, inserted] = first_.emplace(key, value);
    if (!inserted && it->second != value) {
      report_->correct = false;
      report_->Problem("count " + key + " changed from " +
                       std::to_string(it->second) + " to " +
                       std::to_string(value));
    }
  }

 private:
  Report* report_;
  std::map<std::string, double> first_;
};

// --- Set-up -----------------------------------------------------------

struct Federation {
  std::unique_ptr<Fsm> fsm;
  std::unique_ptr<FsmClient> client;
  /// From the traced set-up's separate IntegrateAll call.
  IntegrationStats integration;
};

/// Text in, ready client out: parse both schemas, register the agents,
/// load their data, declare the assertions, check consistency, and
/// connect. With a tracer, every step is a span under `root`, and an
/// extra IntegrateAll probe before Connect reports integration time.
Result<Federation> SetUp(const WorldText& world,
                         const FederationOptions& options, Tracer* tracer,
                         int root) {
  Federation fed;
  fed.fsm = std::make_unique<Fsm>();
  const std::string* data[] = {&world.data1, &world.data2};
  const std::string* schemas[] = {&world.schema1, &world.schema2};
  for (int side = 0; side < 2; ++side) {
    OOINT_ASSIGN_OR_RETURN(Schema schema,
                           InSpan(tracer, root, "model.schema_parse", [&] {
                             return SchemaParser::Parse(*schemas[side]);
                           }));
    const std::string agent_name = "agent" + std::to_string(side + 1);
    OOINT_ASSIGN_OR_RETURN(
        std::unique_ptr<FsmAgent> agent,
        InSpan(tracer, root, "federation.register", [&] {
          return FsmAgent::Create(agent_name, "ooint",
                                  "db" + std::to_string(side + 1),
                                  std::move(schema));
        }));
    if (!data[side]->empty()) {
      OOINT_RETURN_IF_ERROR(
          InSpan(tracer, root, "model.data_load", [&] {
            return InstanceParser::Load(*data[side], &agent->store());
          }).status());
    }
    OOINT_RETURN_IF_ERROR(InSpan(tracer, root, "federation.register", [&] {
      return fed.fsm->RegisterAgent(std::move(agent));
    }));
  }
  OOINT_RETURN_IF_ERROR(InSpan(tracer, root, "assertions.declare", [&] {
    return fed.fsm->DeclareAssertions(world.assertions);
  }));
  OOINT_ASSIGN_OR_RETURN(std::vector<ConsistencyFinding> findings,
                         InSpan(tracer, root, "integrate.consistency", [&] {
                           return fed.fsm->CheckAllConsistency();
                         }));
  (void)findings;
  if (tracer != nullptr) {
    OOINT_ASSIGN_OR_RETURN(GlobalSchema global,
                           InSpan(
                               tracer, root, "integrate.integrate",
                               [&] { return fed.fsm->IntegrateAll(); },
                               /*probe=*/true));
    fed.integration = global.total_stats;
  }
  fed.client = std::make_unique<FsmClient>(fed.fsm.get());
  OOINT_RETURN_IF_ERROR(InSpan(tracer, root, "federation.connect", [&] {
    return fed.client->Connect(Fsm::Strategy::kAccumulation, options);
  }));
  return fed;
}

/// Sets up repeatedly (see kSetups), keeps the last federation, and
/// stores the median wall time (probes excluded) in *setup_s.
Result<Federation> SetUpRepeated(const WorldText& world,
                                 const FederationOptions& options,
                                 Tracer* tracer, double* setup_s) {
  std::vector<double> seconds;
  Federation kept;
  double total_s = 0;
  for (int i = 0; i < kMaxSetups && (i < kSetups || total_s < kSetupSeconds); ++i) {
    kept = Federation();  // release the previous world first
    int root = -1;
    if (tracer != nullptr) root = tracer->Open("bench.setup", -1);
    const auto start = Clock::now();
    Result<Federation> fed = SetUp(world, options, tracer, root);
    double wall_ms = Ms(Clock::now() - start);
    if (tracer != nullptr) {
      tracer->Close(root);
      const std::vector<Span>& spans = tracer->spans();
      for (size_t s = root + 1; s < spans.size(); ++s) {
        if (spans[s].probe) wall_ms -= spans[s].end_ms - spans[s].start_ms;
      }
    }
    if (!fed.ok()) return fed.status();
    seconds.push_back(wall_ms / 1000.0);
    total_s += wall_ms / 1000.0;
    kept = std::move(fed).value();
  }
  *setup_s = Median(seconds);
  return kept;
}

/// Separate connections to the agents' stores, for timing FetchExtent
/// on a plan's ground scans without ticking the client's counters.
class FetchProbe {
 public:
  explicit FetchProbe(const Fsm& fsm) {
    for (const std::unique_ptr<FsmAgent>& agent : fsm.agents()) {
      connections_[agent->schema().name()] = std::make_unique<AgentConnection>(
          agent->schema().name(), &agent->store());
    }
  }
  /// Fetches every scan once, each in its own probe span.
  Status Run(const std::vector<ClassRef>& scans, Tracer* tracer, int root) {
    for (const ClassRef& scan : scans) {
      auto it = connections_.find(scan.schema);
      if (it == connections_.end()) {
        return Status::NotFound("no agent for " + scan.ToString());
      }
      OOINT_RETURN_IF_ERROR(InSpan(
                                tracer, root, "federation.fetch",
                                [&] { return it->second->FetchExtent(scan.class_name); },
                                /*probe=*/true)
                                .status());
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::unique_ptr<AgentConnection>> connections_;
};

struct FetchCounters {
  double calls = 0;
  double retries = 0;
};

FetchCounters CountFetches(const std::vector<AgentHealth>& health) {
  FetchCounters counters;
  for (const AgentHealth& agent : health) {
    counters.calls += static_cast<double>(agent.stats.calls);
    counters.retries += static_cast<double>(agent.stats.retries);
  }
  return counters;
}

FetchCounters CountFetches(const std::vector<AgentConnection*>& connections) {
  FetchCounters counters;
  for (const AgentConnection* connection : connections) {
    counters.calls += static_cast<double>(connection->stats().calls);
    counters.retries += static_cast<double>(connection->stats().retries);
  }
  return counters;
}

/// The per-layer metrics every workload derives from its trace the same
/// way: span medians, self times, the span-sum check against the
/// untraced op times by kind, and the tracing overhead.
void FillTraceMetrics(const TraceSummary& summary,
                      const std::map<std::string, std::vector<double>>& untraced,
                      Report* report) {
  std::map<std::string, std::vector<double>> op_ms_by_name;
  std::map<std::string, std::vector<double>> setup_ms_by_name;
  std::map<std::string, std::vector<double>> replica_by_kind;
  std::vector<double> traced_wall;
  for (const RequestProfile& request : summary.requests) {
    const bool setup = request.kind == "setup";
    for (const auto& [name, ms] : request.ms_by_name) {
      (setup ? setup_ms_by_name : op_ms_by_name)[name].push_back(ms);
    }
    if (setup) continue;
    replica_by_kind[request.kind].push_back(request.replica_ms);
    traced_wall.push_back(request.wall_ms);
  }
  for (const MetricDef& def : kPerLayer) {
    const std::string metric = def.name;
    if (metric.size() < 3 || metric.compare(metric.size() - 3, 3, "_ms") != 0) {
      continue;
    }
    const std::string span = metric.substr(0, metric.size() - 3);
    if (op_ms_by_name.count(span) > 0) {
      report->metrics[metric] = Median(op_ms_by_name[span]);
    } else if (setup_ms_by_name.count(span) > 0) {
      report->metrics[metric] = Median(setup_ms_by_name[span]);
    }
  }
  const double ops = static_cast<double>(std::max<size_t>(1, summary.op_requests));
  for (const char* layer : {"integrate", "rules", "federation"}) {
    auto it = summary.op_self_ms.find(layer);
    report->metrics[std::string(layer) + ".self_ms"] =
        it == summary.op_self_ms.end() ? 0 : it->second / ops;
  }

  // Span sums against the untraced medians, kind by kind; the reported
  // ratio is the kind farthest from 1.
  double worst = 1;
  std::vector<double> untraced_all;
  for (const auto& [kind, replica] : replica_by_kind) {
    auto it = untraced.find(kind);
    if (it == untraced.end() || it->second.empty()) continue;
    untraced_all.insert(untraced_all.end(), it->second.begin(), it->second.end());
    const double base = Median(it->second);
    const double ratio = base > 0 ? Median(replica) / base : 0;
    char note[192];
    std::snprintf(note, sizeof note,
                  "span check %-8s traced span sum %.4f ms vs untraced median "
                  "%.4f ms: ratio %.3f, %s tolerance %.2f",
                  kind.c_str(), Median(replica), base, ratio,
                  std::fabs(ratio - 1) <= kSpanTolerance ? "within" : "OUTSIDE",
                  kSpanTolerance);
    report->notes.push_back(note);
    if (std::fabs(ratio - 1) > std::fabs(worst - 1)) worst = ratio;
  }
  report->metrics["bench.span_sum_ratio"] = worst;
  const double untraced_mean = Mean(untraced_all);
  report->metrics["bench.trace_overhead_pct"] =
      untraced_mean > 0 ? (Mean(traced_wall) / untraced_mean - 1) * 100 : 0;
}

/// Extent digest over every global concept: fact count and an FNV-1a
/// hash of the sorted fact renderings, concept by concept.
struct Digest {
  size_t facts = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xff;
    hash *= 0x100000001b3ULL;
  }
  bool operator==(const Digest& o) const {
    return facts == o.facts && hash == o.hash;
  }
};

Result<Digest> ExtentDigest(
    const GlobalSchema& global,
    const std::function<Result<std::vector<const Fact*>>(const std::string&)>&
        facts_of) {
  Digest digest;
  for (const ClassDef& concept_def : global.schema.classes()) {
    OOINT_ASSIGN_OR_RETURN(std::vector<const Fact*> facts,
                           facts_of(concept_def.name()));
    std::vector<std::string> rendered;
    rendered.reserve(facts.size());
    for (const Fact* fact : facts) rendered.push_back(fact->ToString());
    std::sort(rendered.begin(), rendered.end());
    digest.Add(concept_def.name());
    for (const std::string& text : rendered) digest.Add(text);
    digest.facts += rendered.size();
  }
  return digest;
}

Result<Digest> ClientDigest(const FsmClient& client) {
  return ExtentDigest(client.global(), [&](const std::string& name) {
    return client.Extent(name);
  });
}

Result<Digest> EvaluatorDigest(const GlobalSchema& global,
                               const Evaluator& evaluator) {
  return ExtentDigest(global, [&](const std::string& name) {
    return Result<std::vector<const Fact*>>(evaluator.FactsOf(name));
  });
}

/// The rules-layer counts of one evaluation, checked for exact repeats.
void ObserveRuleCounts(const std::string& kind, const Evaluator::Stats& stats,
                       size_t store_bytes, CountCheck* check,
                       std::map<std::string, double>* counts) {
  const double stored =
      static_cast<double>(stats.base_facts + stats.derived_facts);
  const std::pair<const char*, double> values[] = {
      {"rules.base_facts", static_cast<double>(stats.base_facts)},
      {"rules.derived_facts", static_cast<double>(stats.derived_facts)},
      {"rules.iterations", static_cast<double>(stats.iterations)},
      {"rules.rule_applications", static_cast<double>(stats.rule_applications)},
      {"rules.index_probes", static_cast<double>(stats.index_probes)},
      {"rules.cursor_steps", static_cast<double>(stats.cursor_steps)},
      {"rules.merge_steps", static_cast<double>(stats.merge_steps)},
      {"rules.extents_fetched", static_cast<double>(stats.extents_fetched)},
      {"rules.cursor_steps_per_derived",
       stats.derived_facts > 0 ? static_cast<double>(stats.cursor_steps) /
                                     static_cast<double>(stats.derived_facts)
                               : 0},
      {"rules.bytes_per_fact",
       stored > 0 ? static_cast<double>(store_bytes) / stored : 0},
  };
  for (const auto& [name, value] : values) {
    check->Observe(kind + "/" + name, value);
    (*counts)[name] = value;
  }
}

double FixpointMs(const Evaluator::Stats& stats) {
  double ms = 0;
  for (double stratum : stats.stratum_ms) ms += stratum;
  return ms;
}

// --- Workload: connect ------------------------------------------------

Report RunConnect(std::uint64_t seed, double seconds, Tracer* tracer) {
  Report report;
  CountCheck check(&report);
  Result<WorldText> world = ConnectWorld(kConnectWorldSeed, seed);
  if (!world.ok()) {
    report.WrongAnswer("world generation failed: " + world.status().ToString());
    return report;
  }
  const FederationOptions options;  // materialized, strict, one thread
  double setup_s = 0;
  Result<Federation> fed = SetUpRepeated(world.value(), options, tracer, &setup_s);
  if (!fed.ok()) {
    report.WrongAnswer("set-up failed: " + fed.status().ToString());
    return report;
  }
  Fsm& fsm = *fed.value().fsm;
  const FsmClient& ready = *fed.value().client;

  // The expected answer: the set-up client's extents, and the derived
  // fact count of the same evaluation built by hand.
  Result<Digest> expected = ClientDigest(ready);
  size_t expected_derived = 0;
  {
    Result<FederatedEvaluator> reference =
        fsm.MakeFederatedEvaluator(ready.global(), options);
    if (!expected.ok() || !reference.ok()) {
      report.WrongAnswer("reference evaluation failed");
      return report;
    }
    expected_derived = reference.value().evaluator->stats().derived_facts;
    Result<Digest> reference_digest =
        EvaluatorDigest(ready.global(), *reference.value().evaluator);
    if (!reference_digest.ok() || !(reference_digest.value() == expected.value())) {
      report.WrongAnswer("hand-built evaluator disagrees with the client");
      return report;
    }
  }

  const double phase_s = tracer != nullptr ? seconds / 2 : seconds;
  std::vector<double> latencies;
  std::vector<Sample> samples;
  const auto phase_start = Clock::now();
  auto deadline = phase_start + std::chrono::duration<double>(phase_s);
  while (latencies.empty() || Clock::now() < deadline) {
    ++report.attempted;
    FsmClient client(&fsm);
    const auto start = Clock::now();
    const Status connected = client.Connect(Fsm::Strategy::kAccumulation, options);
    const double ms = Ms(Clock::now() - start);
    if (!connected.ok()) {
      report.OpFailed("connect: " + connected.ToString());
      continue;
    }
    latencies.push_back(ms);
    samples.push_back({Ms(start - phase_start) / 1000.0, ms});
    Result<Digest> digest = ClientDigest(client);
    if (!digest.ok() || !(digest.value() == expected.value())) {
      report.WrongAnswer("connect produced a different extent digest");
    }
  }
  report.metrics["setup_s"] = setup_s;
  report.metrics["p50_ms"] = QuietQuantile(samples, 0.5);
  report.metrics["p90_ms"] = QuietQuantile(samples, 0.9);
  report.metrics["ops_per_s"] = QuietRate(samples);
  report.metrics["peak_rss_mb"] = PeakRssMb();
  {
    char note[256];
    std::snprintf(note, sizeof note,
                  "connect: %zu connects, connect_p50_ms %.3f ms, "
                  "connect_p90_ms %.3f ms, %zu facts (%zu derived)",
                  latencies.size(), Quantile(latencies, 0.5),
                  Quantile(latencies, 0.9), expected.value().facts,
                  expected_derived);
    report.notes.push_back(note);
  }
  if (tracer == nullptr) return report;

  // Traced: each op is IntegrateAll, a fetch probe over the ground
  // scans, then MakeFederatedEvaluator (which fetches and runs the
  // fixpoint), split into base load and fixpoint by the evaluator's
  // per-stratum times.
  std::vector<ClassRef> scans;
  for (const auto& [concept_name, refs] : ready.global().ground_sources) {
    for (const ClassRef& ref : refs) {
      if (std::find(scans.begin(), scans.end(), ref) == scans.end()) {
        scans.push_back(ref);
      }
    }
  }
  FetchProbe probe(fsm);
  std::map<std::string, double> counts;
  std::uint64_t request = 1;
  deadline = Clock::now() + std::chrono::duration<double>(seconds / 2);
  size_t traced = 0;
  while (traced == 0 || Clock::now() < deadline) {
    ++traced;
    ++report.attempted;
    tracer->set_request(request++);
    const int root = tracer->Open("bench.connect", -1);
    Result<GlobalSchema> global = InSpan(tracer, root, "integrate.integrate",
                                         [&] { return fsm.IntegrateAll(); });
    if (!global.ok()) {
      tracer->Close(root);
      report.OpFailed("integrate: " + global.status().ToString());
      continue;
    }
    const Status fetched = probe.Run(scans, tracer, root);
    const int evaluate = tracer->Open("rules.evaluate", root);
    Result<FederatedEvaluator> evaluator =
        fsm.MakeFederatedEvaluator(global.value(), options);
    tracer->Close(evaluate);
    tracer->Close(root);
    if (!fetched.ok() || !evaluator.ok()) {
      report.OpFailed("evaluate failed");
      continue;
    }
    const Span span = tracer->spans()[evaluate];
    const Evaluator& ev = *evaluator.value().evaluator;
    const double fixpoint = std::min(FixpointMs(ev.stats()), span.end_ms - span.start_ms);
    tracer->Record("rules.base_load", evaluate, span.start_ms, span.end_ms - fixpoint);
    tracer->Record("rules.fixpoint", evaluate, span.end_ms - fixpoint, span.end_ms);

    Result<Digest> digest = EvaluatorDigest(global.value(), ev);
    if (!digest.ok() || !(digest.value() == expected.value()) ||
        ev.stats().derived_facts != expected_derived) {
      report.WrongAnswer("traced connect derived a different world");
    }
    ObserveRuleCounts("connect", ev.stats(), ev.fact_store().memory().total(),
                      &check, &counts);
    const FetchCounters fetches = CountFetches(evaluator.value().connections);
    const IntegrationStats& integration = global.value().total_stats;
    const std::pair<const char*, double> more[] = {
        {"integrate.pairs_checked", static_cast<double>(integration.pairs_checked)},
        {"integrate.rules_generated",
         static_cast<double>(integration.rules_generated)},
        {"federation.fetch_calls", fetches.calls},
        {"federation.fetch_retries", fetches.retries},
    };
    for (const auto& [name, value] : more) {
      check.Observe(std::string("connect/") + name, value);
      counts[name] = value;
    }
  }
  for (const auto& [name, value] : counts) report.metrics[name] = value;
  FillTraceMetrics(Summarize({tracer}), {{"connect", latencies}}, &report);
  return report;
}

// --- Workload: demand -------------------------------------------------

/// ParseQuery plus resolution against the client's global schema: the
/// steps RunTextQuery takes before Run.
Result<Query> ParseAndResolve(const FsmClient& client, const std::string& text) {
  OOINT_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
  OOINT_ASSIGN_OR_RETURN(std::string global_name,
                         client.GlobalNameOf(parsed.schema, parsed.class_name));
  Query query(global_name);
  for (const AttrDescriptor& d : parsed.query.pattern().attrs) {
    if (d.value.is_constant()) {
      query.Where(d.attribute, d.value.constant);
    } else if (d.value.is_variable()) {
      query.Select(d.attribute, d.value.var);
    }
  }
  return query;
}

/// A demand goal: child `which` of family `family`.
struct Goal {
  size_t family;
  char which;
  std::string Text() const {
    return "?- S2.uncle(niece_nephew: \"" + Child(family, which) +
           "\", Ussn#: who)";
  }
};

/// The uncle-of answer check: exactly one row whose `who` is one of
/// `allowed`.
bool UncleAnswerOk(const std::vector<Bindings>& rows,
                   const std::vector<std::string>& allowed) {
  if (rows.size() != 1) return false;
  auto it = rows[0].find("who");
  if (it == rows[0].end() || it->second.kind() != ValueKind::kString) {
    return false;
  }
  return std::find(allowed.begin(), allowed.end(), it->second.AsString()) !=
         allowed.end();
}

Report RunDemand(std::uint64_t seed, double seconds, Tracer* tracer) {
  Report report;
  CountCheck check(&report);
  Result<WorldText> world = GenealogyWorld(kDemandFamilies, seed);
  if (!world.ok()) {
    report.WrongAnswer("world generation failed");
    return report;
  }
  FederationOptions options;
  options.query_mode = QueryMode::kDemandDriven;
  double setup_s = 0;
  Result<Federation> fed = SetUpRepeated(world.value(), options, tracer, &setup_s);
  if (!fed.ok()) {
    report.WrongAnswer("set-up failed: " + fed.status().ToString());
    return report;
  }
  Fsm& fsm = *fed.value().fsm;
  const FsmClient& client = *fed.value().client;

  // Goals: a seeded hot set, and a seeded stream of the rest that is
  // consumed without repeats (and reshuffled when it runs out).
  Rng rng(SubSeed(seed, 6));
  std::vector<Goal> goals;
  for (size_t f = 0; f < kDemandFamilies; ++f) {
    goals.push_back({f, 'a'});
    goals.push_back({f, 'b'});
  }
  rng.Shuffle(&goals);
  const std::vector<Goal> hot(goals.begin(), goals.begin() + kHotGoals);
  std::vector<Goal> fresh(goals.begin() + kHotGoals, goals.end());
  size_t next_fresh = 0;
  const size_t hot_ops =
      static_cast<size_t>(std::lround(kHotShare * static_cast<double>(kRoundOps)));

  // A round drops the cache, warms the hot set, then runs kRoundOps ops
  // in a seeded order.
  struct Op {
    Goal goal;
    bool hot;
  };
  auto plan_round = [&]() {
    // A round never straddles a reshuffle, which could repeat a goal.
    if (fresh.size() - next_fresh < kRoundOps - hot_ops) {
      rng.Shuffle(&fresh);
      next_fresh = 0;
    }
    std::vector<Op> ops;
    for (size_t i = 0; i < kRoundOps; ++i) {
      if (i < hot_ops) {
        ops.push_back({hot[rng.Below(hot.size())], true});
      } else {
        ops.push_back({fresh[next_fresh++], false});
      }
    }
    rng.Shuffle(&ops);
    return ops;
  };
  auto warm = [&]() {
    client.InvalidateQueryCache();
    for (const Goal& goal : hot) {
      Result<std::vector<Bindings>> rows = RunTextQuery(client, goal.Text());
      if (!rows.ok() || !UncleAnswerOk(rows.value(), {UncleSsn(goal.family)})) {
        report.WrongAnswer("hot goal warm-up answered wrongly");
      }
    }
  };

  const double phase_s = tracer != nullptr ? seconds / 2 : seconds;
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> by_kind;
  std::vector<Sample> samples;
  size_t rounds = 0;
  FsmClient::QueryCacheStats round_stats;
  const auto phase_start = Clock::now();
  auto deadline = phase_start + std::chrono::duration<double>(phase_s);
  while (rounds == 0 || Clock::now() < deadline) {
    ++rounds;
    const std::vector<Op> ops = plan_round();
    std::vector<std::string> texts;
    for (const Op& op : ops) texts.push_back(op.goal.Text());
    warm();
    const FsmClient::QueryCacheStats before = client.query_cache_stats();
    for (size_t i = 0; i < ops.size(); ++i) {
      ++report.attempted;
      const auto start = Clock::now();
      Result<std::vector<Bindings>> rows = RunTextQuery(client, texts[i]);
      const double ms = Ms(Clock::now() - start);
      if (!rows.ok()) {
        report.OpFailed("query: " + rows.status().ToString());
        continue;
      }
      latencies.push_back(ms);
      samples.push_back({Ms(start - phase_start) / 1000.0, ms});
      by_kind[ops[i].hot ? "hit" : "miss"].push_back(ms);
      if (!UncleAnswerOk(rows.value(), {UncleSsn(ops[i].goal.family)})) {
        report.WrongAnswer("wrong uncle for " + texts[i]);
      }
    }
    const FsmClient::QueryCacheStats after = client.query_cache_stats();
    round_stats.hits = after.hits - before.hits;
    round_stats.misses = after.misses - before.misses;
    check.Observe("round/federation.cache_hits", static_cast<double>(round_stats.hits));
    check.Observe("round/federation.cache_misses",
                  static_cast<double>(round_stats.misses));
  }
  report.metrics["setup_s"] = setup_s;
  report.metrics["p50_ms"] = QuietQuantile(samples, 0.5);
  report.metrics["p90_ms"] = QuietQuantile(samples, 0.9);
  report.metrics["ops_per_s"] = QuietRate(samples);
  report.metrics["peak_rss_mb"] = PeakRssMb();
  {
    char note[256];
    std::snprintf(note, sizeof note,
                  "demand: %zu rounds, %zu queries, read_p50_ms %.4f ms, "
                  "read_p90_ms %.4f ms, read_p99_ms %.4f ms, hit p50 %.4f ms, "
                  "miss p50 %.4f ms, %zu hits / %zu misses per round",
                  rounds, latencies.size(), Quantile(latencies, 0.5),
                  Quantile(latencies, 0.9), Quantile(latencies, 0.99),
                  Median(by_kind["hit"]),
                  Median(by_kind["miss"]), round_stats.hits, round_stats.misses);
    report.notes.push_back(note);
  }
  if (tracer == nullptr) return report;

  // Traced: a hit is parse + Run through the client; a miss is parse,
  // a MagicRewrite probe, a fetch probe over the plan's ground scans,
  // then EvaluateDemand on an evaluator built like the client's, split
  // into rewrite, base load and fixpoint.
  report.metrics["federation.cache_hits"] = static_cast<double>(round_stats.hits);
  report.metrics["federation.cache_misses"] = static_cast<double>(round_stats.misses);
  report.metrics["federation.cache_hit_ratio"] =
      static_cast<double>(round_stats.hits) /
      static_cast<double>(std::max<size_t>(1, round_stats.hits + round_stats.misses));
  Result<FederatedEvaluator> demand = fsm.MakeFederatedEvaluator(client.global(), options);
  Result<Query> sample = ParseAndResolve(client, hot[0].Text());
  if (!demand.ok() || !sample.ok()) {
    report.WrongAnswer("traced set-up failed");
    return report;
  }
  Result<QueryPlan> plan = client.Explain(sample.value());
  if (!plan.ok()) {
    report.WrongAnswer("explain failed: " + plan.status().ToString());
    return report;
  }
  FetchProbe probe(fsm);
  const Evaluator& evaluator = *demand.value().evaluator;
  std::map<std::string, double> counts;
  std::uint64_t request = 1;
  size_t traced_rounds = 0;
  deadline = Clock::now() + std::chrono::duration<double>(seconds / 2);
  while (traced_rounds == 0 || Clock::now() < deadline) {
    ++traced_rounds;
    const std::vector<Op> ops = plan_round();
    std::vector<std::string> texts;
    for (const Op& op : ops) texts.push_back(op.goal.Text());
    warm();
    for (size_t i = 0; i < ops.size(); ++i) {
      ++report.attempted;
      tracer->set_request(request++);
      const int root = tracer->Open(ops[i].hot ? "bench.hit" : "bench.miss", -1);
      Result<Query> query = InSpan(tracer, root, "federation.query_parse",
                                   [&] { return ParseAndResolve(client, texts[i]); });
      if (!query.ok()) {
        tracer->Close(root);
        report.OpFailed("parse: " + query.status().ToString());
        continue;
      }
      const std::vector<std::string> allowed = {UncleSsn(ops[i].goal.family)};
      if (ops[i].hot) {
        Result<std::vector<Bindings>> rows = InSpan(
            tracer, root, "federation.run", [&] { return client.Run(query.value()); });
        tracer->Close(root);
        if (!rows.ok()) {
          report.OpFailed("run: " + rows.status().ToString());
        } else if (!UncleAnswerOk(rows.value(), allowed)) {
          report.WrongAnswer("wrong uncle for " + texts[i]);
        }
        continue;
      }
      const int rewrite = tracer->Open("rules.rewrite_probe", root, /*probe=*/true);
      const MagicProgram program = MagicRewrite(
          client.global().rules, ExtractGoalBinding(query.value().pattern()));
      tracer->Close(rewrite);
      const Status fetched = probe.Run(plan.value().ground_scans, tracer, root);
      const FetchCounters before = CountFetches(demand.value().connections);
      const int span = tracer->Open("rules.demand", root);
      Result<Evaluator::DemandOutcome> outcome =
          evaluator.EvaluateDemand(query.value().pattern());
      tracer->Close(span);
      tracer->Close(root);
      if (!fetched.ok() || !outcome.ok() || program.rules.empty()) {
        report.OpFailed("demand evaluation failed");
        continue;
      }
      const FetchCounters after = CountFetches(demand.value().connections);
      // Copies: Record below may reallocate the span list.
      const Span demand_span = tracer->spans()[span];
      const Span rewrite_span = tracer->spans()[rewrite];
      const double start = demand_span.start_ms;
      const double end = demand_span.end_ms;
      const double fixpoint = std::min(FixpointMs(outcome.value().stats), end - start);
      const double rewrite_ms =
          std::min(rewrite_span.end_ms - rewrite_span.start_ms, end - start - fixpoint);
      tracer->Record("rules.demand_rewrite", span, start, start + rewrite_ms);
      tracer->Record("rules.demand_base_load", span, start + rewrite_ms, end - fixpoint);
      tracer->Record("rules.demand_fixpoint", span, end - fixpoint, end);
      if (!UncleAnswerOk(outcome.value().rows, allowed)) {
        report.WrongAnswer("wrong uncle for " + texts[i]);
      }
      const size_t bytes = outcome.value().sub->fact_store().memory().total();
      ObserveRuleCounts("miss", outcome.value().stats, bytes, &check, &counts);
      const std::pair<const char*, double> more[] = {
          {"rules.outcome_bytes", static_cast<double>(bytes)},
          {"federation.fetch_calls", after.calls - before.calls},
          {"federation.fetch_retries", after.retries - before.retries},
      };
      for (const auto& [name, value] : more) {
        check.Observe(std::string("miss/") + name, value);
        counts[name] = value;
      }
    }
  }
  for (const auto& [name, value] : counts) report.metrics[name] = value;
  report.metrics["integrate.pairs_checked"] =
      static_cast<double>(fed.value().integration.pairs_checked);
  report.metrics["integrate.rules_generated"] =
      static_cast<double>(fed.value().integration.rules_generated);
  FillTraceMetrics(Summarize({tracer}), by_kind, &report);
  return report;
}

// --- Workload: serve_live ---------------------------------------------

/// The open-loop maintain workload: the op schedule, the workers, and
/// the state the answer checks need.
class LiveServer {
 public:
  enum class Kind { kPoint, kTopK, kWrite };
  struct Op {
    Kind kind = Kind::kPoint;
    size_t family = 0;
    Clock::time_point due;
  };
  /// What one worker observed over a phase.
  struct Observed {
    std::vector<Sample> reads;         // due time, latency from due time
    std::vector<double> write_ms;      // from due time
    std::map<std::string, std::vector<double>> service_ms;  // by kind
    /// How late an idle worker started an op it was waiting for.
    std::vector<double> late_ms;
    size_t attempted = 0;
    size_t reopens = 0;
    PipelineStats pipeline;            // of the last top-k read
  };

  LiveServer(Fsm* fsm, FsmClient* client, size_t families, std::uint64_t seed,
             Report* report)
      : fsm_(fsm), client_(client), report_(report), check_(report) {
    history_.resize(families);
    committed_.assign(families, 0);
    for (size_t f = 0; f < families; ++f) history_[f].push_back(UncleSsn(f));
    InstanceStore& store = fsm_->FindAgent("S1")->store();
    const std::vector<Oid> initial = store.Extent("brother").value();
    for (const Oid& oid : initial) {
      const Value& parents = store.Find(oid)->Get("brothers");
      const std::string& parent = parents.AsSet().at(0).AsString();
      brothers_.push_back({oid, std::stoul(parent.substr(1))});
    }
    const std::string uncle = client_->GlobalNameOf("S2", "uncle").value();
    for (size_t f = 0; f < families; ++f) {
      Query query(uncle);
      query.Where("niece_nephew", Value::String(Child(f, 'a'))).Select("Ussn#", "who");
      point_queries_.push_back(query);
    }
    topk_query_ = std::make_unique<Query>(uncle);
    topk_query_->Select("Ussn#", "who").Select("niece_nephew", "kid");
    std::vector<std::pair<std::string, size_t>> kids;
    for (size_t f = 0; f < families; ++f) {
      kids.push_back({Child(f, 'a'), f});
      kids.push_back({Child(f, 'b'), f});
    }
    std::sort(kids.begin(), kids.end());
    kids.resize(kTopK);
    topk_expected_ = kids;
    Rng rng(SubSeed(seed, 7));
    const size_t count = static_cast<size_t>(kLiveRatePerS * 120) + 1;
    for (size_t i = 0; i < count; ++i) {
      const double u = rng.Uniform();
      Op op;
      op.kind = u < kPointShare                ? Kind::kPoint
                : u < kPointShare + kTopKShare ? Kind::kTopK
                                               : Kind::kWrite;
      op.family = rng.Below(families);
      schedule_.push_back(op);
    }
  }

  /// Runs the open loop for `seconds`; with `tracers` (one per worker)
  /// each op is a traced request.
  ///
  /// Op i is due at start + i / rate. The schedule is the generator: an
  /// idle worker claims the next op and spins until it is due, so an op
  /// starts late only when every worker is busy, and that wait counts in
  /// its latency. Workers spin rather than sleep because waking a thread
  /// on a busy virtual machine takes up to milliseconds; a separate
  /// generator thread would spin too and take a host core from them.
  std::vector<Observed> RunPhase(double seconds, std::vector<Tracer>* tracers) {
    const size_t count =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(kLiveRatePerS * seconds)));
    std::atomic<size_t> claimed{0};
    std::vector<Observed> observed(kLiveWorkers);
    const auto start = Clock::now();
    phase_start_ = start;
    const auto period = std::chrono::duration<double>(1.0 / kLiveRatePerS);
    std::vector<std::thread> workers;
    for (int w = 0; w < kLiveWorkers; ++w) {
      workers.emplace_back([&, w] {
        const RotatingCpus rotating;
        Tracer* tracer = tracers == nullptr ? nullptr : &(*tracers)[w];
        for (size_t i = claimed.fetch_add(1); i < count; i = claimed.fetch_add(1)) {
          Op op = schedule_[(next_op_ + i) % schedule_.size()];
          op.due = start + std::chrono::duration_cast<Clock::duration>(period * i);
          const bool idle = Clock::now() < op.due;
          while (Clock::now() < op.due) SpinPause();
          if (idle) observed[w].late_ms.push_back(Ms(Clock::now() - op.due));
          Execute(op, tracer, &observed[w]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    next_op_ += count;
    phase_wall_s_ = std::chrono::duration<double>(Clock::now() - start).count();
    late_ms_.clear();
    for (const Observed& o : observed) {
      late_ms_.insert(late_ms_.end(), o.late_ms.begin(), o.late_ms.end());
    }
    return observed;
  }

  const std::vector<double>& late_ms() const { return late_ms_; }
  double phase_wall_s() const { return phase_wall_s_; }
  /// Per-batch maintenance counts of the last write.
  const std::map<std::string, double>& batch_counts() const { return batch_counts_; }

 private:
  void Execute(const Op& op, Tracer* tracer, Observed* out) {
    ++out->attempted;
    const char* kind_name = op.kind == Kind::kPoint  ? "point"
                            : op.kind == Kind::kTopK ? "topk"
                                                     : "write";
    int root = -1;
    if (tracer != nullptr) {
      tracer->set_request(requests_.fetch_add(1));
      root = tracer->Open(op.kind == Kind::kPoint  ? "bench.point"
                          : op.kind == Kind::kTopK ? "bench.topk"
                                                   : "bench.write",
                          -1);
    }
    double call_ms = 0;
    switch (op.kind) {
      case Kind::kPoint:
        PointReads(op.family, tracer, root, &call_ms);
        break;
      case Kind::kTopK:
        TopKRead(tracer, root, &call_ms, out);
        break;
      case Kind::kWrite:
        Write(tracer, root, &call_ms);
        break;
    }
    const auto end = Clock::now();
    if (tracer != nullptr) tracer->Close(root);
    out->service_ms[kind_name].push_back(call_ms);
    if (op.kind == Kind::kWrite) {
      out->write_ms.push_back(Ms(end - op.due));
    } else {
      out->reads.push_back({Ms(op.due - phase_start_) / 1000.0, Ms(end - op.due)});
    }
  }

  /// The window of uncles a read of `family` may see: the one current
  /// when it started through the newest one a write has begun since.
  size_t Committed(size_t family) {
    std::lock_guard<std::mutex> lock(history_mu_);
    return committed_[family];
  }
  bool Allowed(size_t family, size_t from, const std::string& who) {
    std::lock_guard<std::mutex> lock(history_mu_);
    const std::vector<std::string>& seen = history_[family];
    return std::find(seen.begin() + from, seen.end(), who) != seen.end();
  }

  void PointReads(size_t first, Tracer* tracer, int root, double* call_ms) {
    for (size_t i = 0; i < kPointBatch; ++i) {
      PointRead((first + i) % point_queries_.size(), tracer, root, call_ms);
    }
  }

  void PointRead(size_t family, Tracer* tracer, int root, double* call_ms) {
    const size_t from = Committed(family);
    Result<std::vector<Bindings>> rows =
        TimedCall(tracer, root, "federation.run", call_ms,
                  [&] { return client_->Run(point_queries_[family]); });
    if (!rows.ok()) {
      Fail("point read: " + rows.status().ToString());
      return;
    }
    const std::vector<Bindings>& answer = rows.value();
    bool ok = answer.size() == 1;
    if (ok) {
      auto who = answer[0].find("who");
      ok = who != answer[0].end() && who->second.kind() == ValueKind::kString &&
           Allowed(family, from, who->second.AsString());
    }
    if (!ok) {
      Wrong("point read of family " + std::to_string(family) +
            " saw a stale or missing uncle");
    }
  }

  void TopKRead(Tracer* tracer, int root, double* call_ms, Observed* out) {
    std::vector<size_t> from;
    for (const auto& [kid, family] : topk_expected_) from.push_back(Committed(family));
    ServingOptions serving;
    serving.page_size = kTopKPage;
    serving.order_by = "kid";
    serving.limit = kTopK;
    for (int attempt = 0; attempt <= kMaxCursorReopens; ++attempt) {
      Result<std::unique_ptr<ServingCursor>> cursor =
          TimedCall(tracer, root, "federation.cursor_open", call_ms,
                    [&] { return client_->OpenCursor(*topk_query_, serving); });
      if (!cursor.ok()) {
        Fail("cursor open: " + cursor.status().ToString());
        return;
      }
      std::vector<Bindings> rows;
      bool expired = false;
      while (true) {
        Result<Page> page = TimedCall(tracer, root, "federation.next_page", call_ms,
                                      [&] { return cursor.value()->NextPage(); });
        if (!page.ok()) {
          if (page.status().code() != StatusCode::kFailedPrecondition) {
            Fail("next page: " + page.status().ToString());
            return;
          }
          expired = true;
          break;
        }
        rows.insert(rows.end(), page.value().rows.begin(), page.value().rows.end());
        if (!page.value().has_more) break;
      }
      if (expired) {
        ++out->reopens;
        continue;
      }
      out->pipeline = cursor.value()->pipeline_stats();
      CheckTopK(rows, from);
      return;
    }
    Fail("top-k cursor expired on every reopen");
  }

  void CheckTopK(const std::vector<Bindings>& rows, const std::vector<size_t>& from) {
    bool ok = rows.size() == topk_expected_.size();
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      auto kid = rows[i].find("kid");
      auto who = rows[i].find("who");
      ok = kid != rows[i].end() && who != rows[i].end() &&
           kid->second.kind() == ValueKind::kString &&
           who->second.kind() == ValueKind::kString &&
           kid->second.AsString() == topk_expected_[i].first &&
           Allowed(topk_expected_[i].second, from[i], who->second.AsString());
    }
    if (!ok) Wrong("top-k cursor read returned the wrong rows");
  }

  /// Replaces the brothers at the front of the queue with fresh ones of
  /// the same families and feeds the change to ApplyDelta.
  void Write(Tracer* tracer, int root, double* call_ms) {
    std::lock_guard<std::mutex> writer(writer_mu_);
    InstanceStore& store = fsm_->FindAgent("S1")->store();
    ExtentDelta feed;
    feed.agent_name = "S1";
    feed.epoch = ++epoch_;
    std::vector<size_t> families;
    for (size_t i = 0; i < kReplacementsPerWrite; ++i) {
      const auto [victim, family] = brothers_.front();
      brothers_.pop_front();
      feed.deleted.push_back(*store.Find(victim));
      const Value parents = feed.deleted.back().Get("brothers");
      (void)store.Remove(victim);
      const std::string ssn = UncleSsn(family) + "r" + std::to_string(++replacements_);
      Object* fresh = store.NewObject("brother").value();
      fresh->Set("Bssn#", Value::String(ssn))
          .Set("name", Value::String("uncle_" + ssn))
          .Set("brothers", parents);
      brothers_.push_back({fresh->oid(), family});
      feed.inserted.push_back(*fresh);
      families.push_back(family);
      std::lock_guard<std::mutex> lock(history_mu_);
      history_[family].push_back(ssn);
    }
    const DeltaMaintenanceStats before = client_->maintenance_stats();
    const Status applied = TimedCall(tracer, root, "federation.apply_delta", call_ms,
                                     [&] { return client_->ApplyDelta(feed); });
    if (!applied.ok()) {
      Fail("apply delta: " + applied.ToString());
      return;
    }
    const DeltaMaintenanceStats after = client_->maintenance_stats();
    {
      std::lock_guard<std::mutex> lock(history_mu_);
      for (size_t family : families) committed_[family] = history_[family].size() - 1;
    }
    const std::pair<const char*, double> counts[] = {
        {"rules.delta_facts_changed",
         static_cast<double>(after.facts_inserted + after.facts_deleted -
                             before.facts_inserted - before.facts_deleted)},
        {"rules.delta_rederived", static_cast<double>(after.rederived - before.rederived)},
        {"rules.delta_rounds", static_cast<double>(after.rounds - before.rounds)},
    };
    std::lock_guard<std::mutex> lock(report_mu_);
    for (const auto& [name, value] : counts) {
      check_.Observe(std::string("write/") + name, value);
      batch_counts_[name] = value;
    }
  }

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_->OpFailed(why);
  }
  void Wrong(const std::string& why) {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_->WrongAnswer(why);
  }

  Fsm* fsm_;
  FsmClient* client_;
  std::vector<Op> schedule_;
  size_t next_op_ = 0;
  std::vector<Query> point_queries_;
  std::unique_ptr<Query> topk_query_;
  /// The kTopK smallest kids and their families.
  std::vector<std::pair<std::string, size_t>> topk_expected_;
  std::vector<double> late_ms_;
  Clock::time_point phase_start_;
  double phase_wall_s_ = 0;
  std::atomic<std::uint64_t> requests_{1};

  /// Serializes writes, so delta epochs arrive in order.
  std::mutex writer_mu_;
  std::uint64_t epoch_ = 0;
  size_t replacements_ = 0;
  std::deque<std::pair<Oid, size_t>> brothers_;  // oldest first

  /// Per family, every uncle it has had, and the index of the one the
  /// client has applied.
  std::mutex history_mu_;
  std::vector<std::vector<std::string>> history_;
  std::vector<size_t> committed_;

  std::mutex report_mu_;
  Report* report_;
  CountCheck check_;
  std::map<std::string, double> batch_counts_;
};

Report RunServeLive(std::uint64_t seed, double seconds, Tracer* setup_tracer,
                    std::vector<Tracer>* tracers) {
  Report report;
  Result<WorldText> world = GenealogyWorld(kLiveFamilies, seed);
  if (!world.ok()) {
    report.WrongAnswer("world generation failed");
    return report;
  }
  FederationOptions options;
  options.live_updates = true;
  options.admission.max_concurrent = kLiveWorkers;
  options.admission.max_queue_depth = kLiveWorkers;
  options.admission.queue_wait_deadline_ms = 1000;
  double setup_s = 0;
  Result<Federation> fed =
      SetUpRepeated(world.value(), options, setup_tracer, &setup_s);
  if (!fed.ok()) {
    report.WrongAnswer("set-up failed: " + fed.status().ToString());
    return report;
  }
  FsmClient& client = *fed.value().client;
  LiveServer server(fed.value().fsm.get(), &client, kLiveFamilies, seed, &report);

  const bool traced = setup_tracer != nullptr;
  std::vector<LiveServer::Observed> untraced =
      server.RunPhase(traced ? seconds / 2 : seconds, nullptr);
  std::vector<Sample> read_samples;
  std::vector<double> reads, writes;
  std::map<std::string, std::vector<double>> service;
  size_t completed = 0;
  for (const LiveServer::Observed& o : untraced) {
    report.attempted += o.attempted;
    read_samples.insert(read_samples.end(), o.reads.begin(), o.reads.end());
    for (const Sample& read : o.reads) reads.push_back(read.ms);
    writes.insert(writes.end(), o.write_ms.begin(), o.write_ms.end());
    for (const auto& [kind, ms] : o.service_ms) {
      service[kind].insert(service[kind].end(), ms.begin(), ms.end());
    }
    completed += o.reads.size() + o.write_ms.size();
  }
  report.metrics["setup_s"] = setup_s;
  report.metrics["p50_ms"] = QuietQuantile(read_samples, 0.5);
  report.metrics["p90_ms"] = QuietQuantile(read_samples, 0.9);
  report.metrics["ops_per_s"] = static_cast<double>(completed) / server.phase_wall_s();
  report.metrics["peak_rss_mb"] = PeakRssMb();
  {
    char note[320];
    std::snprintf(note, sizeof note,
                  "serve_live: %zu ops at %.0f/s offered, read_p50_ms %.4f ms, "
                  "read_p90_ms %.4f ms, read_p99_ms %.4f ms, write_p50_ms %.4f ms, "
                  "write_p99_ms %.4f ms, generator late p50 %.4f ms p99 %.4f ms",
                  completed, kLiveRatePerS, Quantile(reads, 0.5),
                  Quantile(reads, 0.9), Quantile(reads, 0.99), Quantile(writes, 0.5),
                  Quantile(writes, 0.99), Quantile(server.late_ms(), 0.5),
                  Quantile(server.late_ms(), 0.99));
    report.notes.push_back(note);
  }
  if (!traced) return report;

  // Traced: the same open loop with every call recorded. Integration,
  // fetch and base load belong to set-up; the fetch counters over the
  // timed phase show none of them runs there.
  const FetchCounters fetch_before = CountFetches(client.ConnectionHealth());
  const AdmissionController::Stats admission_before = client.admission_stats();
  std::vector<LiveServer::Observed> observed = server.RunPhase(seconds / 2, tracers);
  const FetchCounters fetch_after = CountFetches(client.ConnectionHealth());
  const AdmissionController::Stats admission_after = client.admission_stats();
  size_t traced_reads = 0, reopens = 0;
  PipelineStats pipeline;
  for (const LiveServer::Observed& o : observed) {
    report.attempted += o.attempted;
    traced_reads += o.reads.size();
    reopens += o.reopens;
    if (o.pipeline.rows_in > 0) pipeline = o.pipeline;
  }
  const std::pair<const char*, double> values[] = {
      {"integrate.pairs_checked",
       static_cast<double>(fed.value().integration.pairs_checked)},
      {"integrate.rules_generated",
       static_cast<double>(fed.value().integration.rules_generated)},
      {"rules.pipeline_rows_in", static_cast<double>(pipeline.rows_in)},
      {"rules.pipeline_rows_out", static_cast<double>(pipeline.rows_out)},
      {"rules.pipeline_peak_held_bytes", static_cast<double>(pipeline.peak_held_bytes)},
      {"rules.pipeline_heap_evictions", static_cast<double>(pipeline.heap_evictions)},
      {"federation.fetch_calls", fetch_after.calls - fetch_before.calls},
      {"federation.fetch_retries", fetch_after.retries - fetch_before.retries},
      {"federation.cursor_reopens", static_cast<double>(reopens)},
      {"common.admission_wait_ms",
       static_cast<double>(admission_after.total_wait_ms - admission_before.total_wait_ms) /
           static_cast<double>(std::max<size_t>(1, traced_reads))},
      {"common.admission_rejected",
       static_cast<double>(admission_after.rejected_full + admission_after.rejected_wait -
                           admission_before.rejected_full - admission_before.rejected_wait)},
      {"bench.generator_late_ms", Quantile(server.late_ms(), 0.99)},
  };
  for (const auto& [name, value] : values) report.metrics[name] = value;
  for (const auto& [name, value] : server.batch_counts()) report.metrics[name] = value;
  std::vector<const Tracer*> all = {setup_tracer};
  for (const Tracer& tracer : *tracers) all.push_back(&tracer);
  FillTraceMetrics(Summarize(all), service, &report);
  return report;
}

// --- Entry point ------------------------------------------------------

void PrintResult(const Report& report, bool trace) {
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& problem : report.problems) {
    std::printf("# problem: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  auto print = [&](const MetricDef& def) {
    auto it = report.metrics.find(def.name);
    double value = it == report.metrics.end() ? 0 : it->second;
    if (!std::isfinite(value)) value = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                def.name, value, def.unit);
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) print(def);
  } else {
    for (const MetricDef& def : kEndToEnd) print(def);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "--seconds must be positive and --trace 0 or 1\n");
    return 2;
  }
  std::printf("# build %s, workload %s, seed %llu, %.3g s, trace %d\n",
              E2E_BUILD_TYPE, workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  const RotatingCpus rotating;
  Tracer tracer;
  Tracer* traced = trace != 0 ? &tracer : nullptr;
  std::vector<Tracer> worker_tracers(trace != 0 ? kLiveWorkers : 0);
  Report report;
  if (workload == "connect") {
    Migrator().set_period(kConnectRotate);
    report = RunConnect(seed, seconds, traced);
  } else if (workload == "demand") {
    report = RunDemand(seed, seconds, traced);
  } else if (workload == "serve_live") {
    report = RunServeLive(seed, seconds, traced, &worker_tracers);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (connect, demand, serve_live)\n",
                 workload.c_str());
    return 2;
  }
  if (traced != nullptr) {
    std::vector<const Tracer*> all = {traced};
    for (const Tracer& worker : worker_tracers) all.push_back(&worker);
    WriteSpans(spans_path, all);
  }
  if (report.attempted == 0) {
    for (const std::string& problem : report.problems) {
      std::fprintf(stderr, "%s\n", problem.c_str());
    }
    return 1;
  }
  PrintResult(report, trace != 0);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace ooint

int main(int argc, char** argv) { return ooint::e2e::Main(argc, argv); }
