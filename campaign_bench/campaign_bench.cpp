// Campaign benchmark program: one fixed, mixed Chapter-5 campaign through
// four execution paths (see README.md in this directory).
//
//   campaign_bench --workload W --seed S --seconds T --trace 0|1
//                  --work DIR [--spans FILE]
//
// Workloads: campaign-serial, campaign-procs3, journal-cold, cache-warm.
//
// Every invocation first runs the campaign once on the reference path
// (SerialRunner, no cache) and digests every delivered result — its
// encode_experiment_result bytes in delivery order plus the MeasureSink
// values. A correctness pass of the workload's own path must reproduce
// that digest byte for byte, and every timed repetition must reproduce the
// measure values. Then the workload repeats for T seconds (closed loop:
// every index is queued at start and the runner pulls work as fast as it
// can), one fresh Campaign per repetition.
//
// --trace 1 adds the outside-in layer trace: repetitions alternate between
// plain and decorated (generator and sink wrapped in timing decorators),
// and a replay drives the same experiments through the library's public
// functions in the order the workload's path calls them, recording one
// span per call. The replay's outputs must be byte-identical to the
// reference. Spans are kept in memory and written to --spans at the end.
//
// The program prints one JSON object of raw measurements on stdout; run.py
// turns it into the benchmark's metrics. All arithmetic on the samples
// (medians, quartiles, span self times) lives in run.py.
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "apps/kvstore.hpp"
#include "apps/registry.hpp"
#include "apps/token_ring.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/validate.hpp"
#include "clocksync/projection.hpp"
#include "measure/campaign_measure.hpp"
#include "measure/statistics.hpp"
#include "measure/study_measure.hpp"
#include "runtime/compiled_study.hpp"
#include "runtime/experiment_context.hpp"
#include "runtime/serialize.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace loki;

namespace {

using Clock = std::chrono::steady_clock;
using Hash = std::array<std::uint8_t, 32>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- the bench campaign --------------------------------------------------------

// Experiments per study. Fixed: the campaign (and so its digest) must not
// depend on how long a run measures.
constexpr int kElectionExperiments = 100;
constexpr int kKvExperiments = 100;
constexpr int kTokenRingExperiments = 50;

/// Worker processes of campaign-procs3; with the coordinator that is four
/// busy processes.
constexpr int kProcsWorkers = 3;

/// Experiment seeds of benchmark seed S are offset by S * kSeedStride, so
/// seed 0 reproduces the seeds bench/tab_ch5_campaign.cpp uses.
constexpr std::uint64_t kSeedStride = 1'000'000;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};

runtime::ExperimentParams election_base(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  app.fault_activation_prob = 0.85;
  return apps::election_experiment(
      seed, kHosts,
      {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
}

std::size_t node_slot(const runtime::ExperimentParams& p,
                      const std::string& nick) {
  for (std::size_t i = 0; i < p.nodes.size(); ++i)
    if (p.nodes[i].nickname == nick) return i;
  throw std::logic_error("no node " + nick);
}

/// 1 when the predicate held at any time during the experiment, else 0.
measure::ObservationFunction ever_true() {
  return measure::obs_greater(
      measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                  measure::TimeArg::end_exp()),
      0.0);
}

measure::ObservationFunction total_duration() {
  return measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                     measure::TimeArg::end_exp());
}

struct BenchCampaign {
  std::vector<runtime::StudyParams> studies;
  std::vector<measure::StudyMeasure> measures;
  int total_experiments() const {
    int n = 0;
    for (const auto& s : studies) n += s.experiments;
    return n;
  }
};

/// Studies 1-5 are the Chapter 5 election studies of
/// bench/tab_ch5_campaign.cpp (coverage of black/green/yellow, then the
/// gfault2 vs gfault3 correlation pair); study 6 is the discard-heavy
/// kvstore study, study 7 the analysis-heavy token-ring study.
BenchCampaign make_campaign(std::uint64_t bench_seed) {
  const std::uint64_t base = bench_seed * kSeedStride;
  BenchCampaign c;
  const char* machines[3] = {"black", "green", "yellow"};
  const double reliability[3] = {0.9, 0.7, 0.5};
  for (int i = 0; i < 3; ++i) {
    const std::string machine = machines[i];
    const int study_no = i + 1;
    const double rel = reliability[i];
    runtime::StudyParams s;
    s.name = "study" + std::to_string(study_no) + "-" + machine;
    s.experiments = kElectionExperiments;
    s.make_params = [machine, study_no, rel, base](int k) {
      auto p = election_base(base + 10'000 * static_cast<std::uint64_t>(study_no) +
                             static_cast<std::uint64_t>(k));
      auto& node = p.nodes[node_slot(p, machine)];
      node.fault_spec = spec::parse_fault_spec(
          machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n", "ch5");
      node.restart.enabled = true;
      node.restart.delay = milliseconds(60);
      node.restart.max_restarts = 2;
      Rng rng(base + 777 + static_cast<std::uint64_t>(study_no) * 131 +
              static_cast<std::uint64_t>(k));
      if (!rng.bernoulli(rel)) node.restart.enabled = false;
      return p;
    };
    measure::StudyMeasure m;
    m.add(measure::subset_default(),
          measure::parse_predicate("(" + machine + ", CRASH)"), total_duration());
    m.add(measure::subset_greater(0.0),
          measure::parse_predicate("(" + machine + ", RESTART_SM)"),
          ever_true());
    c.studies.push_back(std::move(s));
    c.measures.push_back(std::move(m));
  }

  {
    runtime::StudyParams s;
    s.name = "study4-correlated";
    s.experiments = kElectionExperiments;
    s.make_params = [base](int k) {
      auto p = election_base(base + 40'000 + static_cast<std::uint64_t>(k));
      p.nodes[0].fault_spec =
          spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "ch5");
      p.nodes[node_slot(p, "green")].fault_spec = spec::parse_fault_spec(
          "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
          "ch5");
      return p;
    };
    measure::StudyMeasure m;
    m.add(measure::subset_default(), measure::parse_predicate("(black, CRASH)"),
          total_duration());
    m.add(measure::subset_greater(0.0),
          measure::parse_predicate("(green, CRASH)"), ever_true());
    c.studies.push_back(std::move(s));
    c.measures.push_back(std::move(m));
  }
  {
    runtime::StudyParams s;
    s.name = "study5-baseline";
    s.experiments = kElectionExperiments;
    s.make_params = [base](int k) {
      auto p = election_base(base + 50'000 + static_cast<std::uint64_t>(k));
      p.nodes[node_slot(p, "green")].fault_spec = spec::parse_fault_spec(
          "gfault3 ((green:FOLLOW) | (green:ELECT)) once\n", "ch5");
      return p;
    };
    measure::StudyMeasure m;
    m.add(measure::subset_default(), measure::parse_predicate("(green, CRASH)"),
          ever_true());
    c.studies.push_back(std::move(s));
    c.measures.push_back(std::move(m));
  }
  {
    runtime::StudyParams s;
    s.name = "study6-kvstore";
    s.experiments = kKvExperiments;
    s.make_params = [base](int k) {
      apps::KvStoreParams app;
      app.initial_primary = "kv1";
      app.run_for = milliseconds(500);
      auto p = apps::kvstore_experiment(
          base + 60'000 + static_cast<std::uint64_t>(k), kHosts,
          {{"kv1", "hostA"}, {"kv2", "hostB"}, {"kv3", "hostC"}}, app);
      p.nodes[1].fault_spec = spec::parse_fault_spec(
          "f ((kv1:REPLICATING) & (kv2:BACKUP)) once\n", "bench");
      return p;
    };
    measure::StudyMeasure m;
    m.add(measure::subset_default(), measure::parse_predicate("(kv2, CRASH)"),
          ever_true());
    c.studies.push_back(std::move(s));
    c.measures.push_back(std::move(m));
  }
  {
    runtime::StudyParams s;
    s.name = "study7-token-ring";
    s.experiments = kTokenRingExperiments;
    s.make_params = [base](int k) {
      apps::TokenRingParams app;
      app.run_for = milliseconds(400);
      auto p = apps::token_ring_experiment(
          base + 70'000 + static_cast<std::uint64_t>(k), kHosts,
          {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}}, app);
      p.nodes[2].fault_spec = spec::parse_fault_spec(
          "duplicate_token (n1:CRITICAL) once\n", "bench");
      return p;
    };
    // Mutual exclusion is violated while any two nodes are CRITICAL at
    // once; the observation is the violation's total duration (ns).
    measure::StudyMeasure m;
    m.add(measure::subset_default(),
          measure::parse_predicate(
              "((n1, CRITICAL) & (n2, CRITICAL)) | "
              "((n1, CRITICAL) & (n3, CRITICAL)) | "
              "((n2, CRITICAL) & (n3, CRITICAL))"),
          total_duration());
    c.studies.push_back(std::move(s));
    c.measures.push_back(std::move(m));
  }
  return c;
}

// --- workloads -----------------------------------------------------------------

enum class Workload { Serial, Procs3, JournalCold, CacheWarm };

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "campaign-serial") return Workload::Serial;
  if (name == "campaign-procs3") return Workload::Procs3;
  if (name == "journal-cold") return Workload::JournalCold;
  if (name == "cache-warm") return Workload::CacheWarm;
  return std::nullopt;
}

std::string runner_spec_of(Workload w) {
  return w == Workload::Procs3 ? "procs:" + std::to_string(kProcsWorkers)
                               : "serial";
}

int busy_processes_of(Workload w) {
  return w == Workload::Procs3 ? kProcsWorkers + 1 : 1;
}

std::vector<int> online_cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Write back everything pending on the filesystem holding `dir`.
void sync_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// --- spans ---------------------------------------------------------------------

struct Span {
  int parent{-1};
  const char* name{""};
  int study{-1};
  int index{-1};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// In-memory span recorder. Not thread-safe: every span of this program is
/// opened on the coordinator's main thread.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int parent, int study, int index) {
    spans_.push_back(Span{parent, name, study, index, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// Run `fn` inside a span and return its result.
  template <class F>
  decltype(auto) time(const char* name, int parent, int study, int index,
                      F&& fn) {
    const int id = open(name, parent, study, index);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close(id);
    } else {
      decltype(auto) out = fn();
      close(id);
      return out;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- outcomes and digests --------------------------------------------------------

struct StudyOutcome {
  int total{0};
  int accepted{0};
  std::vector<double> values;
  bool operator==(const StudyOutcome&) const = default;
};

Hash sha256_of(const std::vector<std::uint8_t>& bytes) {
  util::Sha256 h;
  h.update(bytes.data(), bytes.size());
  return h.finish();
}

std::string hex(const Hash& h) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : h) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The campaign digest: every result's bytes hash in delivery order, then
/// each study's counts and measure values.
std::string campaign_digest(const std::vector<Hash>& result_hashes,
                            const BenchCampaign& c,
                            const std::vector<StudyOutcome>& outcomes) {
  util::Sha256 h;
  for (const Hash& r : result_hashes) h.update(r.data(), r.size());
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    std::string line = c.studies[s].name + " " +
                       std::to_string(outcomes[s].total) + " " +
                       std::to_string(outcomes[s].accepted);
    for (double v : outcomes[s].values) line += " " + fmt_double(v);
    line += "\n";
    h.update(line.data(), line.size());
  }
  return hex(h.finish());
}

// --- sinks -------------------------------------------------------------------------

/// Aggregated worker-side telemetry, folded in at every study end.
struct FleetAgg {
  runtime::WorkerStatsSnapshot merged;
  double worker_wall_s{0.0};
  double busy_us_est{0.0};
  std::vector<int> final_lease_sizes;
};

/// First sink of every campaign: stamps the first delivery, counts
/// deliveries, optionally hashes every result's encoded bytes, and (for
/// fallible runners) folds the fleet telemetry in at each study end.
class ProbeSink final : public campaign::ResultSink {
 public:
  ProbeSink(bool digest, std::shared_ptr<campaign::Runner> runner)
      : digest_(digest), runner_(std::move(runner)) {}

  void on_study_begin(const campaign::StudyInfo&) override {
    study_start_ = Clock::now();
  }
  void on_experiment(const campaign::StudyInfo&, int,
                     const runtime::ExperimentResult& result) override {
    if (!first_.has_value()) first_ = Clock::now();
    ++delivered_;
    if (digest_) {
      buffer_.clear();
      runtime::encode_experiment_result(result, buffer_);
      hashes_.push_back(sha256_of(buffer_));
    }
  }
  void on_study_done(const campaign::StudyInfo&) override {
    if (runner_ == nullptr) return;
    const campaign::RunnerTelemetry t = runner_->telemetry();
    if (t.workers.empty()) return;
    const double wall = seconds_between(study_start_, Clock::now());
    for (const campaign::WorkerTelemetry& w : t.workers) {
      fleet_.merged = runtime::merge_snapshots(fleet_.merged, w.latest);
      for (int b = 0; b < runtime::LatencyHistogram::kBuckets; ++b)
        fleet_.busy_us_est +=
            w.latest.histogram.buckets[static_cast<std::size_t>(b)] *
            runtime::LatencyHistogram::bucket_mid_us(b);
      fleet_.worker_wall_s += wall;
    }
    fleet_.final_lease_sizes.push_back(t.final_lease_size);
  }

  std::optional<Clock::time_point> first() const { return first_; }
  int delivered() const { return delivered_; }
  const std::vector<Hash>& hashes() const { return hashes_; }
  const FleetAgg& fleet() const { return fleet_; }

 private:
  bool digest_;
  std::shared_ptr<campaign::Runner> runner_;
  std::optional<Clock::time_point> first_;
  Clock::time_point study_start_{};
  int delivered_{0};
  std::vector<std::uint8_t> buffer_;
  std::vector<Hash> hashes_;
  FleetAgg fleet_;
};

/// Timing decorator around another sink: forwards every callback and
/// records one span per on_experiment.
class TimingSink final : public campaign::ResultSink {
 public:
  TimingSink(std::shared_ptr<campaign::ResultSink> inner, Tracer* tracer,
             int parent)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent) {}

  void on_campaign_begin(int studies) override {
    inner_->on_campaign_begin(studies);
  }
  void on_study_begin(const campaign::StudyInfo& s) override {
    inner_->on_study_begin(s);
  }
  void on_experiment(const campaign::StudyInfo& s, int index,
                     const runtime::ExperimentResult& r) override {
    tracer_->time("campaign.sink", parent_, s.index, index,
                  [&] { inner_->on_experiment(s, index, r); });
  }
  void on_study_done(const campaign::StudyInfo& s) override {
    inner_->on_study_done(s);
  }
  void on_campaign_done() override { inner_->on_campaign_done(); }

 private:
  std::shared_ptr<campaign::ResultSink> inner_;
  Tracer* tracer_;
  int parent_;
};

// --- one campaign execution ------------------------------------------------------

struct RepConfig {
  Workload workload{Workload::Serial};
  bool digest{false};
  Tracer* tracer{nullptr};  // non-null: decorate generators and the sink
  fs::path cache_dir;       // journal-cold / cache-warm / prefill
  fs::path journal;         // journal-cold only
};

struct RepResult {
  double wall_s{0.0};
  double setup_s{0.0};
  double cpu_s{0.0};
  double cal_s{0.0};
  double cal_fs_s{0.0};  // journal-cold only
  long rss_kb{0};
  int delivered{0};
  std::vector<StudyOutcome> outcomes;
  std::vector<Hash> hashes;
  FleetAgg fleet;
  int requeued_indices{0};
  int workers_lost{0};
  double sink_s{0.0};  // decorated repetitions only
};

/// A fixed, library-independent CPU kernel (pointer chasing around a
/// 256 KiB single-cycle permutation, integer mixing, small allocations),
/// timed before and after every repetition so run.py can separate the
/// machine's speed drift from the code's speed.
double calibrate_s() {
  static std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(64 * 1024);
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);  // Sattolo: one cycle
    }
    return v;
  }();
  const Clock::time_point start = Clock::now();
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int round = 0; round < 1500; ++round) {
    std::vector<std::string> words;
    for (int i = 0; i < 1000; ++i) {
      at = next[at];
      acc = (acc ^ at) * 0x9E3779B97F4A7C15ull;
      if ((i & 63) == 0) words.push_back(std::to_string(acc));
    }
    acc += words.size();
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_between(start, Clock::now());
}

/// calibrate_s() on every CPU of `cpus` at once, one pinned thread each, and
/// the mean of their times: the speed of the CPUs a multi-process workload
/// spreads over, not only the coordinator's.
double calibrate_all_s(const std::vector<int>& cpus) {
  std::vector<double> times(cpus.size(), 0.0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i)
    threads.emplace_back([&, i] {
      pin_to_cpu(cpus[i]);
      times[i] = calibrate_s();
    });
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

/// The filesystem kernel, for the durable-store path: kCalFiles small files
/// written, fsync'd and renamed into place, then removed, as
/// ResultCache::store does with each result. Plain POSIX calls, no library
/// code.
double calibrate_fs_s(const fs::path& dir) {
  constexpr int kCalFiles = 48;
  static const std::vector<char> payload(16 * 1024, 'x');
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kCalFiles; ++i) {
    const fs::path tmp = dir / ("cal-" + std::to_string(i) + ".tmp");
    const fs::path dst = dir / ("cal-" + std::to_string(i) + ".dat");
    const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) throw std::runtime_error("calibration: cannot create " + tmp.string());
    const bool ok = ::write(fd, payload.data(), payload.size()) ==
                        static_cast<ssize_t>(payload.size()) &&
                    ::fsync(fd) == 0;
    ::close(fd);
    if (!ok || ::rename(tmp.c_str(), dst.c_str()) != 0)
      throw std::runtime_error("calibration: cannot write " + dst.string());
  }
  const double elapsed = seconds_between(start, Clock::now());
  for (int i = 0; i < kCalFiles; ++i)
    fs::remove(dir / ("cal-" + std::to_string(i) + ".dat"));
  return elapsed;
}

/// Peak resident set of this process (VmHWM) since the last
/// reset_peak_rss(). Not getrusage's ru_maxrss: that survives execve, so it
/// would report the launching interpreter's footprint when that is larger.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

/// Restart VmHWM from the current resident set, so the next peak_rss_kb()
/// covers one repetition only.
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double cpu_seconds_now() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  }
  return total;
}

RepResult run_campaign_once(const BenchCampaign& bc, const RepConfig& cfg) {
  const double cpu_before = cpu_seconds_now();
  const Clock::time_point start = Clock::now();
  Tracer* tracer = cfg.tracer;
  int root = -1;
  if (tracer != nullptr) root = tracer->open("campaign.run", -1, -1, -1);

  std::shared_ptr<campaign::Runner> runner =
      campaign::parse_runner_spec(runner_spec_of(cfg.workload));
  auto probe = std::make_shared<ProbeSink>(
      cfg.digest, cfg.workload == Workload::Procs3 ? runner : nullptr);
  auto measures = std::make_shared<campaign::MeasureSink>();
  for (std::size_t s = 0; s < bc.studies.size(); ++s)
    measures->measure(bc.studies[s].name, bc.measures[s]);

  CampaignBuilder builder;
  for (std::size_t s = 0; s < bc.studies.size(); ++s) {
    runtime::StudyParams study = bc.studies[s];
    if (tracer != nullptr) {
      study.make_params = [inner = bc.studies[s].make_params, tracer, root,
                           s](int k) {
        return tracer->time("apps.generate", root, static_cast<int>(s), k,
                            [&] { return inner(k); });
      };
    }
    builder.add(std::move(study));
  }
  builder.runner(runner).sink(probe);
  if (tracer != nullptr)
    builder.sink(std::make_shared<TimingSink>(measures, tracer, root));
  else
    builder.sink(measures);
  std::shared_ptr<campaign::ResultCache> cache;
  if (!cfg.cache_dir.empty()) {
    cache = std::make_shared<campaign::ResultCache>(cfg.cache_dir);
    builder.cache(cache);
  }
  if (!cfg.journal.empty()) builder.journal(cfg.journal.string());

  const std::size_t spans_before =
      tracer != nullptr ? tracer->spans().size() : 0;
  Campaign campaign = builder.build();
  const Campaign::Summary summary = campaign.run();
  if (tracer != nullptr) tracer->close(root);

  RepResult out;
  out.wall_s = summary.wall_seconds;
  out.delivered = probe->delivered();
  out.setup_s = probe->first().has_value()
                    ? seconds_between(start, *probe->first())
                    : seconds_between(start, Clock::now());
  out.requeued_indices = summary.requeued_indices;
  out.workers_lost = summary.workers_lost;
  for (const auto& study : bc.studies) {
    StudyOutcome o;
    if (const auto* st = measures->find(study.name)) {
      o.total = st->total;
      o.accepted = st->accepted;
    }
    if (const auto* v = measures->values(study.name)) o.values = *v;
    out.outcomes.push_back(std::move(o));
  }
  out.hashes = probe->hashes();
  out.fleet = probe->fleet();
  if (tracer != nullptr) {
    const auto& spans = tracer->spans();
    for (std::size_t i = spans_before; i < spans.size(); ++i)
      if (std::string_view(spans[i].name) == "campaign.sink")
        out.sink_s += 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  out.cpu_s = cpu_seconds_now() - cpu_before;
  return out;
}

// --- replay --------------------------------------------------------------------------

/// The reference the replay's outputs are checked against.
struct Reference {
  std::vector<std::vector<Hash>> hashes;  // [study][index]
  std::vector<StudyOutcome> outcomes;
};

struct ReplayCounters {
  int experiments{0};
  int compiles{0};
  std::uint64_t sim_events{0};
  std::uint64_t records{0};
  std::uint64_t sync_samples{0};
  std::uint64_t result_bytes{0};
  std::uint64_t header_hits{0};
  std::uint64_t header_misses{0};
  std::uint64_t journal_records{0};
  int accepted{0};
  int mismatched{0};
  campaign::ResultCache::Stats cache;
};

constexpr std::size_t kBatchSoftBytes = 64 * 1024;  // ServeOptions default

/// Replays the workload's path call by call. Every call into the library is
/// one span under an "exp" segment span whose ID is (study, index); glue
/// between calls is the exp segments' own self time.
class Replayer {
 public:
  Replayer(Workload w, const BenchCampaign& bc, const Reference& ref,
           Tracer& tracer, fs::path work)
      : w_(w), bc_(bc), ref_(ref), t_(tracer), work_(std::move(work)) {}

  ReplayCounters run() {
    root_ = t_.open("replay", -1, -1, -1);
    std::shared_ptr<campaign::ResultCache> cache;
    std::optional<campaign::CampaignJournal> journal;
    if (w_ == Workload::JournalCold || w_ == Workload::CacheWarm) {
      const fs::path dir = work_ / (w_ == Workload::JournalCold ? "replay-cache"
                                                                : "warm-cache");
      if (w_ == Workload::JournalCold) fs::remove_all(dir);
      cache = t_.time("campaign.cache_open", root_, -1, -1, [&] {
        return std::make_shared<campaign::ResultCache>(dir);
      });
    }
    if (w_ == Workload::JournalCold) {
      t_.time("campaign.journal", root_, -1, -1, [&] {
        journal.emplace(
            campaign::CampaignJournal::create(work_ / "replay.journal"));
        journal->campaign_begin("serial", 0,
                                static_cast<std::uint32_t>(bc_.studies.size()));
      });
      c_.journal_records += 1;
    }
    for (std::size_t s = 0; s < bc_.studies.size(); ++s) {
      const int si = static_cast<int>(s);
      if (journal) {
        t_.time("campaign.journal", root_, si, -1, [&] {
          journal->study_begin(static_cast<std::uint32_t>(s),
                               bc_.studies[s].name,
                               campaign::study_digest(bc_.studies[s]),
                               static_cast<std::uint32_t>(
                                   bc_.studies[s].experiments));
        });
        c_.journal_records += 1;
      }
      if (cache)
        cached_study(si, *cache, journal ? &*journal : nullptr);
      else
        fresh_study(si);
      if (journal) {
        t_.time("campaign.journal", root_, si, -1,
                [&] { journal->study_end(static_cast<std::uint32_t>(s)); });
        c_.journal_records += 1;
      }
      if (values_ != ref_.outcomes[s].values || accepted_ != ref_.outcomes[s].accepted) {
        ++c_.mismatched;
        errors_.push_back("replay: measure values of " + bc_.studies[s].name +
                          " differ from the reference");
      }
    }
    if (journal) {
      t_.time("campaign.journal", root_, -1, -1, [&] {
        journal->campaign_end();
        journal.reset();
      });
      c_.journal_records += 1;
    }
    if (cache) c_.cache = cache->stats();
    t_.close(root_);
    return c_;
  }

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  const runtime::StudyParams& study(int s) const {
    return bc_.studies[static_cast<std::size_t>(s)];
  }

  runtime::ExperimentParams generate(int seg, int s, int k) {
    return t_.time("apps.generate", seg, s, k,
                   [&] { return study(s).make_params(k); });
  }

  void validate(int seg, int s, int k, const runtime::ExperimentParams& p) {
    t_.time("campaign.validate", seg, s, k, [&] {
      campaign::validate_experiment_params(
          p, campaign::experiment_context(study(s), k));
    });
  }

  runtime::ExperimentResult execute(int seg, int s, int k,
                                    const runtime::ExperimentParams& p) {
    if (!context_) {
      auto compiled = t_.time("runtime.compile", seg, s, k, [&] {
        return runtime::CompiledStudy::compile(p);
      });
      ++c_.compiles;
      context_ = std::make_unique<runtime::ExperimentContext>(compiled);
    }
    runtime::ExperimentResult r =
        t_.time("runtime.run", seg, s, k, [&] { return context_->run(p); });
    c_.sim_events += r.sim_events;
    return r;
  }

  /// MeasureSink's work for one result: analyze_experiment's three calls,
  /// then the study's measure on accepted experiments.
  void sink(int seg, int s, int k, const runtime::ExperimentResult& r) {
    ++c_.experiments;
    c_.sync_samples += r.sync_samples.size();
    for (const auto& tl : r.timelines) c_.records += tl.records.size();
    const std::string& reference = r.hosts.front();
    analysis::ExperimentAnalysis a;
    a.alphabeta = t_.time("clocksync.alphabeta", seg, s, k, [&] {
      return clocksync::compute_alphabeta(r.sync_samples, r.hosts, reference);
    });
    std::vector<const runtime::LocalTimeline*> timelines;
    timelines.reserve(r.timelines.size());
    for (const runtime::LocalTimeline& tl : r.timelines) timelines.push_back(&tl);
    a.timeline = t_.time("analysis.timeline", seg, s, k, [&] {
      return analysis::build_global_timeline(timelines, a.alphabeta);
    });
    a.verification = t_.time("analysis.verify", seg, s, k, [&] {
      return analysis::verify_experiment(timelines, a.alphabeta);
    });
    a.start_ref = static_cast<double>(r.start_local_of(reference).ns);
    a.end_ref = static_cast<double>(r.end_local_of(reference).ns);
    a.accepted = a.verification.accepted && r.completed;
    if (!a.accepted) return;
    ++c_.accepted;
    ++accepted_;
    const std::optional<double> v = t_.time("measure.apply", seg, s, k, [&] {
      return bc_.measures[static_cast<std::size_t>(s)].apply(a);
    });
    if (v.has_value()) values_.push_back(*v);
  }

  /// Byte-identity of the replayed result with the reference. On the
  /// journal-cold path the check's encode is the same call the cache store
  /// makes internally, so it is timed as runtime.encode; on cache-warm the
  /// check also decodes those bytes again, the call the cache lookup makes
  /// internally, timed as runtime.decode.
  void check(int seg, int s, int k, const runtime::ExperimentResult& r) {
    const int id = t_.open("bench.check", seg, s, k);
    const auto encode = [&] { return runtime::encode_experiment_result(r); };
    std::vector<std::uint8_t> bytes =
        w_ == Workload::JournalCold
            ? t_.time("runtime.encode", id, s, k, encode)
            : encode();
    if (w_ == Workload::CacheWarm)
      t_.time("runtime.decode", id, s, k, [&] {
        return runtime::decode_experiment_result(bytes.data(), bytes.size());
      });
    c_.result_bytes += bytes.size();
    if (sha256_of(bytes) !=
        ref_.hashes[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)]) {
      ++c_.mismatched;
      errors_.push_back("replay: result bytes of " +
                        campaign::experiment_context(study(s), k) +
                        " differ from the reference");
    }
    t_.close(id);
  }

  /// campaign-serial and campaign-procs3: generate, validate, run; serial
  /// delivers each result to the sink, procs3 encodes it into a 64 KiB
  /// result batch that the coordinator decodes (interned) before analysis.
  void fresh_study(int s) {
    context_.reset();
    values_.clear();
    accepted_ = 0;
    runtime::ResultInterner interner;
    std::vector<std::uint8_t> batch;
    runtime::begin_result_batch(batch);
    const int n = study(s).experiments;
    for (int k = 0; k < n; ++k) {
      const int seg = t_.open("exp", root_, s, k);
      const runtime::ExperimentParams p = generate(seg, s, k);
      validate(seg, s, k, p);
      runtime::ExperimentResult r = execute(seg, s, k, p);
      if (w_ == Workload::Serial) {
        sink(seg, s, k, r);
        check(seg, s, k, r);
        t_.close(seg);
        continue;
      }
      t_.time("runtime.encode", seg, s, k, [&] {
        runtime::append_result_ok_entry(batch, static_cast<std::uint32_t>(k), r);
      });
      if (batch.size() < kBatchSoftBytes && k + 1 < n) {
        t_.close(seg);
        continue;
      }
      std::vector<runtime::ResultFrame> frames =
          t_.time("runtime.decode", seg, s, k, [&] {
            return runtime::decode_result_batch_frame(batch, &interner);
          });
      runtime::begin_result_batch(batch);
      t_.close(seg);
      for (const runtime::ResultFrame& f : frames) {
        const int kk = static_cast<int>(f.index);
        const int seg2 = t_.open("exp", root_, s, kk);
        sink(seg2, s, kk, f.result);
        check(seg2, s, kk, f.result);
        t_.close(seg2);
      }
    }
    c_.header_hits += interner.header_hits();
    c_.header_misses += interner.header_misses();
  }

  /// journal-cold and cache-warm: the cache-first path. A probe pass keys
  /// every index (generate, key, contains; hits are validated there), then
  /// misses run (generate, validate, run, store, journal) and hits are
  /// looked up, each delivered to the sink in index order.
  void cached_study(int s, campaign::ResultCache& cache,
                    campaign::CampaignJournal* journal) {
    context_.reset();
    values_.clear();
    accepted_ = 0;
    const int n = study(s).experiments;
    std::vector<std::string> keys(static_cast<std::size_t>(n));
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    for (int k = 0; k < n; ++k) {
      const int seg = t_.open("exp", root_, s, k);
      const runtime::ExperimentParams p = generate(seg, s, k);
      auto& key = keys[static_cast<std::size_t>(k)];
      key = t_.time("runtime.cache_key", seg, s, k,
                    [&] { return runtime::experiment_cache_key(p); });
      hit[static_cast<std::size_t>(k)] = t_.time(
          "campaign.cache_contains", seg, s, k, [&] { return cache.contains(key); });
      if (hit[static_cast<std::size_t>(k)]) validate(seg, s, k, p);
      t_.close(seg);
    }
    for (int k = 0; k < n; ++k) {
      const int seg = t_.open("exp", root_, s, k);
      const auto& key = keys[static_cast<std::size_t>(k)];
      std::optional<runtime::ExperimentResult> r;
      if (hit[static_cast<std::size_t>(k)]) {
        r = t_.time("campaign.cache_lookup", seg, s, k,
                    [&] { return cache.lookup(key); });
        if (!r.has_value())
          throw std::runtime_error("replay: cache entry vanished: " + key);
      } else {
        const runtime::ExperimentParams p = generate(seg, s, k);
        validate(seg, s, k, p);
        r = execute(seg, s, k, p);
        t_.time("campaign.cache_store", seg, s, k, [&] { cache.store(key, *r); });
      }
      if (journal != nullptr) {
        t_.time("campaign.journal", seg, s, k, [&] {
          journal->index_done(static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(k), key);
        });
        c_.journal_records += 1;
      }
      sink(seg, s, k, *r);
      check(seg, s, k, *r);
      t_.close(seg);
    }
  }

  Workload w_;
  const BenchCampaign& bc_;
  const Reference& ref_;
  Tracer& t_;
  fs::path work_;
  int root_{-1};
  std::unique_ptr<runtime::ExperimentContext> context_;
  std::vector<double> values_;
  int accepted_{0};
  ReplayCounters c_;
  std::vector<std::string> errors_;
};

// --- JSON output -------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, fmt_double(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <class T, class F>
std::string json_array(const std::vector<T>& items, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + render(items[i]);
  return out + "]";
}

std::string fleet_json(const FleetAgg& f) {
  std::vector<std::uint32_t> buckets(f.merged.histogram.buckets.begin(),
                                     f.merged.histogram.buckets.end());
  return JsonObject()
      .num("completed", static_cast<double>(f.merged.experiments_completed))
      .num("bytes_encoded", static_cast<double>(f.merged.bytes_encoded))
      .num("batches_flushed", static_cast<double>(f.merged.batches_flushed))
      .num("busy_us_est", f.busy_us_est)
      .num("worker_wall_s", f.worker_wall_s)
      .raw("buckets", json_array(buckets, [](std::uint32_t b) {
             return std::to_string(b);
           }))
      .raw("final_lease_sizes", json_array(f.final_lease_sizes, [](int v) {
             return std::to_string(v);
           }))
      .str();
}

// --- main ----------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  fs::path work;
  fs::path spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload")
      a.workload = v;
    else if (flag == "--seed")
      a.seed = std::stoull(v);
    else if (flag == "--seconds")
      a.seconds = std::stod(v);
    else if (flag == "--trace")
      a.trace = v == "1";
    else if (flag == "--work")
      a.work = v;
    else if (flag == "--spans")
      a.spans = v;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.work.empty()) throw std::invalid_argument("--work DIR is required");
  return a;
}

int run(const Args& args) {
  const std::optional<Workload> wl = parse_workload(args.workload);
  if (!wl.has_value()) {
    std::fprintf(stderr, "campaign_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload w = *wl;

  // Guards: optimized builds only, and never more busy processes than CPUs.
#ifndef NDEBUG
  std::fprintf(stderr, "campaign_bench: refusing an assert-enabled build\n");
  return 2;
#endif
  if (std::string(LOKI_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "campaign_bench: refusing build type '%s' (need Release)\n",
                 LOKI_BENCH_BUILD_TYPE);
    return 2;
  }
  const std::vector<int> cpus = online_cpu_list();
  const int nproc = static_cast<int>(cpus.size());
  if (busy_processes_of(w) > nproc) {
    std::fprintf(stderr,
                 "campaign_bench: %s needs %d busy processes but only %d CPUs "
                 "are online\n",
                 runner_spec_of(w).c_str(), busy_processes_of(w), nproc);
    return 2;
  }

  apps::register_builtin_apps();
  fs::create_directories(args.work);
  const BenchCampaign bc = make_campaign(args.seed);
  const int planned = bc.total_experiments();
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;
  const auto account = [&](const RepResult& r, const char* what,
                           const std::vector<StudyOutcome>& want) {
    attempted += planned;
    if (r.delivered != planned || r.outcomes != want) {
      failed += planned;
      errors.push_back(std::string(what) + ": delivered " +
                       std::to_string(r.delivered) + " of " +
                       std::to_string(planned) +
                       (r.outcomes != want ? ", measure values differ" : ""));
    }
  };

  // Reference: the serial, uncached path, fully digested.
  const RepResult ref = run_campaign_once(bc, RepConfig{Workload::Serial, true});
  attempted += planned;
  if (ref.delivered != planned) {
    failed += planned;
    errors.push_back("reference: delivered " + std::to_string(ref.delivered));
  }
  const std::string ref_digest = campaign_digest(ref.hashes, bc, ref.outcomes);
  Reference reference;
  reference.outcomes = ref.outcomes;
  {
    std::size_t next = 0;
    for (const auto& s : bc.studies) {
      std::vector<Hash> hs;
      for (int k = 0; k < s.experiments && next < ref.hashes.size(); ++k)
        hs.push_back(ref.hashes[next++]);
      reference.hashes.push_back(std::move(hs));
    }
  }

  int rep_no = 0;
  const auto config_for = [&](Tracer* tracer, bool digest) {
    RepConfig cfg{w, digest, tracer};
    if (w == Workload::JournalCold) {
      const fs::path dir = args.work / ("cold-" + std::to_string(rep_no++));
      fs::remove_all(dir);
      cfg.cache_dir = dir / "cache";
      cfg.journal = dir / "campaign.journal";
      fs::create_directories(dir);
    } else if (w == Workload::CacheWarm) {
      cfg.cache_dir = args.work / "warm-cache";
    }
    return cfg;
  };
  // Deleting a cold cache leaves the filesystem journal and discard work
  // to do; flush it before the next repetition so no repetition pays for
  // its predecessor's cleanup.
  const auto cleanup = [&](const RepConfig& cfg) {
    if (w != Workload::JournalCold) return;
    fs::remove_all(cfg.cache_dir.parent_path());
    sync_filesystem(args.work);
  };

  // cache-warm fills its cache before anything is timed.
  if (w == Workload::CacheWarm) {
    fs::remove_all(args.work / "warm-cache");
    RepConfig cfg = config_for(nullptr, false);
    cfg.workload = Workload::Serial;
    const RepResult fill = run_campaign_once(bc, cfg);
    account(fill, "cache fill", ref.outcomes);
    sync_filesystem(args.work);
  }

  // Correctness pass on the workload's own path (the reference already is
  // the serial path's).
  std::string digest = ref_digest;
  if (w != Workload::Serial) {
    const RepConfig cfg = config_for(nullptr, true);
    const RepResult pass = run_campaign_once(bc, cfg);
    cleanup(cfg);
    account(pass, "correctness pass", ref.outcomes);
    digest = campaign_digest(pass.hashes, bc, pass.outcomes);
    if (digest != ref_digest) {
      failed += planned;
      errors.push_back("correctness pass: digest " + digest +
                       " differs from the serial reference " + ref_digest);
    }
  }

  // Timed repetitions. With --trace 1 they alternate plain / decorated.
  Tracer tracer(Clock::now());
  std::vector<RepResult> plain;
  std::vector<RepResult> decorated;
  int requeued = 0;
  int lost = 0;
  // Single-process workloads rotate over the online CPUs between
  // repetitions, so one run samples every CPU instead of whichever one the
  // scheduler happened to pick (on shared hosts their speeds drift apart).
  const bool rotate = busy_processes_of(w) == 1 && cpus.size() > 1;
  // The CPU kernel runs where the repetition's busy processes run; the
  // filesystem kernel only brackets the path that stores durably.
  const auto calibrate = [&] {
    return busy_processes_of(w) == 1 || cpus.empty() ? calibrate_s()
                                                     : calibrate_all_s(cpus);
  };
  const bool fs_cal = w == Workload::JournalCold;
  const Clock::time_point loop_start = Clock::now();
  const double budget = args.trace ? 0.7 * args.seconds : args.seconds;
  for (int i = 0;; ++i) {
    const bool traced = args.trace && (i % 2 == 1);
    if (!traced) {
      const bool enough = plain.size() >= 3 && (!args.trace || decorated.size() >= 3);
      if (enough && seconds_between(loop_start, Clock::now()) >= budget) break;
    }
    if (traced) tracer.clear();
    const RepConfig cfg = config_for(traced ? &tracer : nullptr, false);
    // A traced run pins each plain/decorated pair to the same CPU.
    const int slot = args.trace ? i / 2 : i;
    if (rotate) pin_to_cpu(cpus[static_cast<std::size_t>(slot) % cpus.size()]);
    const double cal_before = calibrate();
    const double fs_before = fs_cal ? calibrate_fs_s(args.work) : 0.0;
    reset_peak_rss();
    RepResult r = run_campaign_once(bc, cfg);
    r.rss_kb = peak_rss_kb();
    r.cal_s = 0.5 * (cal_before + calibrate());
    if (fs_cal) r.cal_fs_s = 0.5 * (fs_before + calibrate_fs_s(args.work));
    cleanup(cfg);
    account(r, traced ? "decorated repetition" : "repetition", ref.outcomes);
    requeued += r.requeued_indices;
    lost += r.workers_lost;
    (traced ? decorated : plain).push_back(std::move(r));
  }

  JsonObject trace_json;
  if (args.trace) {
    std::vector<Span> campaign_spans = tracer.spans();
    tracer.clear();
    Replayer replayer(w, bc, reference, tracer, args.work);
    const ReplayCounters c = replayer.run();
    attempted += planned;
    if (c.experiments != planned || c.mismatched > 0) {
      failed += planned;
      for (const auto& e : replayer.errors()) errors.push_back(e);
      if (c.experiments != planned)
        errors.push_back("replay: " + std::to_string(c.experiments) +
                         " experiments");
    }
    if (!args.spans.empty()) {
      std::FILE* f = std::fopen(args.spans.c_str(), "w");
      if (f == nullptr) throw std::runtime_error("cannot write " + args.spans.string());
      std::fprintf(f, "# id parent name study index start_ns end_ns\n");
      const auto dump = [&](const std::vector<Span>& spans, const char* tag) {
        std::fprintf(f, "## %s\n", tag);
        for (std::size_t i = 0; i < spans.size(); ++i)
          std::fprintf(f, "%zu %d %s %d %d %lld %lld\n", i, spans[i].parent,
                       spans[i].name, spans[i].study, spans[i].index,
                       static_cast<long long>(spans[i].start_ns),
                       static_cast<long long>(spans[i].end_ns));
      };
      dump(tracer.spans(), "replay");
      dump(campaign_spans, "campaign");
      std::fclose(f);
    }
    const auto rep_json = [](const RepResult& r) {
      return JsonObject()
          .num("wall_s", r.wall_s)
          .num("cpu_s", r.cpu_s)
          .num("cal_s", r.cal_s)
          .num("cal_fs_s", r.cal_fs_s)
          .num("sink_s", r.sink_s)
          .num("delivered", r.delivered)
          .str();
    };
    FleetAgg fleet;
    for (const RepResult& r : decorated) {
      fleet.merged = runtime::merge_snapshots(fleet.merged, r.fleet.merged);
      fleet.busy_us_est += r.fleet.busy_us_est;
      fleet.worker_wall_s += r.fleet.worker_wall_s;
      fleet.final_lease_sizes.insert(fleet.final_lease_sizes.end(),
                                     r.fleet.final_lease_sizes.begin(),
                                     r.fleet.final_lease_sizes.end());
    }
    trace_json
        .raw("untraced", json_array(plain, rep_json))
        .raw("decorated", json_array(decorated, rep_json))
        .raw("fleet", fleet_json(fleet))
        .num("requeued_indices", requeued)
        .num("workers_lost", lost)
        .raw("replay",
             JsonObject()
                 .num("experiments", c.experiments)
                 .num("compiles", c.compiles)
                 .num("sim_events", static_cast<double>(c.sim_events))
                 .num("records", static_cast<double>(c.records))
                 .num("sync_samples", static_cast<double>(c.sync_samples))
                 .num("result_bytes", static_cast<double>(c.result_bytes))
                 .num("header_hits", static_cast<double>(c.header_hits))
                 .num("header_misses", static_cast<double>(c.header_misses))
                 .num("journal_records", static_cast<double>(c.journal_records))
                 .num("accepted", c.accepted)
                 .num("cache_hits", static_cast<double>(c.cache.hits))
                 .num("cache_misses", static_cast<double>(c.cache.misses))
                 .boolean("identical", c.mismatched == 0)
                 .str());
  }

  // Paper-facing numbers of the reference run.
  const auto mean_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : measure::summarize(v).mean;
  };
  std::vector<measure::StudySample> coverage;
  for (int i = 0; i < 3; ++i)
    coverage.push_back({bc.studies[static_cast<std::size_t>(i)].name,
                        ref.outcomes[static_cast<std::size_t>(i)].values});
  const auto ratio = [&](int s) {
    const StudyOutcome& o = ref.outcomes[static_cast<std::size_t>(s)];
    return o.total > 0 ? static_cast<double>(o.accepted) / o.total : 0.0;
  };
  int accepted_total = 0;
  for (const auto& o : ref.outcomes) accepted_total += o.accepted;
  const JsonObject paper =
      JsonObject()
          .num("coverage_black", mean_of(ref.outcomes[0].values))
          .num("coverage_green", mean_of(ref.outcomes[1].values))
          .num("coverage_yellow", mean_of(ref.outcomes[2].values))
          .num("coverage_stratified_321",
               measure::stratified_weighted_measure(coverage, {3.0, 2.0, 1.0})
                   .moments.mean)
          .num("p_green_error_given_leader_crash", mean_of(ref.outcomes[3].values))
          .num("p_green_error_baseline", mean_of(ref.outcomes[4].values))
          .num("kvstore_accept_ratio", ratio(5))
          .num("token_ring_accept_ratio", ratio(6))
          .num("accepted", accepted_total);

  const auto rep_basic = [](const RepResult& r) {
    return JsonObject()
        .num("wall_s", r.wall_s)
        .num("setup_s", r.setup_s)
        .num("cpu_s", r.cpu_s)
        .num("cal_s", r.cal_s)
        .num("cal_fs_s", r.cal_fs_s)
        .num("rss_kb", static_cast<double>(r.rss_kb))
        .num("delivered", r.delivered)
        .str();
  };
  const JsonObject facts =
      JsonObject()
          .num("nproc", nproc)
#ifdef __clang__
          .str("compiler", std::string("clang ") + __clang_version__)
#else
          .str("compiler", std::string("g++ ") + __VERSION__)
#endif
          .str("build_type", LOKI_BENCH_BUILD_TYPE)
          .str("runner", runner_spec_of(w))
          .num("busy_processes", busy_processes_of(w))
          .num("experiments_per_campaign", planned)
          .boolean("cache", w == Workload::JournalCold || w == Workload::CacheWarm)
          .boolean("journal", w == Workload::JournalCold);
  JsonObject out;
  out.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .raw("facts", facts.str())
      .num("planned", planned)
      .num("attempted", attempted)
      .num("failed", failed)
      .str("reference_digest", ref_digest)
      .str("digest", digest)
      .raw("paper", paper.str())
      .raw("reps", json_array(plain, rep_basic))
      .raw("errors", json_array(errors, json_string));
  if (args.trace) out.raw("trace", trace_json.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
