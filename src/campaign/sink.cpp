#include "campaign/sink.hpp"

#include <cstddef>

#include <unistd.h>

#include "util/error.hpp"

namespace loki::campaign {

ResultSink::~ResultSink() = default;
void ResultSink::on_campaign_begin(int) {}
void ResultSink::on_study_begin(const StudyInfo&) {}
void ResultSink::on_experiment(const StudyInfo&, int,
                               const runtime::ExperimentResult&) {}
void ResultSink::on_study_done(const StudyInfo&) {}
void ResultSink::on_campaign_done() {}

// --- AnalysisSink ------------------------------------------------------------

AnalysisSink::AnalysisSink(analysis::AnalysisOptions options)
    : options_(std::move(options)) {}

AnalysisSink& AnalysisSink::on_analysis(Callback callback) {
  LOKI_REQUIRE(callback != nullptr, "null analysis callback");
  callbacks_.push_back(std::move(callback));
  return *this;
}

const AnalysisSink::StudyAnalyses* AnalysisSink::find(
    const std::string& study) const {
  for (const StudyAnalyses& s : studies_)
    if (s.study == study) return &s;
  return nullptr;
}

void AnalysisSink::on_study_begin(const StudyInfo& study) {
  studies_.push_back(StudyAnalyses{study.name, 0, 0});
}

void AnalysisSink::on_experiment(const StudyInfo& study, int index,
                                 const runtime::ExperimentResult& result) {
  LOKI_REQUIRE(!studies_.empty(), "experiment before study begin");
  const analysis::ExperimentAnalysis a =
      analysis::analyze_experiment(result, options_);
  StudyAnalyses& record = studies_.back();
  ++record.total;
  if (a.accepted) ++record.accepted;
  for (const Callback& cb : callbacks_) cb(study, index, a);
}

// --- MeasureSink -------------------------------------------------------------

MeasureSink::MeasureSink(analysis::AnalysisOptions options)
    : AnalysisSink(std::move(options)) {
  on_analysis([this](const StudyInfo& study, int,
                     const analysis::ExperimentAnalysis& a) {
    const measure::StudyMeasure* m = nullptr;
    const auto it = measures_.find(study.name);
    if (it != measures_.end()) {
      m = &it->second;
    } else if (fallback_.has_value()) {
      m = &*fallback_;
    }
    if (m == nullptr) return;
    auto [slot, inserted] = values_.try_emplace(study.name);
    if (inserted) order_.push_back(study.name);
    if (!a.accepted) return;  // analysis discarded the experiment (§2.5)
    const std::optional<double> value = m->apply(a);
    if (value.has_value()) slot->second.push_back(*value);
  });
}

MeasureSink& MeasureSink::measure(const std::string& study,
                                  measure::StudyMeasure m) {
  measures_[study] = std::move(m);
  return *this;
}

MeasureSink& MeasureSink::measure_all(measure::StudyMeasure m) {
  fallback_ = std::move(m);
  return *this;
}

const std::vector<double>* MeasureSink::values(const std::string& study) const {
  const auto it = values_.find(study);
  return it == values_.end() ? nullptr : &it->second;
}

std::vector<measure::StudySample> MeasureSink::samples() const {
  std::vector<measure::StudySample> out;
  out.reserve(order_.size());
  for (const std::string& study : order_)
    out.push_back(measure::StudySample{study, values_.at(study)});
  return out;
}

// --- ProgressSink ------------------------------------------------------------

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ProgressSink::ProgressSink(std::FILE* out, int every)
    : out_(out), every_(every) {}

void ProgressSink::on_campaign_begin(int studies) {
  total_studies_ = studies;
  campaign_start_ = std::chrono::steady_clock::now();
}

void ProgressSink::on_study_begin(const StudyInfo& study) {
  completed_ = 0;
  timed_out_ = 0;
  study_start_ = std::chrono::steady_clock::now();
  std::fprintf(out_, "[%d/%d] study '%s': %d experiments\n", study.index + 1,
               total_studies_, study.name.c_str(), study.experiments);
  std::fflush(out_);
}

void ProgressSink::on_experiment(const StudyInfo& study, int index,
                                 const runtime::ExperimentResult& result) {
  if (result.completed) ++completed_;
  if (result.timed_out) ++timed_out_;
  if (every_ > 0 && (index + 1) % every_ == 0 && index + 1 < study.experiments) {
    std::fprintf(out_, "  %s: %d/%d\n", study.name.c_str(), index + 1,
                 study.experiments);
    std::fflush(out_);
  }
}

void ProgressSink::on_study_done(const StudyInfo& study) {
  std::fprintf(out_, "  %s: done in %.2f s (%d completed, %d timed out)\n",
               study.name.c_str(), seconds_since(study_start_), completed_,
               timed_out_);
  std::fflush(out_);
}

void ProgressSink::on_campaign_done() {
  std::fprintf(out_, "campaign done in %.2f s\n",
               seconds_since(campaign_start_));
  std::fflush(out_);
}

// --- StatusSink --------------------------------------------------------------

namespace {

/// Human-scale latency: µs below 1 ms, ms below 1 s, seconds above.
std::string format_us(double us) {
  char buf[32];
  if (us >= 1e6)
    std::snprintf(buf, sizeof buf, "%.1fs", us / 1e6);
  else if (us >= 1e3)
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.0fus", us);
  return buf;
}

}  // namespace

StatusSink::StatusSink(std::shared_ptr<Runner> runner, std::FILE* out,
                       std::chrono::milliseconds refresh)
    : runner_(std::move(runner)), out_(out), refresh_(refresh) {
  LOKI_REQUIRE(runner_ != nullptr, "StatusSink: null runner");
  LOKI_REQUIRE(out_ != nullptr, "StatusSink: null output stream");
  tty_ = ::isatty(::fileno(out_)) == 1;
}

void StatusSink::on_experiment(const StudyInfo&, int,
                               const runtime::ExperimentResult&) {
  if (rendered_ && std::chrono::steady_clock::now() - last_render_ < refresh_)
    return;
  render(false);
}

void StatusSink::on_campaign_done() { render(true); }

void StatusSink::render(bool final_view) {
  const auto now = std::chrono::steady_clock::now();
  const RunnerTelemetry fleet = runner_->telemetry();
  if (tty_ && lines_up_ > 0) std::fprintf(out_, "\x1b[%dA", lines_up_);
  int lines = 0;
  const auto line = [&](const char* fmt, auto... args) {
    if (tty_) std::fputs("\x1b[2K", out_);  // clear the stale frame's tail
    std::fprintf(out_, fmt, args...);
    std::fputc('\n', out_);
    ++lines;
  };

  if (fleet.workers.empty()) {
    line("status: runner '%s' reports no per-worker telemetry",
         runner_->name().c_str());
  } else {
    for (std::size_t w = 0; w < fleet.workers.size(); ++w) {
      const WorkerTelemetry& wt = fleet.workers[w];
      // Throughput over the snapshot ring's window: completed delta over
      // arrival-time delta, all coordinator-side clocks.
      double rate = 0.0;
      if (wt.recent.size() >= 2) {
        const WorkerSnapshotSample& first = wt.recent.front();
        const WorkerSnapshotSample& last = wt.recent.back();
        const double window =
            std::chrono::duration<double>(last.arrived - first.arrived).count();
        if (window > 0.0)
          rate = static_cast<double>(last.stats.experiments_completed -
                                     first.stats.experiments_completed) /
                 window;
      }
      const runtime::LatencyHistogram& h = wt.latest.histogram;
      const char* state = wt.lost ? "lost" : (wt.busy ? "busy" : "idle");
      line("  w%zu %-16s %4s  %6llu done %7.1f/s  p50 %s p95 %s p99 %s  "
           "lease %d  requeues %d  seen %.1fs ago",
           w, wt.describe.empty() ? "(unconnected)" : wt.describe.c_str(),
           state,
           static_cast<unsigned long long>(wt.latest.experiments_completed),
           rate, format_us(h.quantile_us(0.50)).c_str(),
           format_us(h.quantile_us(0.95)).c_str(),
           format_us(h.quantile_us(0.99)).c_str(), wt.lease_size, wt.requeues,
           std::chrono::duration<double>(now - wt.last_seen).count());
    }
  }
  const runtime::WorkerStatsSnapshot merged = fleet.fleet_snapshot();
  line("fleet%s: %llu done  p50 %s p95 %s p99 %s  requeues %d (%d indices)  "
       "lost %d  lease %d",
       final_view ? " (final)" : "",
       static_cast<unsigned long long>(merged.experiments_completed),
       format_us(merged.histogram.quantile_us(0.50)).c_str(),
       format_us(merged.histogram.quantile_us(0.95)).c_str(),
       format_us(merged.histogram.quantile_us(0.99)).c_str(), fleet.requeues,
       fleet.requeued_indices, fleet.workers_lost, fleet.final_lease_size);
  std::fflush(out_);
  lines_up_ = lines;
  last_render_ = now;
  rendered_ = true;
}

// --- CallbackSink ------------------------------------------------------------

CallbackSink& CallbackSink::experiment(ExperimentFn fn) {
  experiment_ = std::move(fn);
  return *this;
}

CallbackSink& CallbackSink::study_begin(StudyFn fn) {
  study_begin_ = std::move(fn);
  return *this;
}

CallbackSink& CallbackSink::study_done(StudyFn fn) {
  study_done_ = std::move(fn);
  return *this;
}

CallbackSink& CallbackSink::campaign_begin(CampaignBeginFn fn) {
  campaign_begin_ = std::move(fn);
  return *this;
}

CallbackSink& CallbackSink::campaign_done(CampaignDoneFn fn) {
  campaign_done_ = std::move(fn);
  return *this;
}

void CallbackSink::on_campaign_begin(int studies) {
  if (campaign_begin_) campaign_begin_(studies);
}

void CallbackSink::on_study_begin(const StudyInfo& study) {
  if (study_begin_) study_begin_(study);
}

void CallbackSink::on_experiment(const StudyInfo& study, int index,
                                 const runtime::ExperimentResult& result) {
  if (experiment_) experiment_(study, index, result);
}

void CallbackSink::on_study_done(const StudyInfo& study) {
  if (study_done_) study_done_(study);
}

void CallbackSink::on_campaign_done() {
  if (campaign_done_) campaign_done_();
}

}  // namespace loki::campaign
