// Streaming result observers for the campaign facade.
//
// A ResultSink receives each ExperimentResult as it completes (in study
// order, experiment-index order — the Runner contract) so downstream
// phases run incrementally instead of accumulating every result in memory:
//
//   AnalysisSink  — streams results through the analysis phase (§2.5).
//   MeasureSink   — AnalysisSink that also applies a StudyMeasure (§4.3.4),
//                   keeping only the final observation values.
//   ProgressSink  — human-readable progress lines.
//   StatusSink    — live per-worker fleet view over Runner::telemetry().
//   CallbackSink  — ad-hoc lambdas, for tests and custom pipelines.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "campaign/runner.hpp"
#include "measure/campaign_measure.hpp"
#include "measure/study_measure.hpp"
#include "runtime/experiment.hpp"

namespace loki::campaign {

struct StudyInfo {
  std::string name;
  int index{0};        // position within the campaign
  int experiments{0};  // planned experiment count
};

class ResultSink {
 public:
  virtual ~ResultSink();

  virtual void on_campaign_begin(int studies);
  virtual void on_study_begin(const StudyInfo& study);
  virtual void on_experiment(const StudyInfo& study, int index,
                             const runtime::ExperimentResult& result);
  virtual void on_study_done(const StudyInfo& study);
  virtual void on_campaign_done();
};

/// Runs analyze_experiment on each result as it arrives and tracks per-study
/// accept counts. Analyses are retained by default (keep_analyses(false)
/// streams them to callbacks only).
class AnalysisSink : public ResultSink {
 public:
  using Callback = std::function<void(const StudyInfo& study, int index,
                                      const analysis::ExperimentAnalysis&)>;

  explicit AnalysisSink(analysis::AnalysisOptions options = {});

  AnalysisSink& keep_analyses(bool keep);
  AnalysisSink& on_analysis(Callback callback);

  struct StudyAnalyses {
    std::string study;
    int total{0};
    int accepted{0};
    std::vector<analysis::ExperimentAnalysis> analyses;  // empty when !keep
  };

  const std::vector<StudyAnalyses>& studies() const { return studies_; }
  const StudyAnalyses* find(const std::string& study) const;

  void on_study_begin(const StudyInfo& study) override;
  void on_experiment(const StudyInfo& study, int index,
                     const runtime::ExperimentResult& result) override;

 private:
  analysis::AnalysisOptions options_;
  bool keep_{true};
  std::vector<Callback> callbacks_;
  std::vector<StudyAnalyses> studies_;
};

/// Streams the measure phase: analyzes each result once, applies the
/// study's StudyMeasure to accepted experiments, and accumulates only the
/// final observation function values (§4.3.4). Neither results nor analyses
/// are retained.
class MeasureSink final : public AnalysisSink {
 public:
  explicit MeasureSink(analysis::AnalysisOptions options = {});

  /// Measure for one specific study.
  MeasureSink& measure(const std::string& study, measure::StudyMeasure m);
  /// Fallback measure for studies without a specific one.
  MeasureSink& measure_all(measure::StudyMeasure m);

  /// Final observation values of one study (nullptr before it ran or when
  /// no measure covers it).
  const std::vector<double>* values(const std::string& study) const;
  /// One StudySample per measured study, in campaign order — the input the
  /// campaign-level estimators (§4.4) take.
  std::vector<measure::StudySample> samples() const;

 private:
  std::map<std::string, measure::StudyMeasure> measures_;
  std::optional<measure::StudyMeasure> fallback_;
  std::vector<std::string> order_;
  std::map<std::string, std::vector<double>> values_;
};

/// Prints progress lines to `out`. `every` > 0 additionally reports every
/// `every` finished experiments within a study.
class ProgressSink final : public ResultSink {
 public:
  explicit ProgressSink(std::FILE* out = stdout, int every = 0);

  void on_campaign_begin(int studies) override;
  void on_study_begin(const StudyInfo& study) override;
  void on_experiment(const StudyInfo& study, int index,
                     const runtime::ExperimentResult& result) override;
  void on_study_done(const StudyInfo& study) override;
  void on_campaign_done() override;

 private:
  std::FILE* out_;
  int every_;
  int total_studies_{0};
  int completed_{0};
  int timed_out_{0};
  std::chrono::steady_clock::time_point campaign_start_{};
  std::chrono::steady_clock::time_point study_start_{};
};

/// Live fleet view over a fallible runner's FleetTelemetry: one line per
/// worker — throughput over the snapshot ring, p50/p95/p99 from the latency
/// histogram, lease span, last-seen age — plus a fleet summary line with
/// the merged histogram and the fault-recovery counters.
///
/// Refreshes are rate-limited (default 250 ms) and driven by experiment
/// arrivals; on_campaign_done always renders one final view, so a CI log
/// can grep the end state without racing the limiter. When `out` is a tty
/// the view redraws in place (ANSI cursor-up); otherwise each refresh
/// appends a plain block. Runners without fleet telemetry (serial, threads)
/// render a single note instead.
class StatusSink final : public ResultSink {
 public:
  explicit StatusSink(
      std::shared_ptr<Runner> runner, std::FILE* out = stderr,
      std::chrono::milliseconds refresh = std::chrono::milliseconds(250));

  void on_experiment(const StudyInfo& study, int index,
                     const runtime::ExperimentResult& result) override;
  void on_campaign_done() override;

 private:
  void render(bool final_view);

  std::shared_ptr<Runner> runner_;
  std::FILE* out_;
  std::chrono::milliseconds refresh_;
  std::chrono::steady_clock::time_point last_render_{};
  bool rendered_{false};   // limiter state: first render fires immediately
  int lines_up_{0};        // lines to rewind on a tty redraw
  bool tty_{false};
};

/// Adapts plain lambdas to the sink interface.
class CallbackSink final : public ResultSink {
 public:
  using ExperimentFn = std::function<void(const StudyInfo&, int,
                                          const runtime::ExperimentResult&)>;
  using StudyFn = std::function<void(const StudyInfo&)>;
  using CampaignBeginFn = std::function<void(int)>;
  using CampaignDoneFn = std::function<void()>;

  CallbackSink& experiment(ExperimentFn fn);
  CallbackSink& study_begin(StudyFn fn);
  CallbackSink& study_done(StudyFn fn);
  CallbackSink& campaign_begin(CampaignBeginFn fn);
  CallbackSink& campaign_done(CampaignDoneFn fn);

  void on_campaign_begin(int studies) override;
  void on_study_begin(const StudyInfo& study) override;
  void on_experiment(const StudyInfo& study, int index,
                     const runtime::ExperimentResult& result) override;
  void on_study_done(const StudyInfo& study) override;
  void on_campaign_done() override;

 private:
  ExperimentFn experiment_;
  StudyFn study_begin_;
  StudyFn study_done_;
  CampaignBeginFn campaign_begin_;
  CampaignDoneFn campaign_done_;
};

}  // namespace loki::campaign
