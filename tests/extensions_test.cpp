// Tests for the §6 / §3.6.4 future-work extensions: probe templates for
// common fault types, and host crash & reboot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "runtime/experiment.hpp"
#include "runtime/probe_templates.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

/// Election app variant whose probe delegates to a template registry.
class TemplatedElectionApp final : public runtime::Application {
 public:
  TemplatedElectionApp(apps::ElectionParams params,
                       std::shared_ptr<runtime::ProbeTemplateRegistry> registry)
      : inner_(params), registry_(std::move(registry)) {}

  void on_start(runtime::NodeContext& ctx) override { inner_.on_start(ctx); }
  void on_message(runtime::NodeContext& ctx, const std::any& m) override {
    inner_.on_message(ctx, m);
  }
  void on_inject_fault(runtime::NodeContext& ctx, const std::string& f) override {
    registry_->inject(ctx, f);
  }

 private:
  apps::ElectionApp inner_;
  std::shared_ptr<runtime::ProbeTemplateRegistry> registry_;
};

ExperimentParams templated_params(std::uint64_t seed,
                                  runtime::ProbeTemplate tmpl) {
  apps::ElectionParams app;
  app.run_for = milliseconds(600);
  auto params = apps::election_experiment(seed, kHosts, kPlacement, app);
  auto registry = std::make_shared<runtime::ProbeTemplateRegistry>();
  registry->set_default(std::move(tmpl));
  for (auto& node : params.nodes) {
    node.app_factory = [app, registry] {
      return std::make_unique<TemplatedElectionApp>(app, registry);
    };
  }
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("f (black:LEAD) always\n", "ext");
  return params;
}

bool black_crashed(const ExperimentResult& r) {
  return r.truth.crashed("black");
}

bool saw_message(const ExperimentResult& r, const std::string& needle) {
  const auto* messages = r.find_user_messages("black");
  if (messages == nullptr) return false;
  for (const auto& m : *messages)
    if (m.find(needle) != std::string::npos) return true;
  return false;
}

TEST(ProbeTemplates, CrashFaultCrashesAfterDormancy) {
  int crashed = 0, injected = 0;
  for (int seed = 0; seed < 8; ++seed) {
    const auto r = runtime::run_experiment(templated_params(
        100 + static_cast<std::uint64_t>(seed), runtime::crash_fault()));
    if (!r.truth.injections.empty()) ++injected;
    if (black_crashed(r)) ++crashed;
  }
  EXPECT_GT(injected, 0);
  EXPECT_EQ(crashed, injected);  // activation_prob = 1
}

TEST(ProbeTemplates, MemoryFaultSometimesDormant) {
  runtime::MemoryFaultParams mf;
  mf.manifest_prob = 0.5;
  int injected = 0, crashed = 0;
  for (int seed = 0; seed < 30; ++seed) {
    const auto r = runtime::run_experiment(templated_params(
        300 + static_cast<std::uint64_t>(seed), runtime::memory_fault(mf)));
    if (!r.truth.injections.empty()) ++injected;
    if (black_crashed(r)) ++crashed;
  }
  EXPECT_GT(injected, 4);
  EXPECT_GT(crashed, 0);
  EXPECT_LT(crashed, injected);  // some corruptions were never read
}

TEST(ProbeTemplates, MemoryFaultCrashIsDaemonRecorded) {
  // Memory faults die by unhandled signal: the daemon (not the node) must
  // have written the CRASH record.
  runtime::MemoryFaultParams mf;
  mf.manifest_prob = 1.0;
  for (int seed = 0; seed < 10; ++seed) {
    const auto r = runtime::run_experiment(templated_params(
        500 + static_cast<std::uint64_t>(seed), runtime::memory_fault(mf)));
    if (!black_crashed(r)) continue;
    const auto& tl = r.timeline_of("black");
    bool has_crash_record = false;
    for (const auto& rec : tl.records) {
      if (rec.type == runtime::RecordType::StateChange &&
          tl.state_name(rec.state_index) == "CRASH")
        has_crash_record = true;
    }
    EXPECT_TRUE(has_crash_record);
    return;  // one crashing experiment suffices
  }
  GTEST_SKIP() << "no crash observed in the seed range";
}

TEST(ProbeTemplates, CpuFaultCanRecover) {
  runtime::CpuFaultParams cf;
  cf.fatal_prob = 0.0;  // always recovers
  cf.burn = milliseconds(30);
  int injected = 0;
  for (int seed = 0; seed < 15; ++seed) {
    const auto r = runtime::run_experiment(templated_params(
        700 + static_cast<std::uint64_t>(seed), runtime::cpu_fault(cf)));
    if (r.truth.injections.empty()) continue;
    ++injected;
    EXPECT_FALSE(black_crashed(r));
    EXPECT_TRUE(saw_message(r, "recovered"));
  }
  EXPECT_GT(injected, 0);
}

/// Minimal NodeContext stub for registry dispatch tests.
class StubContext final : public runtime::NodeContext {
 public:
  const std::string& nickname() const override { return name_; }
  const std::string& host_name() const override { return host_; }
  bool restarted() const override { return false; }
  Rng& rng() override { return rng_; }
  LocalTime local_clock() const override { return LocalTime{0}; }
  void notify_event(const std::string&) override {}
  void record_message(std::string m) override { messages.push_back(std::move(m)); }
  void app_send(const std::string&, std::any, Duration) override {}
  void app_timer(Duration, std::function<void(runtime::NodeContext&)>,
                 Duration) override {}
  void do_work(Duration, std::function<void(runtime::NodeContext&)>) override {}
  void exit_app() override {}
  void crash_app(runtime::CrashMode) override {}
  std::vector<std::string> peer_nicknames() const override { return {}; }

  std::vector<std::string> messages;

 private:
  std::string name_ = "stub";
  std::string host_ = "stub-host";
  Rng rng_{1};
};

TEST(ProbeTemplates, RegistryDispatchAndFallback) {
  runtime::ProbeTemplateRegistry registry;
  int specific = 0, fallback = 0;
  registry.set("known", [&](runtime::NodeContext&, const std::string&) {
    ++specific;
  });
  registry.set_default([&](runtime::NodeContext&, const std::string&) {
    ++fallback;
  });
  EXPECT_TRUE(registry.has("known"));
  EXPECT_FALSE(registry.has("other"));
  StubContext ctx;
  registry.inject(ctx, "known");
  registry.inject(ctx, "other");
  EXPECT_EQ(specific, 1);
  EXPECT_EQ(fallback, 1);
}

TEST(ProbeTemplates, NoTemplateRecordsWarning) {
  runtime::ProbeTemplateRegistry registry;
  StubContext ctx;
  registry.inject(ctx, "mystery");
  ASSERT_EQ(ctx.messages.size(), 1u);
  EXPECT_NE(ctx.messages[0].find("no probe template"), std::string::npos);
}

// --- host crash & reboot (§3.6.4) ---------------------------------------------

TEST(HostCrash, ExperimentSurvivesHostCrashAndReboot) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  auto params = apps::election_experiment(900, kHosts, kPlacement, app);
  params.host_crashes.push_back(
      runtime::HostCrashPlan{"hostC", milliseconds(200), milliseconds(150)});

  const auto r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed) << "survivors should finish despite the host crash";
  EXPECT_FALSE(r.timed_out);
  // green lived on hostC: its records stop at/before the crash.
  const auto& tl = r.timeline_of("green");
  EXPECT_FALSE(tl.records.empty());
  // black and yellow ran to completion and kept recording afterwards.
  for (const auto* nick : {"black", "yellow"}) {
    const auto& other = r.timeline_of(nick);
    EXPECT_GE(other.records.size(), 3u) << nick;
  }
}

TEST(HostCrash, SurvivorsReElectAfterLeaderHostDies) {
  // Force black (hostA) to lead... we cannot force it, so crash whichever
  // host and check the system still elects exactly one live leader stream.
  apps::ElectionParams app;
  app.run_for = milliseconds(900);
  auto params = apps::election_experiment(901, kHosts, kPlacement, app);
  params.host_crashes.push_back(
      runtime::HostCrashPlan{"hostA", milliseconds(250), milliseconds(200)});
  const auto r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed);
  // If black led and died with its host, a survivor must have re-elected.
  const bool black_led = [&] {
    const auto* seq = r.truth.find_state_seq("black");
    if (seq == nullptr) return false;
    for (const auto& [t, s] : *seq)
      if (s == "LEAD") return true;
    return false;
  }();
  if (black_led) {
    int survivor_leads = 0;
    for (const auto* nick : {"yellow", "green"}) {
      const auto* seq = r.truth.find_state_seq(nick);
      if (seq == nullptr) continue;
      for (const auto& [t, s] : *seq)
        if (s == "LEAD") ++survivor_leads;
    }
    EXPECT_GE(survivor_leads, 1);
  }
}

TEST(HostCrash, TruthRecordsNodesKilledWithTheirHost) {
  // Power failure on hostC kills green's process with the host. The ground
  // truth must record one crash at that instant and CRASH as green's true
  // state from then on, not the LEAD or FOLLOW it held when the host died.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto params = apps::election_experiment(seed, kHosts, kPlacement,
                                            apps::ElectionParams{});
    params.host_crashes.push_back(
        runtime::HostCrashPlan{"hostC", milliseconds(100), milliseconds(60)});
    const auto r = runtime::run_experiment(params);
    const SimTime crash_at = r.start_phys + milliseconds(100);

    const auto* crashes = r.truth.find_crashes("green");
    ASSERT_NE(crashes, nullptr);
    EXPECT_EQ(*crashes, std::vector<SimTime>{crash_at});
    const auto* seq = r.truth.find_state_seq("green");
    ASSERT_NE(seq, nullptr);
    ASSERT_FALSE(seq->empty());
    EXPECT_EQ(seq->back(),
              (std::pair<SimTime, std::string>{crash_at, "CRASH"}));
    EXPECT_EQ(std::count_if(seq->begin(), seq->end(),
                            [](const auto& e) { return e.second == "CRASH"; }),
              1);
    EXPECT_TRUE(r.truth.in_state("green", "CRASH", r.end_phys));
    EXPECT_FALSE(r.truth.crashed("black"));
    EXPECT_FALSE(r.truth.crashed("yellow"));
  }
}

TEST(HostCrash, AnalysisStillRunsOnTruncatedTimelines) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  auto params = apps::election_experiment(903, kHosts, kPlacement, app);
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("f (black:LEAD) always\n", "ext");
  params.host_crashes.push_back(
      runtime::HostCrashPlan{"hostB", milliseconds(300), milliseconds(150)});
  const auto r = runtime::run_experiment(params);
  EXPECT_TRUE(r.completed);
  // Sync phases bracket the experiment regardless of the mid-run crash, so
  // the analysis phase can still project every surviving record.
  EXPECT_NO_THROW({
    const auto a = analysis::analyze_experiment(r);
    (void)a;
  });
}

}  // namespace
}  // namespace loki
