// Durable campaigns: a crashed journaled campaign resumes with a sink
// sequence byte-identical to an uninterrupted run and zero re-execution of
// journaled indices, and a resume after a torn tail leaves a journal whose
// own records stay readable; the journal file format survives every tail
// truncation and every bit flip (load() on real files, no codec access);
// the hardened ResultCache quarantines corrupt entries and throws typed
// CacheError on store failure. The CLI suite SIGKILLs `lokimeasure
// --campaign` at several journal offsets and `cmp`s the resumed stdout
// against a clean run.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki {
namespace {

namespace fs = std::filesystem;

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

ExperimentParams election_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

runtime::StudyParams fault_study(const std::string& name, int experiments,
                                 std::uint64_t base_seed = 3000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    auto p = election_params(base_seed + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    p.nodes[0].restart.enabled = true;
    p.nodes[0].restart.delay = milliseconds(60);
    return p;
  };
  return study;
}

/// One observed sink event, rendered comparable.
struct Event {
  std::string kind;
  std::string study;
  int index{-1};
  std::vector<std::uint8_t> result_bytes;

  bool operator==(const Event&) const = default;
};

std::string temp_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "loki-" + tag + "-" +
                           std::to_string(::getpid());
  // A previous ctest invocation may have left state here; these tests
  // assert cold-start stats and fresh journals, so start clean.
  fs::remove_all(path);
  return path;
}

/// A runner that must never be asked to run anything — proof that a resume
/// of a completed journal performs zero run_experiment calls: it pulls the
/// whole plan and throws if any study's plan holds an index to execute.
class ForbiddenRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "forbidden"; }
  void run(const std::vector<runtime::StudyParams>& studies,
           const campaign::NextFn& next, const campaign::EmitFn&) override {
    while (const std::optional<campaign::StudyPlan> plan = next())
      if (!plan->runs.empty())
        throw LogicError(
            "ForbiddenRunner asked to run study '" +
            studies[static_cast<std::size_t>(plan->study)].name + "'");
  }
};

/// SerialRunner that counts every experiment it actually executes — the
/// zero-re-execution proof is `executed()` summing to exactly one run per
/// index across a crashed attempt and its resume.
class CountingRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "counting-serial"; }
  void run(const std::vector<runtime::StudyParams>& studies,
           const campaign::NextFn& next,
           const campaign::EmitFn& emit) override {
    campaign::SerialRunner serial;
    serial.run(studies, next,
               [&](int study, int k, ExperimentResult&& result) {
                 ++executed_;
                 emit(study, k, std::move(result));
               });
  }
  int executed() const { return executed_; }

 private:
  int executed_{0};
};

struct Recorded {
  std::vector<Event> events;
  Campaign::Summary summary;
};

std::shared_ptr<campaign::CallbackSink> recording_sink(
    std::vector<Event>& events) {
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([&events](int n) {
    events.push_back({"campaign_begin", std::to_string(n), -1, {}});
  });
  sink->study_begin([&events](const campaign::StudyInfo& info) {
    events.push_back({"study_begin", info.name, -1, {}});
  });
  sink->experiment([&events](const campaign::StudyInfo& info, int index,
                             const ExperimentResult& result) {
    events.push_back({"experiment", info.name, index,
                      runtime::encode_experiment_result(result)});
  });
  sink->study_done([&events](const campaign::StudyInfo& info) {
    events.push_back({"study_done", info.name, -1, {}});
  });
  sink->campaign_done(
      [&events] { events.push_back({"campaign_done", "", -1, {}}); });
  return sink;
}

/// Run `study` journaled (fresh or resumed), recording the sink sequence.
Recorded run_journaled(std::shared_ptr<campaign::Runner> runner,
                       const runtime::StudyParams& study,
                       std::shared_ptr<campaign::ResultCache> cache,
                       const std::string& journal, bool resume,
                       int group = 1) {
  Recorded r;
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::move(runner))
      .sink(recording_sink(r.events))
      .cache(std::move(cache))
      .journal_group(group);
  if (resume)
    builder.resume(journal);
  else
    builder.journal(journal);
  r.summary = builder.build().run();
  return r;
}

/// Run `study` journaled with a sink that throws when it observes
/// `crash_index` — the in-process stand-in for a coordinator crash (the
/// CLI suite below does it with a real SIGKILL). Returns the events
/// observed before the crash.
std::vector<Event> run_until_crash(std::shared_ptr<campaign::Runner> runner,
                                   const runtime::StudyParams& study,
                                   std::shared_ptr<campaign::ResultCache> cache,
                                   const std::string& journal, int crash_index,
                                   int group = 1) {
  std::vector<Event> events;
  auto recorder = recording_sink(events);
  auto crasher = std::make_shared<campaign::CallbackSink>();
  crasher->experiment([crash_index](const campaign::StudyInfo&, int index,
                                    const ExperimentResult&) {
    if (index == crash_index)
      throw std::runtime_error("injected coordinator crash");
  });
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::move(runner))
      .sink(recorder)
      .sink(crasher)
      .cache(std::move(cache))
      .journal(journal)
      .journal_group(group);
  EXPECT_THROW(builder.build().run(), std::runtime_error);
  return events;
}

void expect_identical(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "event " << i;
}

std::vector<Event> reference_events(const runtime::StudyParams& study) {
  Recorded r;
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::make_shared<campaign::SerialRunner>())
      .sink(recording_sink(r.events));
  r.summary = builder.build().run();
  return r.events;
}

// --- crash-resume identity ---------------------------------------------------

TEST(JournalResume, CrashMidStudyResumesByteIdenticallyWithZeroReRuns) {
  const auto study = fault_study("durable", 8);
  const auto reference = reference_events(study);

  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-crash-cache"));
  const std::string journal = temp_path("jr-crash-journal");

  // Crash while emitting index 4. With group-commit 1 every IndexDone is
  // durable before its emit, so the journaled prefix is exactly 0..4.
  auto first = std::make_shared<CountingRunner>();
  run_until_crash(first, study, cache, journal, /*crash_index=*/4);
  EXPECT_EQ(first->executed(), 5);

  const auto state = campaign::CampaignJournal::load(journal);
  ASSERT_TRUE(state.campaign_begun);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys.size(), 5u);
  EXPECT_FALSE(state.progress[0].ended);
  EXPECT_FALSE(state.campaign_done);

  auto second = std::make_shared<CountingRunner>();
  const Recorded resumed =
      run_journaled(second, study, cache, journal, /*resume=*/true);
  expect_identical(resumed.events, reference);
  EXPECT_EQ(resumed.summary.replayed, 5);
  EXPECT_EQ(second->executed(), 3);  // only the tail ran
  // Zero re-execution: every index ran exactly once across both attempts.
  EXPECT_EQ(first->executed() + second->executed(), study.experiments);

  const auto final_state = campaign::CampaignJournal::load(journal);
  EXPECT_TRUE(final_state.campaign_done);
  ASSERT_EQ(final_state.progress.size(), 1u);
  EXPECT_TRUE(final_state.progress[0].ended);
  EXPECT_EQ(final_state.progress[0].done_keys.size(),
            static_cast<std::size_t>(study.experiments));
}

TEST(JournalResume, GroupCommitBufferIsFlushedOnAbort) {
  const auto study = fault_study("grouped", 6);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-group-cache"));
  const std::string journal = temp_path("jr-group-journal");

  // Group of 8 > 6 experiments: no group boundary is ever reached, so the
  // journaled prefix exists only because the abort path flushes it.
  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/3, /*group=*/8);
  const auto state = campaign::CampaignJournal::load(journal);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys.size(), 4u);

  const Recorded resumed = run_journaled(std::make_shared<CountingRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, reference_events(study));
  EXPECT_EQ(resumed.summary.replayed, 4);
}

TEST(JournalResume, CompletedJournalReplaysEverything) {
  const auto study = fault_study("complete", 5);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-done-cache"));
  const std::string journal = temp_path("jr-done-journal");

  const Recorded full = run_journaled(std::make_shared<campaign::SerialRunner>(),
                                      study, cache, journal, false);
  EXPECT_EQ(full.summary.replayed, 0);

  // Resuming a finished campaign replays the whole sink sequence from the
  // journal+cache; the runner must never be consulted.
  const Recorded resumed = run_journaled(std::make_shared<ForbiddenRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, full.events);
  EXPECT_EQ(resumed.summary.replayed, study.experiments);
  EXPECT_EQ(resumed.summary.cache_hits, 0);
}

// A crash in the middle study of three, resumed through the runner that
// crashed: the first study replays whole, the second its journaled prefix,
// and only the rest executes — including through the parallel runners,
// whose workers run ahead of the delivery cursor when the sink throws.
TEST(JournalResume, MultiStudyResumeThroughEveryRunnerIsIdentical) {
  const std::vector<runtime::StudyParams> studies = {
      fault_study("multi-0", 6, 21'000), fault_study("multi-1", 7, 22'000),
      fault_study("multi-2", 5, 23'000)};
  const auto configure = [&](CampaignBuilder& builder,
                             const std::string& spec) -> CampaignBuilder& {
    for (const runtime::StudyParams& study : studies) builder.add(study);
    return builder.runner(campaign::parse_runner_spec(spec));
  };
  std::vector<Event> reference;
  {
    CampaignBuilder builder;
    configure(builder, "serial").sink(recording_sink(reference));
    builder.build().run();
  }

  for (const std::string spec : {"serial", "threads:3", "procs:2"}) {
    SCOPED_TRACE(spec);
    const std::string dir = temp_path("jr-multi-cache-" + spec);
    const std::string journal = temp_path("jr-multi-journal-" + spec);

    auto crasher = std::make_shared<campaign::CallbackSink>();
    crasher->experiment([](const campaign::StudyInfo& info, int index,
                           const ExperimentResult&) {
      if (info.index == 1 && index == 3)
        throw std::runtime_error("injected coordinator crash");
    });
    CampaignBuilder crashing;
    configure(crashing, spec)
        .sink(crasher)
        .cache(std::make_shared<campaign::ResultCache>(dir))
        .journal(journal)
        .journal_group(1);
    EXPECT_THROW(crashing.build().run(), std::runtime_error);

    auto cache = std::make_shared<campaign::ResultCache>(dir);
    Recorded resumed;
    CampaignBuilder resuming;
    configure(resuming, spec)
        .sink(recording_sink(resumed.events))
        .cache(cache)
        .resume(journal)
        .journal_group(1);
    resumed.summary = resuming.build().run();
    expect_identical(resumed.events, reference);
    EXPECT_EQ(resumed.summary.replayed, 10);  // 6 of study 0, 4 of study 1
    EXPECT_EQ(cache->stats().stores, 8u);     // nothing journaled re-ran
    EXPECT_TRUE(campaign::CampaignJournal::load(journal).campaign_done);
  }
}

TEST(JournalResume, ResumeAfterATornTailKeepsItsOwnRecords) {
  const auto study = fault_study("torn", 8);
  const auto reference = reference_events(study);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-torn-cache"));
  const std::string journal = temp_path("jr-torn-journal");

  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/4);

  // Tear the last IndexDone record — the on-disk shape of a SIGKILL landing
  // mid-append.
  fs::resize_file(journal, fs::file_size(journal) - 3);
  const auto torn = campaign::CampaignJournal::load(journal);
  EXPECT_TRUE(torn.truncated_tail);
  ASSERT_EQ(torn.progress.size(), 1u);
  EXPECT_EQ(torn.progress[0].done_keys.size(), 4u);

  // Index 4 fell out of the journal but its cache store was durable first
  // (the ordering contract), so the resume serves it as a plain hit.
  auto counting = std::make_shared<CountingRunner>();
  const Recorded resumed = run_journaled(counting, study, cache, journal, true);
  expect_identical(resumed.events, reference);
  EXPECT_EQ(resumed.summary.replayed, 4);
  EXPECT_EQ(resumed.summary.cache_hits, 1);
  EXPECT_EQ(counting->executed(), 3);

  // The resume cut the tear off before appending, so the records it wrote
  // are readable instead of hidden behind the torn bytes.
  const auto state = campaign::CampaignJournal::load(journal);
  EXPECT_TRUE(state.campaign_done);
  EXPECT_FALSE(state.truncated_tail);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_TRUE(state.progress[0].ended);
  EXPECT_EQ(state.progress[0].done_keys.size(),
            static_cast<std::size_t>(study.experiments));

  // Hence a second resume replays every index and runs none.
  const Recorded again = run_journaled(std::make_shared<ForbiddenRunner>(),
                                       study, cache, journal, true);
  expect_identical(again.events, reference);
  EXPECT_EQ(again.summary.replayed, study.experiments);
}

TEST(JournalResume, JournalKilledAtBirthIsAFreshStart) {
  const auto study = fault_study("newborn", 4);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-birth-cache"));
  const std::string journal = temp_path("jr-birth-journal");
  { std::ofstream out(journal, std::ios::binary); }  // empty file

  const Recorded resumed = run_journaled(std::make_shared<CountingRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, reference_events(study));
  EXPECT_EQ(resumed.summary.replayed, 0);
  EXPECT_TRUE(campaign::CampaignJournal::load(journal).campaign_done);
}

TEST(JournalResume, ForeignJournalIsRejected) {
  const auto study = fault_study("mine", 6);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-foreign-cache"));
  const std::string journal = temp_path("jr-foreign-journal");
  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/2);

  const auto resume_with = [&](const runtime::StudyParams& other) {
    return run_journaled(std::make_shared<campaign::SerialRunner>(), other,
                         cache, journal, true);
  };
  // Same name and count, different seeds: only the digest can tell.
  EXPECT_THROW(resume_with(fault_study("mine", 6, 4000)), ConfigError);
  EXPECT_THROW(resume_with(fault_study("mine", 9)), ConfigError);
  EXPECT_THROW(resume_with(fault_study("theirs", 6)), ConfigError);
  // The matching campaign still resumes after all those rejections.
  expect_identical(resume_with(study).events, reference_events(study));
}

TEST(JournalResume, GarbledJournalIsRejected) {
  const std::string journal = temp_path("jr-garbled-journal");
  { std::ofstream out(journal, std::ios::binary); out << std::string(64, 'x'); }
  EXPECT_THROW(campaign::CampaignJournal::load(journal), ConfigError);

  const auto study = fault_study("garbled", 3);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-garbled-cache"));
  EXPECT_THROW(run_journaled(std::make_shared<campaign::SerialRunner>(), study,
                             cache, journal, true),
               ConfigError);
}

TEST(JournalResume, BuilderRejectsJournalMisconfiguration) {
  const auto study = fault_study("builder", 2);
  {
    // A journal without a cache has nothing to replay from.
    CampaignBuilder builder;
    builder.add(study)
        .runner(std::make_shared<campaign::SerialRunner>())
        .journal(temp_path("jr-nocache-journal"));
    EXPECT_THROW(builder.build(), ConfigError);
  }
  {
    CampaignBuilder builder;
    EXPECT_THROW(builder.journal(""), ConfigError);
    EXPECT_THROW(builder.journal_group(0), ConfigError);
  }
}

// --- the file format, through CampaignJournal and load() ---------------------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(size));
}

/// Write a representative journal at `path` — one of every record type,
/// each durable on its own — and return the file size after the header and
/// after every record: the record boundaries.
std::vector<std::uint64_t> write_sample_journal(const std::string& path) {
  std::vector<std::uint64_t> ends;
  campaign::CampaignJournal journal = campaign::CampaignJournal::create(
      path, campaign::CampaignJournal::Options(1));
  const auto mark = [&] { ends.push_back(fs::file_size(path)); };
  mark();
  journal.campaign_begin("remote(fake:2)", 9000, 1);
  mark();
  journal.study_begin(0, "demo-coverage", std::string(64, 'a'), 2);
  mark();
  journal.index_done(0, 0, std::string(64, 'b'));
  mark();
  journal.index_done(0, 1, std::string(64, 'c'));
  mark();
  journal.study_end(0);
  mark();
  journal.campaign_end();
  mark();
  return ends;
}

/// The last record boundary at or before byte offset `at` (0 inside the
/// header).
std::uint64_t boundary_before(const std::vector<std::uint64_t>& ends,
                              std::uint64_t at) {
  std::uint64_t last = 0;
  for (const std::uint64_t end : ends)
    if (end <= at) last = end;
  return last;
}

TEST(JournalFormat, RoundTripsEveryRecordType) {
  const std::string path = temp_path("jf-roundtrip");
  write_sample_journal(path);
  const auto state = campaign::CampaignJournal::load(path);
  EXPECT_TRUE(state.campaign_begun);
  EXPECT_TRUE(state.campaign_done);
  EXPECT_FALSE(state.truncated_tail);
  EXPECT_EQ(state.intact_bytes, fs::file_size(path));
  EXPECT_EQ(state.runner_spec, "remote(fake:2)");
  EXPECT_EQ(state.seed, 9000u);
  EXPECT_EQ(state.studies, 1u);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].name, "demo-coverage");
  EXPECT_EQ(state.progress[0].digest, std::string(64, 'a'));
  EXPECT_EQ(state.progress[0].experiments, 2u);
  EXPECT_EQ(state.progress[0].done_keys,
            (std::vector<std::string>{std::string(64, 'b'),
                                      std::string(64, 'c')}));
  EXPECT_TRUE(state.progress[0].ended);
}

TEST(JournalFormat, BadHeaderIsRejected) {
  const std::string path = temp_path("jf-header");
  write_sample_journal(path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  // Byte 0 is in the magic, byte 4 in the version word.
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[at] ^= 0xff;
    write_bytes(path, bad, bad.size());
    EXPECT_THROW(campaign::CampaignJournal::load(path), ConfigError) << at;
  }
  // A header cut short is the killed-at-birth shape, not a foreign file.
  write_bytes(path, bytes, 3);
  const auto state = campaign::CampaignJournal::load(path);
  EXPECT_FALSE(state.campaign_begun);
  EXPECT_TRUE(state.truncated_tail);
  EXPECT_EQ(state.intact_bytes, 0u);
}

// A SIGKILL mid-append leaves a torn tail: every cut of the file must load
// as its intact record prefix — never as a different record, never a throw.
TEST(JournalFormat, EveryTruncationKeepsTheIntactPrefix) {
  const std::string path = temp_path("jf-truncate");
  const std::vector<std::uint64_t> ends = write_sample_journal(path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(path, bytes, cut);
    campaign::JournalState state;
    ASSERT_NO_THROW(state = campaign::CampaignJournal::load(path)) << cut;
    const std::uint64_t intact = boundary_before(ends, cut);
    EXPECT_EQ(state.intact_bytes, intact) << "cut at " << cut;
    EXPECT_EQ(state.truncated_tail, cut != intact) << "cut at " << cut;
    EXPECT_FALSE(state.campaign_done) << "cut at " << cut;
  }
}

// Any single bit flip must fail the damaged record's checksum (or, in the
// header, the file's identity) — bit rot cannot silently alter the replay.
TEST(JournalFormat, EveryBitFlipIsCaught) {
  const std::string path = temp_path("jf-flip");
  const std::vector<std::uint64_t> ends = write_sample_journal(path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      write_bytes(path, flipped, flipped.size());
      if (byte < ends.front()) {
        EXPECT_THROW(campaign::CampaignJournal::load(path), ConfigError)
            << "header byte " << byte << " bit " << bit;
        continue;
      }
      campaign::JournalState state;
      ASSERT_NO_THROW(state = campaign::CampaignJournal::load(path))
          << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(state.truncated_tail) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(state.intact_bytes, boundary_before(ends, byte))
          << "byte " << byte << " bit " << bit;
    }
  }
}

// A record whose checksum holds was written as it reads, so a payload that
// does not fit its type is a malformed journal (ConfigError), not a tear.
TEST(JournalFormat, ChecksummedRecordThatDoesNotFitItsTypeIsRejected) {
  const std::string path = temp_path("jf-misfit");
  const std::vector<std::uint64_t> ends = write_sample_journal(path);
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  const auto with_record = [&](std::uint8_t type,
                               const std::vector<std::uint8_t>& payload) {
    // Header, CampaignBegin and StudyBegin, then one hand-framed record:
    // type, u32 length, payload, FNV-1a over all of it.
    std::vector<std::uint8_t> out(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(ends[2]));
    const std::size_t start = out.size();
    out.push_back(type);
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<std::uint8_t>(payload.size() >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = start; i < out.size(); ++i) {
      h ^= out[i];
      h *= 1099511628211ull;
    }
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
    write_bytes(path, out, out.size());
  };
  // IndexDone{study 0, index 0, key "k"}: u32, u32, u64 length + bytes.
  std::vector<std::uint8_t> index_done = {0, 0, 0, 0, 0, 0, 0, 0,
                                          1, 0, 0, 0, 0, 0, 0, 0, 'k'};
  with_record(/*IndexDone=*/3, index_done);  // control: fits its type
  const auto state = campaign::CampaignJournal::load(path);
  EXPECT_FALSE(state.truncated_tail);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys, (std::vector<std::string>{"k"}));

  with_record(/*IndexDone=*/3, {0, 0});  // the study ordinal cut in half
  EXPECT_THROW(campaign::CampaignJournal::load(path), ConfigError);
  index_done.push_back(7);  // one trailing byte
  with_record(/*IndexDone=*/3, index_done);
  EXPECT_THROW(campaign::CampaignJournal::load(path), ConfigError);
  with_record(/*unknown type*/ 9, {});
  EXPECT_THROW(campaign::CampaignJournal::load(path), ConfigError);
}

// --- hardened cache ----------------------------------------------------------

TEST(HardenedCache, CorruptEntryIsQuarantinedAndRefilled) {
  const std::string dir = temp_path("cache-quarantine");
  campaign::ResultCache cache(dir);
  const std::string key(64, 'a');
  cache.store(key, ExperimentResult{});
  ASSERT_TRUE(cache.lookup(key).has_value());

  const fs::path entry = fs::path(dir) / (key + ".result");
  { std::ofstream out(entry, std::ios::binary | std::ios::trunc); out << "rot"; }

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_TRUE(fs::exists(fs::path(dir) / (key + ".corrupt")));

  // The quarantine freed the key: a fresh store repairs the entry.
  cache.store(key, ExperimentResult{});
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(HardenedCache, StoreFailureThrowsCacheError) {
  const std::string dir = temp_path("cache-dead");
  campaign::ResultCache cache(dir);
  fs::remove_all(dir);  // the disk "dies" under the open cache
  EXPECT_THROW(cache.store(std::string(64, 'b'), ExperimentResult{}),
               campaign::CacheError);
}

// --- CLI crash-resume (real SIGKILL) -----------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

pid_t spawn_cli(const std::string& bin, const std::vector<std::string>& args,
                const std::string& out_path, const std::string& err_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int out = ::open(out_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  const int err = ::open(err_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (out < 0 || err < 0) ::_exit(126);
  ::dup2(out, STDOUT_FILENO);
  ::dup2(err, STDERR_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  ::_exit(127);
}

int wait_cli(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Journaled-experiment count readable right now, torn tail and all;
/// 0 while the header is still forming.
std::size_t journaled_count(const std::string& journal) {
  try {
    const auto state = campaign::CampaignJournal::load(journal);
    return state.progress.empty() ? 0 : state.progress[0].done_keys.size();
  } catch (const std::exception&) {
    return 0;
  }
}

TEST(JournalCli, SigkilledCampaignResumesByteIdentically) {
  const char* bin = std::getenv("LOKIMEASURE_BIN");
  if (bin == nullptr)
    GTEST_SKIP() << "LOKIMEASURE_BIN not set (tools not built)";

  const std::string root = temp_path("cli-journal");
  fs::create_directories(root);
  const auto campaign_args = [](const std::string& cache,
                                const std::string& journal, bool resume) {
    // 600 experiments with per-record fsync: slow enough (~0.5 s) that the
    // kill below lands genuinely mid-run.
    std::vector<std::string> args = {
        "--campaign", "--experiments", "600",  "--seed",          "9000",
        "--cache",    cache,           "--journal-group", "1",
        resume ? "--resume" : "--journal", journal};
    return args;
  };

  // The uninterrupted reference run.
  const std::string base = root + "/base";
  ASSERT_EQ(wait_cli(spawn_cli(bin,
                               campaign_args(base + ".cache", base + ".journal",
                                             false),
                               base + ".out", base + ".err")),
            0);
  const std::string expected = read_file(base + ".out");
  ASSERT_FALSE(expected.empty());

  // SIGKILL at several journal offsets: just after the first IndexDone,
  // mid-stream, and deep into the run.
  for (const std::size_t target : {1u, 120u, 400u}) {
    SCOPED_TRACE("kill after " + std::to_string(target) + " journaled");
    const std::string tag = root + "/kill" + std::to_string(target);
    const std::string cache = tag + ".cache";
    const std::string journal = tag + ".journal";

    const pid_t pid = spawn_cli(bin, campaign_args(cache, journal, false),
                                tag + ".out", tag + ".err");
    bool exited = false;
    int status = 0;
    while (true) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        exited = true;  // finished before we could kill: resume still valid
        break;
      }
      if (journaled_count(journal) >= target) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited) {
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      status = wait_cli(pid);
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    }

    ASSERT_EQ(wait_cli(spawn_cli(bin, campaign_args(cache, journal, true),
                                 tag + ".resume.out", tag + ".resume.err")),
              0);
    // The whole point: the resumed stdout is byte-identical to a run that
    // was never killed.
    EXPECT_EQ(read_file(tag + ".resume.out"), expected);
    // And the journaled prefix really was replayed, not re-run.
    if (!exited) {
      EXPECT_NE(read_file(tag + ".resume.err").find("resume: replayed="),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace loki
