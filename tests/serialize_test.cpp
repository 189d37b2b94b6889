// The versioned wire format (runtime/serialize.*): round-trip fidelity for
// ExperimentParams / ExperimentResult / StudyParams — including NaN/inf
// statistics, empty timelines and long strings — plus envelope hygiene:
// version-mismatch rejection, bad magic, truncated frames, trailing bytes.
// Also the worker frame protocol codecs (Hello/Lease/ResultBatch/...),
// every truncation of which must fail closed, and util/pipe_io framing
// under corruption: truncated, bit-flipped, and oversized length prefixes
// must surface as typed DecodeErrors, never a hang, a crash, or a giant
// allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "runtime/serialize.hpp"
#include "runtime/worker_stats.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/pipe_io.hpp"

// This binary's global operator new records the largest single allocation,
// so the decoders' allocation bound can be checked (WireBounds.*);
// std::allocator and the array forms allocate through it. malloc/free are
// the allocator beneath it; the replacements are kept out of line so the
// compiler never pairs an inlined free() with a new-expression.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size))  // NOLINT(cppcoreguidelines-no-malloc)
    return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);  // NOLINT(cppcoreguidelines-no-malloc)
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);  // NOLINT(cppcoreguidelines-no-malloc)
}

namespace loki {
namespace {

using codec::DecodeError;
using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

ExperimentParams sample_params(std::uint64_t seed = 7) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  auto p = apps::election_experiment(seed, kHosts, kPlacement, app);
  p.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  p.nodes[0].restart.enabled = true;
  p.nodes[0].restart.placement = runtime::RestartPolicy::Placement::Fixed;
  p.nodes[0].restart.fixed_host = "hostB";
  p.nodes[1].enter_at = milliseconds(40);
  p.nodes[1].enter_host = "hostB";
  p.nodes[1].initial_host.reset();
  p.hosts[0].clock = sim::ClockParams{microseconds(250), 1.00004, 500};
  p.hosts[1].load_duty = 0.35;
  p.host_crashes.push_back({"hostC", milliseconds(120), milliseconds(90)});
  p.design = runtime::TransportDesign::Centralized;
  p.sync.messages_per_pair = 7;
  p.max_drift_ppm = 55.5;
  return p;
}

// --- ExperimentParams --------------------------------------------------------

TEST(WireParams, EncodeDecodeEncodeIsIdentity) {
  const ExperimentParams p = sample_params();
  const auto bytes = runtime::encode_experiment_params(p);
  const ExperimentParams decoded = runtime::decode_experiment_params(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_params(decoded));
}

TEST(WireParams, DecodedParamsRebuildAWorkingAppFactory) {
  const auto bytes = runtime::encode_experiment_params(sample_params());
  const ExperimentParams decoded = runtime::decode_experiment_params(bytes);
  ASSERT_EQ(decoded.nodes.size(), 3u);
  EXPECT_EQ(decoded.nodes[0].app_name, "election");
  ASSERT_TRUE(static_cast<bool>(decoded.nodes[0].app_factory));
  EXPECT_NE(decoded.nodes[0].app_factory(), nullptr);
  EXPECT_EQ(decoded.nodes[1].enter_at, milliseconds(40));
  EXPECT_EQ(decoded.hosts[0].clock->granularity_ns, 500);
  EXPECT_EQ(decoded.design, runtime::TransportDesign::Centralized);
}

TEST(WireParams, MissingAppNameIsRejectedAtEncode) {
  ExperimentParams p = sample_params();
  p.nodes[2].app_name.clear();
  EXPECT_THROW(runtime::encode_experiment_params(p), ConfigError);
}

TEST(WireParams, UnregisteredAppNameIsRejectedAtDecode) {
  ExperimentParams p = sample_params();
  p.nodes[0].app_name = "no-such-app";
  const auto bytes = runtime::encode_experiment_params(p);
  EXPECT_THROW(runtime::decode_experiment_params(bytes), ConfigError);
}

TEST(WireParams, CacheKeyIsStableAndSeedSensitive) {
  const std::string a1 = runtime::experiment_cache_key(sample_params(7));
  const std::string a2 = runtime::experiment_cache_key(sample_params(7));
  const std::string b = runtime::experiment_cache_key(sample_params(8));
  EXPECT_EQ(a1.size(), 64u);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

// --- ExperimentResult --------------------------------------------------------

ExperimentResult synthetic_result() {
  ExperimentResult r;
  runtime::LocalTimeline empty_tl;  // a node that recorded nothing
  empty_tl.nickname = "mute";
  empty_tl.initial_host = "hostA";
  r.timelines.push_back(empty_tl);
  r.user_messages.emplace_back();  // "mute" printed nothing

  runtime::LocalTimeline tl;
  tl.nickname = "black";
  tl.initial_host = "hostA";
  tl.machines = {"black", "green"};
  tl.states = {"BEGIN", "LEAD"};
  tl.events = {"START"};
  tl.faults.push_back({"bfault1", "(black:LEAD)", spec::Trigger::Always});
  tl.records.push_back({runtime::RecordType::StateChange, 0, 1, 0, "",
                        LocalTime{123456789}});
  tl.records.push_back({runtime::RecordType::Restart, 0, 0, 0, "hostB",
                        LocalTime{-42}});  // negative local clock reading
  r.timelines.push_back(tl);
  r.user_messages.push_back({"injected bfault1", std::string(100'000, 'x')});

  r.sync_samples.push_back({"hostA", "hostB", LocalTime{1}, LocalTime{2}});
  const std::size_t a = r.add_host("hostA");
  const std::size_t b = r.add_host("hostB");
  const std::size_t c = r.add_host("hostC");
  r.start_local[a] = LocalTime{10};
  r.end_local[a] = LocalTime{20};
  r.truth.state_seq_of("black") = {{SimTime{0}, "BEGIN"}, {SimTime{5}, "LEAD"}};
  r.truth.injections.push_back({"black", "bfault1", SimTime{77}});
  r.truth.crashes_of("black") = {SimTime{99}};
  // NaN/inf statistics must survive bit-exactly.
  r.true_clocks[a] =
      sim::ClockParams{Duration{0}, std::numeric_limits<double>::quiet_NaN(), 1};
  r.true_clocks[b] =
      sim::ClockParams{Duration{0}, std::numeric_limits<double>::infinity(), 1};
  r.true_clocks[c] =
      sim::ClockParams{Duration{0}, -std::numeric_limits<double>::infinity(), 1};
  r.start_phys = SimTime{1000};
  r.end_phys = SimTime{2000};
  r.completed = true;
  r.dropped_notifications = 3;
  r.control_messages = 17;
  r.app_messages = 23;
  return r;
}

TEST(WireResult, SyntheticRoundTripIsByteIdentical) {
  const ExperimentResult r = synthetic_result();
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  // NaN payloads round-trip bit-exactly even though NaN != NaN.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.true_clock_of("hostA").beta),
            std::bit_cast<std::uint64_t>(r.true_clock_of("hostA").beta));
  EXPECT_EQ(decoded.true_clock_of("hostB").beta,
            std::numeric_limits<double>::infinity());
  ASSERT_NE(decoded.find_user_messages("black"), nullptr);
  EXPECT_EQ(decoded.find_user_messages("black")->at(1).size(), 100'000u);
  EXPECT_TRUE(decoded.timeline_of("mute").records.empty());
  EXPECT_EQ(decoded.find_user_messages("mute"), nullptr) << "empty slot";
  EXPECT_EQ(decoded.hosts, r.hosts) << "host table order is preserved";
}

TEST(WireResult, EmptyResultRoundTrips) {
  const ExperimentResult r{};
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  EXPECT_FALSE(decoded.completed);
}

TEST(WireResult, RealExperimentRoundTrips) {
  const ExperimentResult r = campaign::run_single(sample_params(11));
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  EXPECT_EQ(decoded.timelines.size(), r.timelines.size());
  EXPECT_EQ(decoded.sync_samples.size(), r.sync_samples.size());
}

// --- golden wire fixtures ----------------------------------------------------
// Checked-in v2 byte streams (tests/data/). Any encoder change that alters
// the bytes fails here; the fix is to bump kWireVersion AND regenerate with
//   LOKI_REGEN_WIRE_FIXTURES=1 ./serialize_test
// (never to silently accept drifted bytes under the same version).

std::string fixture_path(const std::string& name) {
  return std::string(LOKI_TEST_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  std::FILE* f = std::fopen(fixture_path(name).c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  return bytes;
}

void write_fixture(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(fixture_path(name).c_str(), "wb");
  ASSERT_NE(f, nullptr) << fixture_path(name);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Compare current bytes against the checked-in fixture, or rewrite the
/// fixture when LOKI_REGEN_WIRE_FIXTURES is set.
void check_golden(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  if (std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr) {
    write_fixture(name, bytes);
    return;
  }
  const std::vector<std::uint8_t> golden = read_fixture(name);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << fixture_path(name)
      << "; regenerate with LOKI_REGEN_WIRE_FIXTURES=1";
  ASSERT_EQ(bytes.size(), golden.size())
      << name << ": encoded size drifted without a kWireVersion bump";
  EXPECT_EQ(bytes, golden)
      << name << ": wire bytes drifted without a kWireVersion bump";
}

TEST(WireGolden, ResultEnvelopeMatchesCheckedInBytes) {
  const auto bytes = runtime::encode_experiment_result(synthetic_result());
  check_golden("result_v2.bin", bytes);
  // The fixture must also still decode and re-encode identically.
  const auto golden = std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr
                          ? bytes
                          : read_fixture("result_v2.bin");
  const ExperimentResult decoded = runtime::decode_experiment_result(golden);
  EXPECT_EQ(runtime::encode_experiment_result(decoded), golden);
}

TEST(WireGolden, ResultBatchFrameMatchesCheckedInBytes) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 4, synthetic_result());
  runtime::append_result_ok_entry(batch, 6, ExperimentResult{});
  runtime::append_result_error_entry(batch, 8, runtime::WireErrorCategory::Config,
                                     "bad host 'zeppelin'");
  check_golden("result_batch_v2.bin", batch);
  const auto golden = std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr
                          ? batch
                          : read_fixture("result_batch_v2.bin");
  const auto entries = runtime::decode_result_batch_frame(golden);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_EQ(entries[0].index, 4u);
  EXPECT_FALSE(entries[2].ok);
  EXPECT_EQ(entries[2].message, "bad host 'zeppelin'");
}

TEST(WireGolden, ParamsEnvelopeMatchesCheckedInBytes) {
  check_golden("params_v2.bin",
               runtime::encode_experiment_params(sample_params()));
}

// --- StudyParams -------------------------------------------------------------

TEST(WireStudy, MaterializedRoundTripReplaysEveryIndex) {
  runtime::StudyParams study;
  study.name = "wire-study";
  study.experiments = 3;
  study.make_params = [](int k) {
    return sample_params(100 + static_cast<std::uint64_t>(k));
  };

  const auto bytes = runtime::encode_study_params(study);
  const runtime::StudyParams decoded = runtime::decode_study_params(bytes);
  EXPECT_EQ(decoded.name, "wire-study");
  EXPECT_EQ(decoded.experiments, 3);
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(runtime::encode_experiment_params(decoded.make_params(k)),
              runtime::encode_experiment_params(study.make_params(k)));
  EXPECT_THROW(decoded.make_params(3), ConfigError);
  EXPECT_THROW(decoded.make_params(-1), ConfigError);
}

// --- envelope hygiene --------------------------------------------------------

TEST(WireEnvelope, VersionMismatchIsRejected) {
  auto bytes = runtime::encode_experiment_result(synthetic_result());
  bytes[4] ^= 0xff;  // u16 version lives right after the 4-byte magic
  try {
    runtime::decode_experiment_result(bytes);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(WireEnvelope, BadMagicIsRejected) {
  auto bytes = runtime::encode_experiment_result(synthetic_result());
  bytes[0] = 'X';
  EXPECT_THROW(runtime::decode_experiment_result(bytes), DecodeError);
}

TEST(WireEnvelope, WrongKindIsRejected) {
  const auto bytes = runtime::encode_experiment_result(synthetic_result());
  EXPECT_THROW(runtime::decode_experiment_params(bytes), DecodeError);
}

TEST(WireEnvelope, EveryTruncationIsRejectedNotMisread) {
  const auto full = runtime::encode_experiment_result(synthetic_result());
  // Chop at a spread of prefix lengths (every length would be O(n^2) over
  // a ~100KB message); each must throw DecodeError, never crash or return.
  for (std::size_t len = 0; len < full.size();
       len += 1 + full.size() / 257) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(runtime::decode_experiment_result(cut), DecodeError)
        << "prefix length " << len;
  }
}

TEST(WireEnvelope, TrailingGarbageIsRejected) {
  auto bytes = runtime::encode_experiment_result(ExperimentResult{});
  bytes.push_back(0);
  EXPECT_THROW(runtime::decode_experiment_result(bytes), DecodeError);
}

// --- allocation bounds of decoded counts -------------------------------------

void patch_le(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
}

/// `decode(bytes)` must throw DecodeError without any single allocation
/// above 4x the input.
template <typename Decode>
void expect_rejected_within_bound(const std::vector<std::uint8_t>& bytes,
                                  Decode decode) {
  g_largest_allocation = 0;
  EXPECT_THROW((void)decode(bytes), DecodeError);
  EXPECT_LE(g_largest_allocation.load(), 4 * bytes.size())
      << "largest allocation for a " << bytes.size() << "-byte input";
}

TEST(WireBounds, CorruptCountsFailBeforeAGiantReserve) {
  // The result envelope's node count (after the 7-byte header) claims one
  // node per byte left. A node entry takes at least 64 wire bytes and an
  // in-memory timeline 184, so a bound of one byte per element would
  // reserve 18 MB for this 100 KB input.
  std::vector<std::uint8_t> result = read_fixture("result_v2.bin");
  ASSERT_GT(result.size(), 15u);
  patch_le(result, 7, result.size() - 15, 8);
  expect_rejected_within_bound(result, [](const auto& b) {
    return runtime::decode_experiment_result(b);
  });

  // A study envelope's u32 experiment count, after the header and the name.
  runtime::StudyParams study;
  study.name = "wire-study";
  study.experiments = 3;
  study.make_params = [](int k) {
    return sample_params(100 + static_cast<std::uint64_t>(k));
  };
  std::vector<std::uint8_t> envelope = runtime::encode_study_params(study);
  const std::size_t count_at = 7 + 8 + study.name.size();
  patch_le(envelope, count_at, envelope.size() - count_at - 4, 4);
  expect_rejected_within_bound(envelope, [](const auto& b) {
    return runtime::decode_study_params(b);
  });

  // A Hello's study count (byte 8) at the most that eight bytes per study
  // allowed.
  std::vector<runtime::StudyParams> studies{study};
  std::vector<std::uint8_t> hello = runtime::encode_hello_frame(&studies, 1);
  patch_le(hello, 8, (hello.size() - 12) / 8, 4);
  expect_rejected_within_bound(hello, [](const auto& b) {
    return runtime::decode_hello_frame(b);
  });
}

TEST(WireBounds, SmallestElementsAtEveryCountRoundTrip) {
  // Each count check assumes a smallest encoded size per element. Every
  // case fills one counted vector with many smallest elements followed only
  // by fixed fields, so an over-estimated minimum rejects valid bytes.
  constexpr std::size_t kMany = 300;
  const std::vector<std::function<void(ExperimentResult&)>> fills = {
      [](ExperimentResult& r) { r.timelines.resize(kMany); },
      [](ExperimentResult& r) {
        r.timelines.resize(1);
        r.timelines[0].machines.resize(kMany);
      },
      [](ExperimentResult& r) {
        r.timelines.resize(1);
        r.timelines[0].faults.resize(kMany);
      },
      [](ExperimentResult& r) {
        r.timelines.resize(1);
        r.timelines[0].records.resize(kMany);
      },
      [](ExperimentResult& r) { r.sync_samples.resize(kMany); },
      [](ExperimentResult& r) {
        r.hosts.resize(kMany);
        r.start_local.resize(kMany);
        r.end_local.resize(kMany);
        r.true_clocks.resize(kMany);
      },
      [](ExperimentResult& r) {
        r.truth.machines.resize(kMany);
        r.truth.state_seq.resize(kMany);
        r.truth.crashes.resize(kMany);
      },
      [](ExperimentResult& r) { r.truth.state_seq_of("").resize(kMany); },
      [](ExperimentResult& r) { r.truth.crashes_of("").resize(kMany); },
      [](ExperimentResult& r) { r.truth.injections.resize(kMany); },
  };
  for (std::size_t i = 0; i < fills.size(); ++i) {
    ExperimentResult r;
    fills[i](r);
    const auto bytes = runtime::encode_experiment_result(r);
    EXPECT_EQ(runtime::encode_experiment_result(
                  runtime::decode_experiment_result(bytes)),
              bytes)
        << "result case " << i;
  }

  for (const bool crashes : {false, true}) {
    ExperimentParams p;
    if (crashes)
      p.host_crashes.resize(kMany);
    else
      p.hosts.resize(kMany);
    const auto bytes = runtime::encode_experiment_params(p);
    EXPECT_EQ(runtime::encode_experiment_params(
                  runtime::decode_experiment_params(bytes)),
              bytes)
        << (crashes ? "host crashes" : "hosts");
  }

  // Default params bodies fill a study, and empty studies fill a Hello.
  runtime::StudyParams study;
  study.experiments = static_cast<int>(kMany);
  study.make_params = [](int) { return ExperimentParams{}; };
  EXPECT_EQ(runtime::decode_study_params(runtime::encode_study_params(study))
                .experiments,
            study.experiments);
  runtime::StudyParams empty;
  empty.make_params = study.make_params;
  const std::vector<runtime::StudyParams> studies(kMany, empty);
  const runtime::HelloFrame hello =
      runtime::decode_hello_frame(runtime::encode_hello_frame(&studies, 1));
  ASSERT_TRUE(hello.studies.has_value());
  EXPECT_EQ(hello.studies->size(), kMany);
}

// --- app args + digest -------------------------------------------------------

TEST(AppArgs, ElectionRoundTrips) {
  apps::ElectionParams p;
  p.election_window = milliseconds(12);
  p.fault_activation_prob = 0.3125;
  p.crash_mode = runtime::CrashMode::Silent;
  const apps::ElectionParams q =
      apps::parse_election_args(apps::encode_election_args(p));
  EXPECT_EQ(q.election_window, p.election_window);
  EXPECT_EQ(q.fault_activation_prob, p.fault_activation_prob);
  EXPECT_EQ(q.crash_mode, p.crash_mode);
  EXPECT_EQ(apps::encode_election_args(q), apps::encode_election_args(p));
}

TEST(AppArgs, UnknownAndMissingKeysAreRejected) {
  apps::ElectionParams p;
  EXPECT_THROW(
      apps::parse_election_args(apps::encode_election_args(p) + " bogus=1"),
      ConfigError);
  EXPECT_THROW(apps::parse_election_args("window=1"), ConfigError);
}

// --- worker frame protocol ---------------------------------------------------

TEST(WorkerFrames, HelloCarriesOrOmitsTheStudies) {
  // v6: one Hello carries every study of the campaign.
  std::vector<runtime::StudyParams> studies(2);
  studies[0].name = "framed";
  studies[0].experiments = 2;
  studies[0].make_params = [](int k) {
    return sample_params(300 + static_cast<std::uint64_t>(k));
  };
  studies[1].name = "framed-too";
  studies[1].experiments = 3;
  studies[1].make_params = [](int k) {
    return sample_params(400 + static_cast<std::uint64_t>(k));
  };

  // The coordinator's heartbeat cadence rides inside the Hello.
  const auto with = runtime::encode_hello_frame(&studies, 1250);
  EXPECT_EQ(runtime::worker_frame_type(with), runtime::WorkerFrame::Hello);
  const runtime::HelloFrame hello = runtime::decode_hello_frame(with);
  EXPECT_EQ(hello.protocol_version, runtime::kWorkerProtocolVersion);
  EXPECT_EQ(hello.heartbeat_interval_ms, 1250u);
  ASSERT_TRUE(hello.studies.has_value());
  ASSERT_EQ(hello.studies->size(), 2u);
  for (std::size_t s = 0; s < studies.size(); ++s) {
    const runtime::StudyParams& back = (*hello.studies)[s];
    EXPECT_EQ(back.name, studies[s].name);
    EXPECT_EQ(back.experiments, studies[s].experiments);
    for (int k = 0; k < studies[s].experiments; ++k)
      EXPECT_EQ(runtime::encode_experiment_params(back.make_params(k)),
                runtime::encode_experiment_params(studies[s].make_params(k)));
  }

  const auto without = runtime::encode_hello_frame(nullptr, 1);
  EXPECT_FALSE(runtime::decode_hello_frame(without).studies.has_value());
  EXPECT_EQ(runtime::decode_hello_frame(without).heartbeat_interval_ms, 1u);

  // There is no "worker default" cadence: a Hello without an interval is
  // malformed, with or without studies.
  EXPECT_THROW(
      runtime::decode_hello_frame(runtime::encode_hello_frame(&studies, 0)),
      codec::DecodeError);
  EXPECT_THROW(
      runtime::decode_hello_frame(runtime::encode_hello_frame(nullptr, 0)),
      codec::DecodeError);
  // A study count or a study length past the frame's end fails closed.
  auto overcount = runtime::encode_hello_frame(&studies, 1);
  // Type, u16 version, u32 interval and the bool take 8 bytes; byte 11 is
  // the study count's high byte.
  overcount[11] = 0x7f;
  EXPECT_THROW(runtime::decode_hello_frame(overcount), codec::DecodeError);
  auto truncated = with;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(runtime::decode_hello_frame(truncated), codec::DecodeError);
}

TEST(WorkerFrames, HeartbeatCarriesWorkerStats) {
  runtime::WorkerStatsSnapshot stats;
  stats.record_experiment_us(180.0);
  stats.record_experiment_us(2'500.0);
  stats.record_experiment_us(900'000.0);
  stats.bytes_encoded = 123'456;
  stats.batches_flushed = 7;

  const auto frame = runtime::encode_heartbeat_frame(stats);
  EXPECT_EQ(runtime::worker_frame_type(frame), runtime::WorkerFrame::Heartbeat);
  EXPECT_EQ(frame.size(), 129u);  // type byte + the fixed-size snapshot
  const runtime::WorkerStatsSnapshot back =
      runtime::decode_heartbeat_frame(frame);
  EXPECT_EQ(back, stats);
  EXPECT_EQ(back.experiments_completed, 3u);
  EXPECT_EQ(back.histogram.total_count(), 3u);
}

TEST(WorkerFrames, ScalarFramesRoundTrip) {
  const auto ack = runtime::encode_hello_ack_frame();
  EXPECT_EQ(ack.size(), 3u);  // type byte + u16 version
  EXPECT_EQ(runtime::decode_hello_ack_frame(ack),
            runtime::kWorkerProtocolVersion);

  const runtime::LeaseFrame lease{7, 3, 10, 20};
  const auto lease_bytes = runtime::encode_lease_frame(lease);
  EXPECT_EQ(lease_bytes.size(), 17u);  // type byte + id, study, lo, hi
  const runtime::LeaseFrame back = runtime::decode_lease_frame(lease_bytes);
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.study, 3u);
  EXPECT_EQ(back.lo, 10u);
  EXPECT_EQ(back.hi, 20u);
  // An empty range is well-formed (the worker just closes the lease).
  EXPECT_EQ(
      runtime::decode_lease_frame(runtime::encode_lease_frame({8, 0, 5, 5})).hi,
      5u);

  EXPECT_EQ(runtime::decode_heartbeat_frame(runtime::encode_heartbeat_frame({})),
            runtime::WorkerStatsSnapshot{});
  EXPECT_EQ(
      runtime::decode_lease_done_frame(runtime::encode_lease_done_frame(11)),
      11u);
  EXPECT_EQ(runtime::worker_frame_type(runtime::encode_shutdown_frame()),
            runtime::WorkerFrame::Shutdown);
}

TEST(WorkerFrames, ResultBatchRoundTripsMixedEntries) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  EXPECT_TRUE(runtime::result_batch_empty(batch));
  EXPECT_EQ(runtime::worker_frame_type(batch), runtime::WorkerFrame::ResultBatch);
  EXPECT_EQ(runtime::result_batch_entry_count(batch), 0u);

  const ExperimentResult r = synthetic_result();
  runtime::append_result_ok_entry(batch, 3, r);
  runtime::append_result_ok_entry(batch, 4, ExperimentResult{});
  runtime::append_result_error_entry(batch, 5, runtime::WireErrorCategory::Logic,
                                     "boom");
  EXPECT_FALSE(runtime::result_batch_empty(batch));
  EXPECT_EQ(runtime::result_batch_entry_count(batch), 3u);

  const std::vector<runtime::ResultFrame> entries =
      runtime::decode_result_batch_frame(batch);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_EQ(entries[0].index, 3u);
  EXPECT_EQ(runtime::encode_experiment_result(entries[0].result),
            runtime::encode_experiment_result(r));
  EXPECT_TRUE(entries[1].ok);
  EXPECT_EQ(entries[1].index, 4u);
  EXPECT_FALSE(entries[1].result.completed);
  EXPECT_FALSE(entries[2].ok);
  EXPECT_EQ(entries[2].index, 5u);
  EXPECT_EQ(entries[2].category, runtime::WireErrorCategory::Logic);
  EXPECT_EQ(entries[2].message, "boom");
}

TEST(WorkerFrames, InternedBatchDecodeMatchesPlainDecode) {
  // Results from one study share their timeline headers, so the interner
  // must hit on every timeline after the first result — and interning must
  // be invisible in the decoded bytes.
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  std::vector<ExperimentResult> sources;
  for (std::uint32_t k = 0; k < 4; ++k) {
    sources.push_back(campaign::run_single(sample_params(13 + k)));
    runtime::append_result_ok_entry(batch, k, sources.back());
  }

  runtime::ResultInterner interner;
  const std::vector<runtime::ResultFrame> interned =
      runtime::decode_result_batch_frame(batch, &interner);
  const std::vector<runtime::ResultFrame> plain =
      runtime::decode_result_batch_frame(batch);
  ASSERT_EQ(interned.size(), plain.size());
  for (std::size_t k = 0; k < interned.size(); ++k)
    EXPECT_EQ(runtime::encode_experiment_result(interned[k].result),
              runtime::encode_experiment_result(plain[k].result))
        << "entry " << k;

  const std::size_t timelines = sources.front().timelines.size();
  ASSERT_GT(timelines, 0u);
  EXPECT_EQ(interner.header_misses(), timelines);
  EXPECT_EQ(interner.header_hits(), (sources.size() - 1) * timelines);

  // nullptr interner must behave exactly like the plain overload.
  const std::vector<runtime::ResultFrame> null_interned =
      runtime::decode_result_batch_frame(batch, nullptr);
  ASSERT_EQ(null_interned.size(), plain.size());
  for (std::size_t k = 0; k < plain.size(); ++k)
    EXPECT_EQ(runtime::encode_experiment_result(null_interned[k].result),
              runtime::encode_experiment_result(plain[k].result));
}

TEST(WorkerFrames, BeginResultBatchReusesTheBuffer) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 0, synthetic_result());
  const std::size_t cap = batch.capacity();
  runtime::begin_result_batch(batch);
  EXPECT_TRUE(runtime::result_batch_empty(batch));
  EXPECT_EQ(batch.capacity(), cap) << "reset must keep the allocation";
}

TEST(WorkerFrames, MalformedBatchYieldsNoPartialResults) {
  // All-or-nothing decoding is what makes whole-batch requeue safe: a batch
  // whose SECOND entry is damaged must not leak its intact first entry.
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 0, ExperimentResult{});
  const std::size_t first_end = batch.size();
  runtime::append_result_ok_entry(batch, 1, ExperimentResult{});

  auto corrupt = batch;
  corrupt[first_end] = 0xff;  // second entry's status byte
  EXPECT_THROW(runtime::decode_result_batch_frame(corrupt), DecodeError);
  EXPECT_THROW(runtime::result_batch_entry_count(corrupt), DecodeError);

  auto truncated = batch;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(runtime::decode_result_batch_frame(truncated), DecodeError);
  EXPECT_THROW(runtime::result_batch_entry_count(truncated), DecodeError);

  // A frame of another type is not a ResultBatch frame.
  EXPECT_THROW(
      runtime::decode_result_batch_frame(runtime::encode_lease_done_frame(0)),
      DecodeError);
}

TEST(WorkerFrames, ErrorClassificationSurvivesTheWire) {
  EXPECT_EQ(runtime::classify_error(ConfigError("x")),
            runtime::WireErrorCategory::Config);
  EXPECT_EQ(runtime::classify_error(LogicError("x")),
            runtime::WireErrorCategory::Logic);
  EXPECT_EQ(runtime::classify_error(std::runtime_error("x")),
            runtime::WireErrorCategory::Runtime);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Config, "m"),
      ConfigError);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Logic, "m"),
      LogicError);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Runtime, "m"),
      std::runtime_error);
}

// Modelled on WireEnvelope.EveryTruncationIsRejectedNotMisread, over every
// v7 frame: each strict prefix throws DecodeError, never decodes as a
// shorter valid frame. The one exception is a ResultBatch prefix ending on
// an entry boundary: entries are self-delimiting, so it is a well-formed
// batch of exactly the leading entries.
TEST(WorkerFrames, EveryTruncationIsRejectedNotMisread) {
  std::vector<runtime::StudyParams> studies(1);
  studies[0].name = "cut";
  studies[0].experiments = 2;
  studies[0].make_params = [](int k) {
    return sample_params(600 + static_cast<std::uint64_t>(k));
  };
  runtime::WorkerStatsSnapshot stats;
  stats.record_experiment_us(1'234.0);
  stats.bytes_encoded = 99;
  stats.batches_flushed = 1;
  using Decode = std::function<void(const std::vector<std::uint8_t>&)>;
  const Decode hello = [](const std::vector<std::uint8_t>& f) {
    (void)runtime::decode_hello_frame(f);
  };
  const std::vector<std::pair<std::vector<std::uint8_t>, Decode>> frames = {
      {runtime::encode_hello_frame(&studies, 1000), hello},
      {runtime::encode_hello_frame(nullptr, 1000), hello},
      {runtime::encode_hello_ack_frame(),
       [](const std::vector<std::uint8_t>& f) {
         (void)runtime::decode_hello_ack_frame(f);
       }},
      {runtime::encode_lease_frame({7, 1, 2, 9}),
       [](const std::vector<std::uint8_t>& f) {
         (void)runtime::decode_lease_frame(f);
       }},
      {runtime::encode_heartbeat_frame(stats),
       [](const std::vector<std::uint8_t>& f) {
         (void)runtime::decode_heartbeat_frame(f);
       }},
      {runtime::encode_lease_done_frame(11),
       [](const std::vector<std::uint8_t>& f) {
         (void)runtime::decode_lease_done_frame(f);
       }},
      // Shutdown has no body: its type byte is all a worker reads.
      {runtime::encode_shutdown_frame(),
       [](const std::vector<std::uint8_t>& f) {
         (void)runtime::worker_frame_type(f);
       }}};
  for (const auto& [full, decode] : frames) {
    EXPECT_NO_THROW(decode(full)) << "frame type " << int(full[0]);
    for (std::size_t len = 0; len < full.size(); ++len)
      EXPECT_THROW(
          decode(std::vector<std::uint8_t>(
              full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len))),
          DecodeError)
          << "frame type " << int(full[0]) << ", prefix length " << len;
  }

  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 3,
                                  campaign::run_single(sample_params(31)));
  const std::size_t first_entry_end = batch.size();
  runtime::append_result_error_entry(
      batch, 4, runtime::WireErrorCategory::Config, "generator exploded");
  ASSERT_EQ(runtime::decode_result_batch_frame(batch).size(), 2u);
  for (std::size_t len = 0; len < batch.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(len));
    if (len == 1 || len == first_entry_end) {
      const std::vector<runtime::ResultFrame> entries =
          runtime::decode_result_batch_frame(cut);
      ASSERT_EQ(entries.size(), len == 1 ? 0u : 1u) << "prefix length " << len;
      if (!entries.empty()) {
        EXPECT_EQ(entries[0].index, 3u);
      }
    } else {
      EXPECT_THROW(runtime::decode_result_batch_frame(cut), DecodeError)
          << "prefix length " << len;
    }
  }

  // 5, 8 and 9 are reserved (retired frames); no other byte names a type.
  for (const std::uint8_t type : {0, 5, 8, 9, 11, 0xff})
    EXPECT_THROW(runtime::worker_frame_type({type}), DecodeError)
        << "type " << int(type);
}

TEST(WorkerFrames, MalformedFramesAreRejected) {
  EXPECT_THROW(runtime::worker_frame_type({}), DecodeError);
  EXPECT_THROW(runtime::worker_frame_type({0}), DecodeError);
  EXPECT_THROW(runtime::worker_frame_type({0x7f}), DecodeError);
  // A frame of the wrong type for the decoder at hand.
  EXPECT_THROW(runtime::decode_lease_frame(runtime::encode_heartbeat_frame({})),
               DecodeError);
  // Truncations of structured frames.
  auto lease = runtime::encode_lease_frame({1, 0, 0, 4});
  lease.resize(lease.size() - 3);
  EXPECT_THROW(runtime::decode_lease_frame(lease), DecodeError);
  // Trailing garbage.
  auto heartbeat = runtime::encode_heartbeat_frame({});
  heartbeat.push_back(0);
  EXPECT_THROW(runtime::decode_heartbeat_frame(heartbeat), DecodeError);
  // An inverted lease range is rejected, not run as empty or wrapped.
  EXPECT_THROW(
      runtime::decode_lease_frame(runtime::encode_lease_frame({1, 0, 4, 3})),
      DecodeError);

  // A lease naming a study the campaign does not have decodes (the frame
  // cannot know the count), but serve_worker refuses it before running
  // anything: nothing follows the HelloAck.
  std::vector<runtime::StudyParams> studies(2);
  for (runtime::StudyParams& study : studies) {
    study.name = "s" + std::to_string(&study - studies.data());
    study.experiments = 2;
    study.make_params = [](int k) {
      return sample_params(500 + static_cast<std::uint64_t>(k));
    };
  }
  for (const runtime::LeaseFrame& bad :
       {runtime::LeaseFrame{1, 2, 0, 1}, runtime::LeaseFrame{1, 1, 0, 3}}) {
    campaign::QueueFrameChannel channel;
    channel.push(runtime::encode_hello_frame(nullptr, 1000));
    channel.push(runtime::encode_lease_frame(bad));
    EXPECT_THROW(campaign::serve_worker(channel, &studies), std::runtime_error)
        << "study " << bad.study << " [" << bad.lo << ", " << bad.hi << ")";
    ASSERT_EQ(channel.written().size(), 1u);
    EXPECT_EQ(runtime::worker_frame_type(channel.written()[0]),
              runtime::WorkerFrame::HelloAck);
  }
}

// --- util/pipe_io framing under corruption -----------------------------------

/// Write raw bytes to a temp file and return a read fd positioned at 0.
/// File-backed (not a pipe) so a decoding bug can only fail, never block.
class RawStream {
 public:
  explicit RawStream(const std::vector<std::uint8_t>& bytes) {
    path_ = testing::TempDir() + "loki-pipeio-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter_++);
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("RawStream: fopen");
    if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    fd_ = ::open(path_.c_str(), O_RDONLY);
  }
  ~RawStream() {
    if (fd_ >= 0) ::close(fd_);
    std::remove(path_.c_str());
  }
  int fd() const { return fd_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
  int fd_{-1};
};

std::vector<std::uint8_t> frame_bytes(const std::vector<std::uint8_t>& payload) {
  // Reuse write_frame itself to produce a well-formed frame on disk.
  const std::string path = testing::TempDir() + "loki-pipeio-mk-" +
                           std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  EXPECT_GE(fd, 0);
  util::write_frame(fd, payload);
  ::close(fd);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<std::uint8_t> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  std::remove(path.c_str());
  return bytes;
}

TEST(PipeIoCorruption, WellFormedFrameRoundTrips) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5};
  RawStream stream(frame_bytes(payload));
  EXPECT_EQ(util::read_frame(stream.fd()), payload);
  EXPECT_FALSE(util::read_frame(stream.fd()).has_value()) << "clean EOF";
}

TEST(PipeIoCorruption, EmptyPayloadFrameIsValid) {
  RawStream stream(frame_bytes({}));
  const auto frame = util::read_frame(stream.fd());
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(PipeIoCorruption, TruncatedHeaderIsRejected) {
  for (std::size_t keep : {1u, 2u, 3u}) {
    auto bytes = frame_bytes({1, 2, 3});
    bytes.resize(keep);
    RawStream stream(bytes);
    EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError)
        << "header bytes kept: " << keep;
  }
}

TEST(PipeIoCorruption, TruncatedPayloadIsRejected) {
  auto bytes = frame_bytes(std::vector<std::uint8_t>(100, 0xab));
  bytes.resize(bytes.size() - 40);
  RawStream stream(bytes);
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

TEST(PipeIoCorruption, BitFlippedLengthIsRejectedNotMisread) {
  // Flipping a high bit of the length prefix turns a 4-byte payload into a
  // claimed ~64MB one; the stream ends long before that, so the reader must
  // reject it instead of blocking or fabricating data.
  auto bytes = frame_bytes({1, 2, 3, 4});
  bytes[3] ^= 0x04;  // length prefix is little-endian bytes [0,4)
  RawStream stream(bytes);
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

TEST(PipeIoCorruption, OversizedLengthIsRejectedBeforeAllocating) {
  // Length prefix far beyond kMaxFrameBytes: must throw immediately (no
  // 3GB reserve attempt).
  std::vector<std::uint8_t> bytes = {0xff, 0xff, 0xff, 0xff, 0x00};
  RawStream stream(bytes);
  try {
    util::read_frame(stream.fd());
    FAIL() << "expected DecodeError";
  } catch (const codec::DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos)
        << e.what();
  }
}

TEST(PipeIoCorruption, ClaimedLengthIsNotAllocatedUpFront) {
  // A header claiming just under 1 GiB, then EOF — what stray text on an
  // ssh worker's stdout reads as. The reader must fail with DecodeError
  // without first allocating (and zero-filling) the claimed length.
  const auto peak_rss_kb = [] {
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  RawStream stream({0xff, 0xff, 0xff, 0x3f});
  const long before = peak_rss_kb();
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
  EXPECT_LT(peak_rss_kb() - before, 64 * 1024) << "KiB of peak RSS growth";
}

TEST(PipeIoCorruption, GarbageBetweenFramesIsRejected) {
  auto good = frame_bytes({5, 5, 5});
  std::vector<std::uint8_t> bytes = good;
  bytes.push_back(0x4c);  // one stray byte, then EOF
  RawStream stream(bytes);
  EXPECT_EQ(util::read_frame(stream.fd()), (std::vector<std::uint8_t>{5, 5, 5}));
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

TEST(Digest, Sha256KnownVectors) {
  EXPECT_EQ(util::sha256_hex(nullptr, 0),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string abc = "abc";
  EXPECT_EQ(util::sha256_hex(abc.data(), abc.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Multi-block (> 64 bytes) input.
  const std::string long_input(1000, 'a');
  EXPECT_EQ(util::sha256_hex(long_input.data(), long_input.size()),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

TEST(Digest, Sha256Fips180Vectors) {
  // FIPS 180-4's two-block message: 56 bytes, so the length needs a
  // second padding block.
  const std::string two_block =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(util::sha256_hex(two_block.data(), two_block.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::string million(1'000'000, 'a');
  EXPECT_EQ(util::sha256_hex(million.data(), million.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Digest, DispatchedSha256MatchesPortableReference) {
  // Every length from 0 to 1,100 bytes, fed whole and in uneven chunks, so
  // that every padding edge and every switch between buffered and direct
  // blocks is hit, must digest exactly as the portable block function does.
  if (util::Sha256::hardware())
    std::printf("Sha256 dispatches to SHA-NI on this CPU\n");
  else
    std::printf("no SHA-NI on this CPU: Sha256 runs the portable path\n");
  std::vector<std::uint8_t> input(1100);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<std::uint8_t>((i * 131 + 7) ^ (i >> 8));
  const std::size_t chunks[] = {0, 1, 63, 64, 65, 127};  // 0: whole input
  for (std::size_t len = 0; len <= input.size(); ++len) {
    util::Sha256 reference = util::Sha256::portable();
    reference.update(input.data(), len);
    const auto expected = reference.finish();
    for (const std::size_t chunk : chunks) {
      util::Sha256 dispatched;
      for (std::size_t at = 0; at < len;) {
        const std::size_t take = chunk == 0 ? len : std::min(chunk, len - at);
        dispatched.update(input.data() + at, take);
        at += take;
      }
      ASSERT_EQ(dispatched.finish(), expected)
          << "length " << len << ", chunks of " << chunk;
    }
  }
}

TEST(Digest, CacheKeyOfCheckedInParamsIsPinned) {
  // The key of tests/data/params_v2.bin, recorded before Sha256 gained its
  // SHA-NI path: a cache filled by an earlier build keeps its hits.
  const std::vector<std::uint8_t> bytes = read_fixture("params_v2.bin");
  ASSERT_FALSE(bytes.empty()) << "missing fixture " << fixture_path("params_v2.bin");
  EXPECT_EQ(runtime::experiment_cache_key(runtime::decode_experiment_params(bytes)),
            "2e4b4bdf0393d9bd37308cc2cedff342b271313eed9a132d50f0477937c524d3");
}

}  // namespace
}  // namespace loki
