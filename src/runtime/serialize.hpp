// Versioned binary wire format for campaign data.
//
// Three message kinds share one envelope — 4-byte magic "LOKI", a u16
// format version, a u8 kind — followed by a kind-specific body of
// little-endian scalars and length-prefixed strings (util/codec.hpp):
//
//   kind 1  ExperimentParams   full experiment configuration
//   kind 2  ExperimentResult   timelines, sync samples, ground truth, stats
//   kind 3  StudyParams        study name + every experiment's params,
//                              materialized through make_params
//
// Versioning rules:
//   * Any change to an encoded field — layout, meaning, or default — bumps
//     kWireVersion. There is no in-place field evolution: decoders speak
//     exactly one version and reject everything else with DecodeError.
//   * Because the version is part of the encoded bytes, every cache key
//     (sha256 of an encoded ExperimentParams) changes with it, so a format
//     bump automatically invalidates stale ResultCache entries instead of
//     misreading them.
//
// Alongside the three envelope kinds, this header defines the *worker frame
// protocol*: the typed frames a campaign parent and a `lokimeasure --worker
// --serve` process (or any campaign::Transport worker) exchange over framed
// pipes (util/pipe_io.hpp). Every frame payload starts with a WorkerFrame
// type byte:
//
//   parent -> worker   Hello        protocol version, heartbeat interval,
//                                   optionally the campaign's studies
//                      Lease        a study ordinal + an index range [lo, hi)
//                      Shutdown     no more work; exit cleanly
//   worker -> parent   HelloAck     protocol version
//                      Heartbeat    periodic liveness while a lease runs,
//                                   carrying a WorkerStatsSnapshot
//                      ResultBatch  the outcomes (ok or error) of one lease,
//                                   in index order, one or more per frame
//                      LeaseDone    lease finished (possibly early, on error)
//
// Heartbeat cadence rule: a worker emits a heartbeat whenever the Hello's
// interval has elapsed since its last write on the channel — between
// experiments and between batch flushes — so a healthy worker grinding
// through a slow lease is never silent past the coordinator's
// hang_timeout. The coordinator chooses the interval (hang_timeout / 4);
// a Hello without one (interval 0) is malformed. Every Heartbeat carries
// the worker's cumulative stats snapshot (experiments completed, EWMA
// latency, log-scale latency histogram, bytes encoded, batches flushed —
// runtime/worker_stats.hpp), which the coordinator folds into
// campaign::FleetTelemetry.
//
// A ResultBatch body is a sequence of self-delimiting entries (no count):
//
//   entry := u8 status (0 ok | 1 error), u32 experiment index, then
//            ok:    u64 byte length + an encoded ExperimentResult envelope
//            error: u8 category + length-prefixed message
//
// Batches amortize the per-frame syscall/copy cost of the result plane; a
// worker flushes when the accumulated bytes cross a soft bound or the lease
// ends. decode_result_batch_frame decodes the whole batch up front (strong
// exception safety), so a corrupt or truncated batch yields no partial
// results — the runner requeues the batch's experiments as a unit.
//
// The protocol is versioned independently of the envelope: the Hello /
// HelloAck exchange carries kWorkerProtocolVersion and each side rejects a
// mismatch, so a fleet can never silently mix incompatible workers.
//
// StudyParams is a closure (make_params) in memory; on the wire it is the
// *materialized* study — each index's generated ExperimentParams, in order.
// Decoding yields a StudyParams whose generator replays those params, which
// is exactly what a worker in another process needs. Generators must
// be deterministic per index for this to be faithful (the documented
// campaign contract).
//
// ExperimentParams carries an ApplicationFactory closure per node; on the
// wire a node is identified by (app_name, app_args) instead, resolved
// against runtime/app_registry.hpp at decode time. Encoding a node with an
// empty app_name throws ConfigError.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hpp"
#include "runtime/worker_stats.hpp"
#include "util/codec.hpp"

namespace loki::runtime {

/// Bump on ANY change to the encoding (see versioning rules above).
/// v2: dense-id ExperimentResult layout — timelines/user_messages in node
/// order, one shared host table with parallel start/end/clock columns, and
/// ground truth in machine slots (v1 encoded string-keyed maps).
inline constexpr std::uint16_t kWireVersion = 2;

std::vector<std::uint8_t> encode_experiment_params(const ExperimentParams& p);
ExperimentParams decode_experiment_params(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_experiment_result(const ExperimentResult& r);
/// Append flavour: encodes into `out` (appending) instead of allocating a
/// fresh vector — the zero-copy path for reusable per-worker frame buffers.
void encode_experiment_result(const ExperimentResult& r,
                              std::vector<std::uint8_t>& out);
ExperimentResult decode_experiment_result(const std::vector<std::uint8_t>& bytes);
/// Zero-copy flavour for decoding out of a larger buffer (e.g. a shard
/// frame) without slicing it into a fresh vector first.
ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size);
/// Interned flavour (class ResultInterner below): memoizes the per-study
/// timeline headers across calls. nullptr behaves like the plain decode.
class ResultInterner;
ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size,
                                          ResultInterner* interner);

std::vector<std::uint8_t> encode_study_params(const StudyParams& study);
StudyParams decode_study_params(const std::vector<std::uint8_t>& bytes);

/// Content address of one experiment: sha256 hex of the encoded params.
/// Experiments with equal keys produce byte-identical results (run_experiment
/// is deterministic in its params, and the seed is part of the encoding).
std::string experiment_cache_key(const ExperimentParams& p);

/// Decode-side string interner for the coordinator result path. Within one
/// study every result's timeline *headers* (nickname, initial host, the
/// machine/state/event dictionaries, fault entries) are identical — only
/// the records differ — yet a plain decode re-parses and re-allocates them
/// per result (~16us/result, allocation-bound). The interner memoizes the
/// decoded header keyed on its raw encoded byte span: a hit skips the
/// parse and copies the cached header (short dictionary names stay in SSO
/// storage, so the copy is a handful of vector clones, not one allocation
/// per string). Keys are whole headers, so one interner serves many
/// studies: RemoteRunner holds one per campaign run. It is NOT
/// thread-safe, matching RemoteRunner's single-threaded decode loop.
class ResultInterner {
 public:
  std::size_t header_hits() const { return hits_; }
  std::size_t header_misses() const { return misses_; }

 private:
  friend LocalTimeline interned_timeline(codec::Reader& r,
                                         ResultInterner& interner);
  // Heterogeneous lookup (std::less<>) lets the hot path probe with a
  // string_view over the frame bytes; a std::string key is built only on
  // the first miss per distinct header.
  std::map<std::string, LocalTimeline, std::less<>> headers_;
  std::size_t hits_{0};
  std::size_t misses_{0};
};

// --- worker frame protocol ---------------------------------------------------

/// Bump on ANY change to a worker frame layout or meaning. Checked by the
/// Hello / HelloAck handshake; a mismatch is a hard error on both sides.
/// v2: ResultBatch frames + the v2 result envelope inside ok entries.
/// v3: Hello carries the heartbeat interval; Heartbeat carries a
/// WorkerStatsSnapshot (the fleet-telemetry plane).
/// v4: results travel only in ResultBatch frames (the single-result frame,
/// type 5, is gone) and Lease drops its stride: {id, lo, hi}.
/// v5: the Hello's heartbeat interval is required — 0 is a DecodeError, not
/// "worker default".
/// v6: one fleet per campaign — the Hello carries every study of the
/// campaign (a count, then each study), and Lease names its study:
/// {id, study, lo, hi}.
/// v7: only what the coordinator reads — Ping/Pong (types 8, 9) are gone,
/// HelloAck is {version} without the worker pid, Heartbeat is the stats
/// snapshot without a lease id, and a lease no longer opens with one.
inline constexpr std::uint16_t kWorkerProtocolVersion = 7;

/// First byte of every worker frame payload.
enum class WorkerFrame : std::uint8_t {
  Hello = 1,
  HelloAck = 2,
  Lease = 3,
  Heartbeat = 4,
  // 5 (v3's single-result frame), 8 and 9 (Ping/Pong until v6) are
  // reserved: never reuse them, so a stale peer's frame fails
  // worker_frame_type instead of dispatching.
  LeaseDone = 6,
  Shutdown = 7,
  ResultBatch = 10,
};

/// Exception families that survive a process boundary. A worker classifies
/// the exception it caught; the parent rehydrates the same family so
/// campaign failure semantics are runner-independent.
enum class WireErrorCategory : std::uint8_t { Runtime = 0, Config = 1, Logic = 2 };

WireErrorCategory classify_error(const std::exception& e);
[[noreturn]] void rethrow_wire_error(WireErrorCategory category,
                                     const std::string& message);

/// Peek a frame's type byte. Throws DecodeError on an empty frame or an
/// unknown or reserved type — a corrupt stream must never dispatch as a
/// valid frame.
WorkerFrame worker_frame_type(const std::vector<std::uint8_t>& frame);

/// Hello: pass nullptr when the worker already holds the studies in memory
/// (a fork()ed child); exec'd (ssh) workers get every study of the campaign
/// inside the frame, materialized. `heartbeat_interval_ms` sets the
/// worker's liveness cadence and must be positive: decode_hello_frame
/// rejects 0 with DecodeError.
std::vector<std::uint8_t> encode_hello_frame(
    const std::vector<StudyParams>* studies,
    std::uint32_t heartbeat_interval_ms);
struct HelloFrame {
  std::uint16_t protocol_version{0};
  std::uint32_t heartbeat_interval_ms{0};
  std::optional<std::vector<StudyParams>> studies;
};
HelloFrame decode_hello_frame(const std::vector<std::uint8_t>& frame);

/// HelloAck: the worker's protocol version, which the parent checks.
std::vector<std::uint8_t> encode_hello_ack_frame();
std::uint16_t decode_hello_ack_frame(const std::vector<std::uint8_t>& frame);

/// One unit of leased work: experiment indices [lo, hi) of the study with
/// ordinal `study`. decode_lease_frame rejects an inverted range (lo > hi)
/// with DecodeError; whether the study exists and the range lies inside it
/// is the worker's check (serve_worker).
struct LeaseFrame {
  std::uint32_t id{0};
  std::uint32_t study{0};
  std::uint32_t lo{0};
  std::uint32_t hi{0};
};
std::vector<std::uint8_t> encode_lease_frame(const LeaseFrame& lease);
LeaseFrame decode_lease_frame(const std::vector<std::uint8_t>& frame);

/// Heartbeat: liveness plus the worker's cumulative stats snapshot.
/// Layout: u64 experiments completed, f64 EWMA latency (us),
/// LatencyHistogram::kBuckets x u32 buckets, u64 bytes encoded, u64 batches
/// flushed. Fixed-size, 129 bytes — cheap enough to send every interval.
std::vector<std::uint8_t> encode_heartbeat_frame(
    const WorkerStatsSnapshot& stats);
WorkerStatsSnapshot decode_heartbeat_frame(
    const std::vector<std::uint8_t>& frame);

std::vector<std::uint8_t> encode_lease_done_frame(std::uint32_t lease_id);
std::uint32_t decode_lease_done_frame(const std::vector<std::uint8_t>& frame);

// --- batched results ---------------------------------------------------------

/// One decoded ResultBatch entry.
struct ResultFrame {
  std::uint32_t index{0};
  bool ok{false};
  ExperimentResult result;  // ok entries only
  WireErrorCategory category{WireErrorCategory::Runtime};  // error entries only
  std::string message;                                     // error entries only
};

// Builder-style API over a caller-owned buffer: begin_result_batch resets it
// to the ResultBatch type byte, the append_* functions encode entries in
// place (no intermediate per-result vector), and the caller sends the buffer
// when its size crosses the flush bound or the lease ends.

/// Reset `batch` to an empty ResultBatch frame (just the type byte).
void begin_result_batch(std::vector<std::uint8_t>& batch);
/// True iff the batch holds no entries yet (nothing worth flushing).
bool result_batch_empty(const std::vector<std::uint8_t>& batch);
void append_result_ok_entry(std::vector<std::uint8_t>& batch, std::uint32_t index,
                            const ExperimentResult& result);
void append_result_error_entry(std::vector<std::uint8_t>& batch,
                               std::uint32_t index, WireErrorCategory category,
                               const std::string& message);
/// Decode every entry, in order. All-or-nothing: any malformed entry throws
/// DecodeError and yields no results, so runners requeue whole batches.
std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame);
/// Interned flavour: ok entries decode through the per-study interner.
/// nullptr behaves like the plain decode.
std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame, ResultInterner* interner);
/// Entry count by skipping over the length prefixes — no result decode.
/// Throws DecodeError on a malformed batch. Fault-injection harnesses use
/// this to count results inside batch frames cheaply.
std::size_t result_batch_entry_count(const std::vector<std::uint8_t>& frame);

std::vector<std::uint8_t> encode_shutdown_frame();

}  // namespace loki::runtime
