#include "campaign/journal.hpp"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/cache.hpp"
#include "runtime/serialize.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

// The on-disk format, owned by this file alone: a 6-byte header — magic
// "LOKJ" + u16 kVersion — followed by a stream of self-checking records:
//
//   u8 type, u32 payload length, payload, u64 FNV-1a checksum
//
// The checksum covers the type byte, the length prefix and the payload, so
// a torn tail (the crash case the journal exists for) or a flipped bit is
// caught at the record boundary and load() treats everything from there on
// as unwritten. Records are versioned by the header, not individually: any
// layout change bumps kVersion and old journals are refused, not misread.

constexpr char kMagic[4] = {'L', 'O', 'K', 'J'};
/// Bump on ANY change to the header or a record layout.
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(kVersion);
/// Type byte and length prefix, then the checksum after the payload.
constexpr std::size_t kRecordHead = 1 + 4;
constexpr std::size_t kRecordOverhead = kRecordHead + 8;

enum class RecordType : std::uint8_t {
  CampaignBegin = 1,  // runner spec, seed, study count
  StudyBegin = 2,     // ordinal, name, content digest, experiment count
  IndexDone = 3,      // ordinal, experiment index, result cache key
  StudyEnd = 4,       // ordinal
  CampaignEnd = 5,    // (no payload)
};

/// FNV-1a over `size` bytes — 8 self-contained bytes per record is enough
/// to catch the torn tails and bit flips the journal must survive; the
/// cache keys inside the records carry the heavyweight (sha256) identity.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Append one framed record (type, length, payload, checksum) to `out`.
void put_record(RecordType type, const std::vector<std::uint8_t>& payload,
                std::vector<std::uint8_t>& out) {
  codec::Writer w(out);
  const std::size_t start = out.size();
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.u64(fnv1a(out.data() + start, out.size() - start));
}

int open_journal(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0)
    throw ConfigError("campaign journal: cannot open '" + path.string() +
                      "': " + std::strerror(errno));
  return fd;
}

/// Whole-file read for load(). The journal is small — a few dozen bytes per
/// experiment — and parsed once per resume.
std::vector<std::uint8_t> read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw ConfigError("campaign journal: cannot read '" + path.string() + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof())
    throw ConfigError("campaign journal: read of '" + path.string() +
                      "' failed");
  return bytes;
}

[[noreturn]] void malformed(const std::filesystem::path& path,
                            const std::string& what) {
  throw ConfigError("campaign journal '" + path.string() +
                    "': " + what +
                    " — this is not a torn tail but a malformed journal; "
                    "refusing to resume from it");
}

/// Framed length of the intact record at `bytes[pos]`; 0 when it is cut
/// short or fails its checksum — the torn tail of a mid-append crash.
std::size_t intact_record(const std::vector<std::uint8_t>& bytes,
                          std::size_t pos) {
  const std::size_t left = bytes.size() - pos;
  if (left < kRecordOverhead) return 0;
  codec::Reader r(bytes.data() + pos, left);
  r.u8();  // type
  const std::uint32_t length = r.u32();
  // Bound the length before trusting it: a corrupt prefix must not read
  // past the buffer.
  if (left - kRecordOverhead < length) return 0;
  r.skip(length);
  return r.u64() == fnv1a(bytes.data() + pos, kRecordHead + length)
             ? kRecordOverhead + length
             : 0;
}

}  // namespace

// --- writer ------------------------------------------------------------------

CampaignJournal::CampaignJournal(int fd, std::filesystem::path path,
                                 Options options, ResultCache* cache)
    : fd_(fd), path_(std::move(path)), options_(options), cache_(cache) {
  if (options_.group_records < 1)
    throw ConfigError("campaign journal: group_records must be >= 1, got " +
                      std::to_string(options_.group_records));
}

CampaignJournal CampaignJournal::create(const std::filesystem::path& path,
                                        Options options, ResultCache* cache) {
  CampaignJournal journal(open_journal(path, O_WRONLY | O_CREAT | O_TRUNC),
                          path, options, cache);
  // The header goes down durably before any record: a journal file either
  // identifies itself or is empty (the "killed at birth" case load()
  // treats as nothing-journaled).
  codec::Writer header(journal.pending_);
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u16(kVersion);
  journal.flush();
  return journal;
}

CampaignJournal CampaignJournal::append_to(const std::filesystem::path& path,
                                           const JournalState& state,
                                           Options options,
                                           ResultCache* cache) {
  if (!std::filesystem::exists(path))
    throw ConfigError("campaign journal: cannot resume, '" + path.string() +
                      "' does not exist");
  CampaignJournal journal(open_journal(path, O_WRONLY | O_APPEND), path,
                          options, cache);
  // Records appended behind a torn tail would sit past the tear, where the
  // next load() never reaches: cut the file back to its intact prefix
  // (durably) before the first append.
  if (state.truncated_tail &&
      (::ftruncate(journal.fd_, static_cast<off_t>(state.intact_bytes)) != 0 ||
       ::fsync(journal.fd_) != 0))
    throw std::runtime_error("campaign journal: cutting the torn tail of '" +
                             path.string() +
                             "' failed: " + std::strerror(errno));
  return journal;
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      options_(other.options_),
      cache_(other.cache_),
      pending_(std::move(other.pending_)),
      pending_records_(other.pending_records_) {
  other.fd_ = -1;
  other.pending_records_ = 0;
}

CampaignJournal::~CampaignJournal() {
  if (fd_ < 0) return;
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; the abort path already flushed.
  }
  ::close(fd_);
}

void CampaignJournal::flush() {
  if (pending_.empty()) return;
  // The ordering contract: every result a buffered IndexDone names is
  // durable before the record is. A failing sync throws, and nothing of
  // the group is written; the cache keeps failing every later sync, so no
  // retry here writes it either.
  if (cache_ != nullptr) cache_->sync();
  const std::uint8_t* p = pending_.data();
  std::size_t remaining = pending_.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("campaign journal: write to '" +
                               path_.string() +
                               "' failed: " + std::strerror(errno));
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0)
    throw std::runtime_error("campaign journal: fsync of '" + path_.string() +
                             "' failed: " + std::strerror(errno));
  pending_.clear();
  pending_records_ = 0;
}

// Every record but IndexDone is durable at once; IndexDone group-commits.

void CampaignJournal::campaign_begin(const std::string& runner_spec,
                                     std::uint64_t seed,
                                     std::uint32_t studies) {
  codec::Writer payload;
  payload.str(runner_spec);
  payload.u64(seed);
  payload.u32(studies);
  put_record(RecordType::CampaignBegin, payload.take(), pending_);
  flush();
}

void CampaignJournal::study_begin(std::uint32_t study, const std::string& name,
                                  const std::string& digest,
                                  std::uint32_t experiments) {
  codec::Writer payload;
  payload.u32(study);
  payload.str(name);
  payload.str(digest);
  payload.u32(experiments);
  put_record(RecordType::StudyBegin, payload.take(), pending_);
  flush();
}

void CampaignJournal::index_done(std::uint32_t study, std::uint32_t index,
                                 const std::string& result_key) {
  codec::Writer payload;
  payload.u32(study);
  payload.u32(index);
  payload.str(result_key);
  put_record(RecordType::IndexDone, payload.take(), pending_);
  if (++pending_records_ >= options_.group_records) flush();
}

void CampaignJournal::study_end(std::uint32_t study) {
  codec::Writer payload;
  payload.u32(study);
  put_record(RecordType::StudyEnd, payload.take(), pending_);
  flush();
}

void CampaignJournal::campaign_end() {
  put_record(RecordType::CampaignEnd, {}, pending_);
  flush();
}

// --- reader ------------------------------------------------------------------

JournalState CampaignJournal::load(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_all(path);
  JournalState state;
  // A file shorter than the header is the killed-at-birth crash shape:
  // nothing was journaled. Anything longer with a bad header is some other
  // file — refuse loudly.
  if (bytes.size() < kHeaderBytes) {
    state.truncated_tail = !bytes.empty();
    return state;
  }
  codec::Reader header(bytes.data(), kHeaderBytes);
  for (const char c : kMagic)
    if (header.u8() != static_cast<std::uint8_t>(c))
      throw ConfigError("campaign journal '" + path.string() +
                        "': bad magic (not a campaign journal)");
  if (const std::uint16_t version = header.u16(); version != kVersion)
    throw ConfigError("campaign journal '" + path.string() + "': version " +
                      std::to_string(version) + ", this build speaks only v" +
                      std::to_string(kVersion));

  std::size_t pos = kHeaderBytes;
  state.intact_bytes = pos;
  bool begun = false;
  while (pos < bytes.size()) {
    const std::size_t framed = intact_record(bytes, pos);
    if (framed == 0) {
      // Everything from the tear on is unwritten. (A flipped bit mid-file
      // also lands here and discards the suffix — the conservative reading,
      // since later records' meaning depends on the damaged one.)
      state.truncated_tail = true;
      break;
    }
    const std::uint8_t type = bytes[pos];
    // The checksum held, so the record was written as it reads: a payload
    // that does not fit its type is a malformed journal, not a tear.
    codec::Reader p(bytes.data() + pos + kRecordHead,
                    framed - kRecordOverhead);
    pos += framed;
    try {
      switch (static_cast<RecordType>(type)) {
        case RecordType::CampaignBegin:
          if (begun) malformed(path, "second CampaignBegin");
          begun = true;
          state.campaign_begun = true;
          state.runner_spec = p.str();
          state.seed = p.u64();
          state.studies = p.u32();
          break;
        case RecordType::StudyBegin: {
          if (!begun) malformed(path, "StudyBegin before CampaignBegin");
          if (const std::uint32_t ordinal = p.u32();
              ordinal != state.progress.size())
            malformed(path, "StudyBegin ordinal " + std::to_string(ordinal) +
                                " out of order");
          JournalState::StudyProgress progress;
          progress.name = p.str();
          progress.digest = p.str();
          progress.experiments = p.u32();
          state.progress.push_back(std::move(progress));
          break;
        }
        case RecordType::IndexDone: {
          if (state.progress.empty() || p.u32() != state.progress.size() - 1)
            malformed(path, "IndexDone outside its study");
          JournalState::StudyProgress& progress = state.progress.back();
          if (progress.ended) malformed(path, "IndexDone after StudyEnd");
          // The coordinator journals in emit order, so indices are
          // contiguous from 0; anything else means the file was edited or
          // interleaved.
          const std::uint32_t index = p.u32();
          if (index != progress.done_keys.size())
            malformed(path, "IndexDone index " + std::to_string(index) +
                                " breaks the contiguous emit order (expected " +
                                std::to_string(progress.done_keys.size()) +
                                ")");
          if (index >= progress.experiments)
            malformed(path,
                      "IndexDone index past the study's experiment count");
          progress.done_keys.push_back(p.str());
          break;
        }
        case RecordType::StudyEnd: {
          if (state.progress.empty() || p.u32() != state.progress.size() - 1)
            malformed(path, "StudyEnd outside its study");
          JournalState::StudyProgress& progress = state.progress.back();
          if (progress.ended) malformed(path, "double StudyEnd");
          if (progress.done_keys.size() != progress.experiments)
            malformed(path, "StudyEnd with " +
                                std::to_string(progress.done_keys.size()) +
                                " of " + std::to_string(progress.experiments) +
                                " indices journaled");
          progress.ended = true;
          break;
        }
        case RecordType::CampaignEnd:
          if (!begun) malformed(path, "CampaignEnd before CampaignBegin");
          if (state.progress.size() != state.studies ||
              (!state.progress.empty() && !state.progress.back().ended))
            malformed(path, "CampaignEnd before every study ended");
          if (pos != bytes.size()) malformed(path, "records after CampaignEnd");
          state.campaign_done = true;
          break;
        default:
          malformed(path, "unknown record type " + std::to_string(type));
      }
      p.expect_done();
    } catch (const codec::DecodeError& e) {
      malformed(path, std::string("record payload does not fit its type: ") +
                          e.what());
    }
    state.intact_bytes = pos;
  }
  return state;
}

// --- study digest ------------------------------------------------------------

std::string study_digest(const runtime::StudyParams& study) {
  const std::string ingredients =
      study.name + "\n" + std::to_string(study.experiments) + "\n" +
      (study.experiments > 0
           ? runtime::experiment_cache_key(study.make_params(0))
           : std::string("empty"));
  return util::sha256_hex(ingredients.data(), ingredients.size());
}

}  // namespace loki::campaign
