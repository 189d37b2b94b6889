#include "campaign/cache.hpp"

#include <fstream>
#include <utility>
#include <vector>

#include "runtime/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

bool is_hex_key(const std::string& key) {
  if (key.size() != 64) return false;
  for (const char c : key)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw ConfigError("ResultCache: cannot create directory '" +
                      dir_.string() + "': " + ec.message());
}

std::filesystem::path ResultCache::path_of(const std::string& key) const {
  if (!is_hex_key(key))
    throw ConfigError("ResultCache: malformed key '" + key +
                      "' (expected 64 hex chars)");
  return dir_ / (key + ".result");
}

bool ResultCache::contains(const std::string& key) {
  std::error_code ec;
  const bool present = std::filesystem::exists(path_of(key), ec) && !ec;
  if (!present) {
    util::MutexLock lock(mu_);
    ++stats_.misses;
  }
  return present;
}

std::optional<runtime::ExperimentResult> ResultCache::lookup(
    const std::string& key) {
  const auto miss = [this] {
    util::MutexLock lock(mu_);
    ++stats_.misses;
  };
  const std::filesystem::path path = path_of(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    miss();
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    miss();
    return std::nullopt;
  }
  try {
    runtime::ExperimentResult result = runtime::decode_experiment_result(bytes);
    util::MutexLock lock(mu_);
    ++stats_.hits;
    return result;
  } catch (const codec::DecodeError&) {
    // Torn or foreign-version file. Not a plain miss: quarantine it so the
    // re-run's store() publishes fresh bytes instead of racing the damaged
    // file, and so Stats make a rotting store visible. The quarantined copy
    // keeps the evidence for a post-mortem.
    try {
      util::rename_path(path, dir_ / (key + ".corrupt"));
    } catch (const util::WriteError&) {
      // The entry vanished between read and rename — already gone.
    }
    util::MutexLock lock(mu_);
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
}

void ResultCache::store(const std::string& key,
                        const runtime::ExperimentResult& result) {
  const std::filesystem::path path = path_of(key);
  const std::vector<std::uint8_t> bytes =
      runtime::encode_experiment_result(result);
  // Durable publish: temp, write, fsync, atomic rename. Concurrent writers
  // of the same key never collide (unique temp names) and any winner's
  // bytes are correct for the key. The fsync is what lets the campaign
  // journal treat a journaled index as replayable: IndexDone is only
  // written after this returns, so a journaled key always has durable
  // bytes behind it.
  try {
    util::atomic_write_file(path, bytes.data(), bytes.size());
  } catch (const util::WriteError& e) {
    throw CacheError("ResultCache: store of key " + key +
                     " failed: " + e.what());
  }
  util::MutexLock lock(mu_);
  ++stats_.stores;
}

}  // namespace loki::campaign
