// lint-fixture-path: src/campaign/dirty_campaign_example.cpp
// Golden fixture for the raw-write rule: campaign-layer code writing durable
// files outside the journal's and cache segments' append-only, synced fds.
// Not compiled — the self-test compares its findings with expected.txt.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

void bad_persist(const std::string& path) {
  std::ofstream out(path);  // torn file if the coordinator dies mid-write
  out << "index-v1";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fclose(f);
  std::filesystem::rename(path + ".tmp", path);  // rename without fsync
}

void fine_read(const std::string& path) {
  std::ifstream in(path);  // reads are outside the durability contract
  std::string line;
  std::getline(in, line);
}

void justified(const std::string& path) {
  // loki-lint: allow(raw-write, debug dump only; never read back or resumed)
  std::ofstream dump(path + ".debug");
}
