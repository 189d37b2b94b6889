// Wire identities for the built-in applications.
//
// Each built-in app serializes its parameter struct to a key=value args
// string and registers a constructor that parses it back, so experiments
// built by election_experiment / kvstore_experiment / token_ring_experiment
// can cross the wire format (runtime/serialize.hpp) and be re-instantiated
// in another process (`lokimeasure --worker --serve`).
//
// Call register_builtin_apps() once in any process that decodes
// ExperimentParams; registration is idempotent.
#pragma once

#include <string>

#include "apps/election.hpp"
#include "apps/kvstore.hpp"
#include "apps/token_ring.hpp"

namespace loki::apps {

/// Registered app names: "election", "kvstore", "token-ring".
void register_builtin_apps();

std::string encode_election_args(const ElectionParams& p);
ElectionParams parse_election_args(const std::string& args);

std::string encode_kvstore_args(const KvStoreParams& p);
KvStoreParams parse_kvstore_args(const std::string& args);

std::string encode_token_ring_args(const TokenRingParams& p);
TokenRingParams parse_token_ring_args(const std::string& args);

}  // namespace loki::apps
