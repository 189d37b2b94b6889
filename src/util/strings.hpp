// Small string helpers used by the specification-file parsers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace loki {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Split on a single character delimiter; keeps empty fields.
std::vector<std::string> split_char(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse helpers returning nullopt on malformed input (never throw).
std::optional<std::int64_t> parse_i64(std::string_view s);
std::optional<std::uint32_t> parse_u32(std::string_view s);
std::optional<std::uint64_t> parse_u64(std::string_view s);
std::optional<double> parse_f64(std::string_view s);

/// Join with a separator, e.g. join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Uppercase copy (ASCII); used for case-insensitive keywords.
std::string to_upper(std::string_view s);

/// A valid Loki identifier: [A-Za-z_][A-Za-z0-9_.-]*  (state machine
/// nicknames, state names, event names, fault names).
bool is_identifier(std::string_view s);

}  // namespace loki
