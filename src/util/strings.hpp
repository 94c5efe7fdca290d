// Small string helpers shared across modules.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slmob {

// Splits `input` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> split(std::string_view input, char delim);

// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view input);

bool starts_with(std::string_view text, std::string_view prefix);

// Case-insensitive ASCII comparison (for HTTP header names).
bool iequals(std::string_view a, std::string_view b);

// Parses a non-negative integer; returns -1 on malformed input.
long long parse_non_negative_int(std::string_view text);

// Parses a finite floating-point number; like parse_non_negative_int, the
// whole (trimmed) text must be consumed. nullopt on malformed input such as
// "abc" or "10x", and on "inf", "nan" or out-of-range values like "1e999".
std::optional<double> parse_finite_double(std::string_view text);

}  // namespace slmob
