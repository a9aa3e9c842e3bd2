#ifndef OXML_COMMON_STRINGS_H_
#define OXML_COMMON_STRINGS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace oxml {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates `parts`, appending each in place. Use it instead of
/// "literal" + std::string: GCC 12 at -O3 inlines that operator+ into an
/// insert at offset 0 and reports a false -Wrestrict overlap, which fails
/// a -Werror Release build.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Splits `s` on the single character `sep`; no trimming, keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Returns a copy with leading/trailing ASCII whitespace removed.
std::string Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII lower-casing (SQL keywords, tag comparisons are ASCII here).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Escapes a string for embedding into a single-quoted SQL literal
/// (doubles embedded quotes): abc'd -> 'abc''d'.
std::string SqlQuote(std::string_view s);

/// Hex dump of a binary string, e.g. "0a1f".
std::string ToHex(std::string_view s);

}  // namespace oxml

#endif  // OXML_COMMON_STRINGS_H_
