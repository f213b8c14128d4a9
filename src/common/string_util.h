#ifndef OOINT_COMMON_STRING_UTIL_H_
#define OOINT_COMMON_STRING_UTIL_H_

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ooint {

namespace strcat_internal {

template <typename T>
inline constexpr bool kIsStringLike =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<std::decay_t<T>, const char*> ||
    std::is_same_v<std::decay_t<T>, char*>;

/// The integer types to_chars renders exactly as operator<< does.
template <typename T>
inline constexpr bool kIsFastInteger =
    std::is_same_v<T, int> || std::is_same_v<T, unsigned int> ||
    std::is_same_v<T, long> || std::is_same_v<T, unsigned long> ||
    std::is_same_v<T, long long> || std::is_same_v<T, unsigned long long>;

/// Appends `value` as operator<< on a default std::ostringstream would
/// render it. Strings, char and the int/long/long long types are
/// appended directly; every other type (bool, signed/unsigned char,
/// short, floating point, ...) goes through a stream.
template <typename T>
void Append(std::string* out, const T& value) {
  if constexpr (kIsStringLike<T>) {
    out->append(std::string_view(value));
  } else if constexpr (std::is_same_v<T, char>) {
    out->push_back(value);
  } else if constexpr (kIsFastInteger<T>) {
    char digits[24];
    const std::to_chars_result end =
        std::to_chars(digits, digits + sizeof(digits), value);
    out->append(digits, end.ptr);
  } else {
    std::ostringstream oss;
    oss << value;
    out->append(oss.str());
  }
}

}  // namespace strcat_internal

/// Concatenates the streamable arguments into one std::string, rendering
/// each exactly as operator<< would.
/// StrCat("class ", name, " has ", n, " attributes")
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strcat_internal::Append(&out, args), ...);
  return out;
}

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on every occurrence of `sep` (single character). Keeps
/// empty fields, so Split("a..b", '.') == {"a", "", "b"}.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` begins with `prefix` / ends with `suffix`.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// True if every character of `text` satisfies the identifier charset
/// [A-Za-z0-9_#-] and text is non-empty and does not start with a digit.
/// Identifiers name schemas, classes, attributes and aggregation functions
/// (the paper uses names like "ssn#", "car-name" and "niece_nephew", hence
/// '#' and '-' are allowed).
bool IsIdentifier(std::string_view text);

}  // namespace ooint

#endif  // OOINT_COMMON_STRING_UTIL_H_
