// The one command-line reader: every bench main, `dcs` and `dcs-lint`
// read their arguments here and nowhere else.
//
// Grammar.  A token is
//   - a declared switch (e.g. `--self-check`, `--help`, `-h`), at any
//     position;
//   - `--key=value`;
//   - `--key value`, when the next token neither starts with `--` nor is a
//     declared switch (so `--alpha -1` reads `-1`); otherwise `--key` has
//     no value;
//   - a positional, when it does not start with `-`;
//   - anything else is stray.
// A key given twice takes its last value.  A binary reads every key it
// knows and then calls reject_unread(), which exits 2 naming the first
// unknown, valueless or stray token, so a typo never runs with a silently
// substituted default.
//
// Malformed values never escape as an exception or a wrapped unsigned
// number: the getters and the *_flag checkers print a message naming the
// flag on stderr and exit with status 2.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcs {

/// A non-negative decimal integer that fits in 64 bits; nullopt for
/// anything else (empty, signed, trailing characters, overflow).
std::optional<std::uint64_t> parse_count(std::string_view text);

/// A finite decimal real; nullopt for anything else.
std::optional<double> parse_real(std::string_view text);

/// parse_count / parse_real of `flag`'s value, exiting 2 with a message
/// naming the flag when the value is malformed or below `min` (a count
/// also when above `max`, so that a caller storing it in a narrower type
/// never wraps).
std::uint64_t count_flag(std::string_view flag, std::string_view text,
                         std::uint64_t min = 0, std::uint64_t max = UINT64_MAX);
double real_flag(std::string_view flag, std::string_view text,
                 double min = -HUGE_VAL);
/// `text` when it is one of `names`; otherwise exits 2 with a message
/// naming the flag and every accepted name.
std::string_view choice_flag(std::string_view flag, std::string_view text,
                             std::initializer_list<std::string_view> names);

/// The arguments argv[1..argc) of one binary, read by flag name as typed
/// (`"--nodes"`).  Every getter marks what it reads.
class Args {
 public:
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> switches = {});

  /// The count given for `flag`, if any; a value outside [min, max] exits
  /// 2.  `max` defaults to T's largest value, so the narrowing to T is
  /// exact.
  template <std::integral T>
  std::optional<T> count(std::string_view flag, std::uint64_t min = 0,
                         std::uint64_t max =
                             std::numeric_limits<T>::max()) const {
    const std::string* v = find(flag);
    if (v == nullptr) return std::nullopt;
    return static_cast<T>(count_flag(flag, *v, min, max));
  }
  double real(std::string_view flag, double fallback,
              double min = -HUGE_VAL) const;
  /// The value of `flag` (the first name when absent); any name not in
  /// `names` exits 2.
  std::string choice(std::string_view flag,
                     std::initializer_list<std::string_view> names) const;
  std::string text(std::string_view flag, std::string fallback = {}) const;
  /// Whether the declared switch `name` was given.
  bool given(std::string_view name) const;
  /// The next unread positional, in order.
  std::optional<std::string> positional() const;

  /// Exits 2 naming the first token no getter read, a read flag with no
  /// value, or a stray token.
  void reject_unread() const;

 private:
  struct Token {
    enum Kind { kFlag, kSwitch, kPositional, kStray } kind;
    std::string text;  // as typed; a flag's without its `=value`
    std::optional<std::string> value;
    mutable bool read = false;
  };
  /// The last value given for `flag`; marks every `flag` token read.
  const std::string* find(std::string_view flag) const;

  std::string program_;
  std::vector<Token> tokens_;
};

}  // namespace dcs
