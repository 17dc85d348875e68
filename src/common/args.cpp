#include "common/args.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace dcs {

namespace {

[[noreturn]] void bad_value(std::string_view flag, std::string_view text,
                            const char* expected) {
  std::fprintf(stderr, "%.*s: expected %s, got '%.*s'\n",
               static_cast<int>(flag.size()), flag.data(), expected,
               static_cast<int>(text.size()), text.data());
  std::exit(2);
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_real(std::string_view text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::uint64_t count_flag(std::string_view flag, std::string_view text,
                         std::uint64_t min, std::uint64_t max) {
  const auto v = parse_count(text);
  if (!v) bad_value(flag, text, "a non-negative integer");
  if (*v < min) {
    const std::string expected = "an integer >= " + std::to_string(min);
    bad_value(flag, text, expected.c_str());
  }
  if (*v > max) {
    const std::string expected = "an integer <= " + std::to_string(max);
    bad_value(flag, text, expected.c_str());
  }
  return *v;
}

double real_flag(std::string_view flag, std::string_view text, double min) {
  const auto v = parse_real(text);
  if (!v) bad_value(flag, text, "a finite number");
  if (*v < min) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "a number >= %g", min);
    bad_value(flag, text, expected);
  }
  return *v;
}

std::string_view choice_flag(std::string_view flag, std::string_view text,
                             std::initializer_list<std::string_view> names) {
  std::string expected;
  for (const std::string_view name : names) {
    if (name == text) return text;
    expected += expected.empty() ? "one of " : "|";
    expected += name;
  }
  bad_value(flag, text, expected.c_str());
}

Args::Args(int argc, const char* const* argv,
           std::initializer_list<std::string_view> switches) {
  const std::string_view path = argc > 0 ? argv[0] : "";
  program_ = path.substr(path.rfind('/') + 1);
  const auto is_switch = [&](std::string_view s) {
    return std::find(switches.begin(), switches.end(), s) != switches.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view key = arg.substr(0, arg.find('='));
    Token t{Token::kFlag, std::string(key), std::nullopt};
    if (is_switch(arg)) {
      t.kind = Token::kSwitch;
    } else if (!arg.starts_with("--") || is_switch(key)) {
      t.kind = arg.starts_with("-") ? Token::kStray : Token::kPositional;
      t.text = arg;
    } else if (key.size() < arg.size()) {
      t.value = arg.substr(key.size() + 1);
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--") &&
               !is_switch(argv[i + 1])) {
      t.value = argv[++i];
    }
    tokens_.push_back(std::move(t));
  }
}

const std::string* Args::find(std::string_view flag) const {
  const std::string* last = nullptr;
  for (const Token& t : tokens_) {
    if (t.kind != Token::kFlag || t.text != flag) continue;
    t.read = true;
    if (t.value) last = &*t.value;
  }
  return last;
}

double Args::real(std::string_view flag, double fallback, double min) const {
  const std::string* v = find(flag);
  return v != nullptr ? real_flag(flag, *v, min) : fallback;
}

std::string Args::choice(std::string_view flag,
                         std::initializer_list<std::string_view> names) const {
  const std::string* v = find(flag);
  return std::string(v != nullptr ? choice_flag(flag, *v, names)
                                  : *names.begin());
}

std::string Args::text(std::string_view flag, std::string fallback) const {
  const std::string* v = find(flag);
  return v != nullptr ? *v : fallback;
}

bool Args::given(std::string_view name) const {
  bool given = false;
  for (const Token& t : tokens_) {
    if (t.kind != Token::kSwitch || t.text != name) continue;
    t.read = true;
    given = true;
  }
  return given;
}

std::optional<std::string> Args::positional() const {
  for (const Token& t : tokens_) {
    if (t.kind != Token::kPositional || t.read) continue;
    t.read = true;
    return t.text;
  }
  return std::nullopt;
}

void Args::reject_unread() const {
  for (const Token& t : tokens_) {
    const bool flag = t.kind == Token::kFlag || t.kind == Token::kSwitch;
    const char* problem = nullptr;
    if (!t.read) {
      problem = flag ? "unknown flag" : "unexpected argument";
    } else if (t.kind == Token::kFlag && !t.value) {
      problem = "missing value for";
    }
    if (problem == nullptr) continue;
    std::fprintf(stderr, "%s: %s '%s'\n", program_.c_str(), problem,
                 t.text.c_str());
    std::exit(2);
  }
}

}  // namespace dcs
