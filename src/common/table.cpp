#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace dcs {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  DCS_CHECK(!header_.empty());
}

Table& Table::add_row(std::vector<std::string> cells) {
  DCS_CHECK_MSG(cells.size() == header_.size(), "row width must match header");
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::add_row(const std::string& label, const std::vector<double>& values,
                      int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt_fixed(v, precision));
  return add_row(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c] << std::string(width[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      out << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
    }
    out << "-|\n";
  };

  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(const std::string& title) const {
  std::printf("\n=== %s ===\n%s", title.c_str(), to_string().c_str());
  std::fflush(stdout);
}

}  // namespace dcs
