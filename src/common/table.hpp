// Paper-style text tables for benchmark output.
//
// Each bench binary prints the rows/series of the figure it reproduces using
// this formatter so outputs are uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace dcs {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision (fmt_fixed).
  Table& add_row(const std::string& label, const std::vector<double>& values,
                 int precision = 2);

  std::string to_string() const;
  /// Prints to stdout with a title banner.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dcs
