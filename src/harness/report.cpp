#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "trace/trace.hpp"

namespace svmsim::harness {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::cout << to_string() << std::flush; }

void Table::write_csv(const std::string& path) const {
  std::ostringstream out;
  out << "# build: " << trace::build_provenance() << '\n';
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      // Quote only when needed.
      if (row[c].find(',') != std::string::npos) {
        out << '"' << row[c] << '"';
      } else {
        out << row[c];
      }
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  write_file_atomic(path, out.str());
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void maybe_write_csv(const Table& table, const std::string& csv_dir,
                     const std::string& name) {
  if (csv_dir.empty()) return;
  table.write_csv(csv_dir + "/" + name + ".csv");
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    out << content;
    if (!out) throw std::runtime_error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename to " + path + " failed");
  }
}

}  // namespace svmsim::harness
