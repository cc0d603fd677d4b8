// Table and CSV output for the bench harness: prints the rows/series the
// paper's tables and figures report.
#pragma once

#include <string>
#include <vector>

namespace svmsim::harness {

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Render to stdout.
  void print() const;
  /// Write as CSV to `path` (parent directory must exist). The first line
  /// is a `# build: ...` provenance comment (git revision, sanitize/trace
  /// gates); data rows start at line 2.
  void write_csv(const std::string& path) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

[[nodiscard]] std::string fmt(double v, int precision = 2);

/// If `csv_dir` is non-empty, write `table` to `<csv_dir>/<name>.csv`.
void maybe_write_csv(const Table& table, const std::string& csv_dir,
                     const std::string& name);

/// Write `content` to `path` via a sibling temp file and an atomic rename,
/// so readers (and a crashed writer) never observe a half-written file.
/// Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace svmsim::harness
