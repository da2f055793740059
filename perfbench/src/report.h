// The result line and the small statistics helpers every workload uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Figures of one workload only, printed as "# name value unit" lines: the
  // result line holds the metrics every workload reports, so that one
  // manifest lists them all.
  std::vector<Metric> notes;
  std::vector<std::string> problems;  // failed checks, one line each

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a check outcome: an empty reason means the check held.
  void check(const std::string& reason) {
    if (reason.empty()) return;
    correct = false;
    problems.push_back(reason);
  }
};

// The result as one JSON object on one line.
std::string to_json_line(const Result& r);
// A workload-only figure as a "# name value unit" line.
std::string to_note_line(const Metric& m);

// Exact quantile of the samples (nearest rank); 0 when empty. Sorts `v`.
double quantile(std::vector<double>& v, double q);
// The middle sample, or the mean of the two middle ones; 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
