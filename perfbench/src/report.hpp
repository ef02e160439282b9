// Order statistics and the one-line JSON result every benchmark run prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it (sorted[ceil(p/100 * n) - 1]). `p` in (0, 100];
/// an empty sample set yields 0.
double percentile(std::vector<double> samples, double p);

/// percentile(samples, 50).
double median(std::vector<double> samples);

/// Metric names: start with a letter or digit, then up to 63 more letters,
/// digits, '_', '.' or '-'.
bool valid_metric_name(const std::string& name);

/// Units: 1..16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(const std::string& unit);

/// Operation counts plus named metrics, rendered as the result line
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
///    {"value": .., "unit": ..}, ...}}
/// Every check is an operation; one that fails is recorded (and reported on
/// stderr) as a failed one, so `failed` never exceeds `attempted`.
class Report {
 public:
  /// Counts one operation; `ok == false` also counts it as failed and logs
  /// `what`.
  void attempt(bool ok, const std::string& what = "");
  /// Adds a metric; throws std::invalid_argument for a bad name, a bad
  /// unit, a duplicate name or a non-finite value.
  void metric(const std::string& name, double value, const std::string& unit);

  /// The result line (no trailing newline). `attempted` is at least 1 so
  /// a run that never got to its first operation still reads as failed.
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
