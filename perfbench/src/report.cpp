#include "report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

namespace {

bool all_of_charset(const std::string& s, const char* extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x80) return false;
    return std::isalnum(u) != 0 || std::string(extra).find(c) != std::string::npos;
  });
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto first = static_cast<unsigned char>(name[0]);
  if (first >= 0x80 || std::isalnum(first) == 0) return false;
  return all_of_charset(name, "_.-");
}

bool valid_unit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && all_of_charset(unit, "_/%.-");
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name \"" + name + "\"");
  if (!valid_unit(unit))
    throw std::invalid_argument("bad unit \"" + unit + "\" for " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for " + name);
  for (const Metric& m : metrics_)
    if (m.name == name)
      throw std::invalid_argument("duplicate metric " + name);
  metrics_.push_back({name, value, unit});
}

std::string Report::to_json() const {
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  const std::uint64_t failed =
      attempted_ == 0 ? std::max<std::uint64_t>(failed_, 1) : failed_;
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
