#include "net/link.hpp"

#include <algorithm>
#include <cmath>

namespace qlec {

double LinkModel::success_probability(double d) const noexcept {
  if (d <= 0.0) return 1.0;
  const double ratio = d / (d_ref > 0.0 ? d_ref : 1.0);
  return std::max(p_floor, std::exp(-ratio * ratio));
}

double LinkModel::bs_success_probability(double d) const noexcept {
  const double p = success_probability(d);
  return 1.0 - (1.0 - p) * std::clamp(bs_reliability_factor, 0.0, 1.0);
}

bool LinkModel::attempt(double d, Rng& rng) const noexcept {
  return rng.bernoulli(success_probability(d));
}

LinkEstimator::LinkEstimator(std::size_t window, double prior_successes,
                             double prior_attempts) noexcept
    : window_(std::clamp<std::size_t>(window, 1, 64)),
      prior_s_(std::max(prior_successes, 0.0)),
      prior_n_(std::max(prior_attempts, 1e-9)) {}

namespace {

// Packs a (from, to) pair for the negative-id fallback map; ids are shifted
// so the BS sentinel (-1) maps cleanly.
std::uint64_t pair_key(int from, int to) noexcept {
  const auto f = static_cast<std::uint64_t>(static_cast<std::uint32_t>(from + 2));
  const auto t = static_cast<std::uint64_t>(static_cast<std::uint32_t>(to + 2));
  return (f << 32) | t;
}

}  // namespace

void LinkEstimator::push_outcome(Window& w, bool success) noexcept {
  if (w.count == window_) {
    // Evict the oldest outcome (highest tracked bit).
    const std::uint64_t oldest = (w.bits >> (window_ - 1)) & 1ULL;
    w.successes -= static_cast<std::size_t>(oldest);
    w.bits &= ~(1ULL << (window_ - 1));
  } else {
    ++w.count;
  }
  w.bits = (w.bits << 1) | static_cast<std::uint64_t>(success ? 1 : 0);
  w.successes += static_cast<std::size_t>(success ? 1 : 0);
}

const LinkEstimator::Window* LinkEstimator::find(int from,
                                                 int to) const noexcept {
  if (from < 0) {
    const auto it = other_.find(pair_key(from, to));
    return it == other_.end() ? nullptr : &it->second;
  }
  const auto src = static_cast<std::size_t>(from);
  if (src >= by_src_.size()) return nullptr;
  for (const Entry& e : by_src_[src])
    if (e.to == to) return &e.w;
  return nullptr;
}

void LinkEstimator::record(int from, int to, bool success) {
  if (from < 0) {
    push_outcome(other_[pair_key(from, to)], success);
    return;
  }
  const auto src = static_cast<std::size_t>(from);
  if (src >= by_src_.size()) by_src_.resize(src + 1);
  for (Entry& e : by_src_[src]) {
    if (e.to == to) {
      push_outcome(e.w, success);
      return;
    }
  }
  by_src_[src].push_back(Entry{to, Window{}});
  push_outcome(by_src_[src].back().w, success);
}

double LinkEstimator::estimate(int from, int to) const {
  const Window* w = find(from, to);
  return w == nullptr ? prior_s_ / prior_n_ : window_estimate(*w);
}

void LinkEstimator::fill_estimates(int from, const int* targets,
                                   std::size_t n, double* out) const {
  if (from < 0) {  // side-map sources: no per-source list to walk
    for (std::size_t i = 0; i < n; ++i) out[i] = estimate(from, targets[i]);
    return;
  }
  std::fill_n(out, n, prior_s_ / prior_n_);
  const auto src = static_cast<std::size_t>(from);
  if (src >= by_src_.size()) return;
  for (const Entry& e : by_src_[src]) {
    const double p = window_estimate(e.w);
    for (std::size_t i = 0; i < n; ++i)
      if (targets[i] == e.to) out[i] = p;
  }
}

std::size_t LinkEstimator::observations(int from, int to) const {
  const Window* w = find(from, to);
  return w == nullptr ? 0 : w->count;
}

void LinkEstimator::clear() {
  by_src_.clear();
  other_.clear();
}

}  // namespace qlec
