#include "core/improved_deec.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/deec.hpp"
#include "geom/spatial_grid.hpp"

namespace qlec {

double deec_energy_threshold(double initial_energy, int r, int total_rounds) {
  if (total_rounds <= 0) return 0.0;
  const double frac = std::clamp(
      static_cast<double>(r) / static_cast<double>(total_rounds), 0.0, 1.0);
  return (1.0 - frac * frac) * std::max(initial_energy, 0.0);
}

std::vector<int> improved_deec_elect(Network& net,
                                     const ImprovedDeecConfig& cfg, int round,
                                     Rng& rng, double death_line,
                                     ElectionStats* stats) {
  ElectionStats local;
  net.reset_heads();

  const double avg =
      cfg.use_estimated_average
          ? deec_avg_energy_estimate(net.total_initial_energy(), net.size(),
                                     round, cfg.total_rounds)
          : net.mean_residual_alive(death_line);

  // Pass 1 — RNG-free classification: per node, the alive flag, the Eq. 4
  // / rotation eligibility, and the draw threshold T(b_i). Kept apart from
  // the draw because the top-up pass below reuses `eligible`.
  const std::size_t n_nodes = net.size();
  std::vector<std::uint8_t> alive_flag(n_nodes, 0);
  std::vector<std::uint8_t> eligible(n_nodes, 0);
  std::vector<double> thr(n_nodes, 0.0);
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    const SensorNode& n = net.node(static_cast<int>(i));
    if (!n.operational(death_line)) continue;
    alive_flag[i] = 1;
    const double p_i =
        deec_probability(cfg.p_opt, n.battery.residual(), avg);
    if (!deec_eligible(n.last_head_round, round, p_i)) continue;
    // Eq. 4 restriction: too drained to serve. Qualification is non-strict
    // (residual >= threshold): at round 0 the threshold equals the full
    // initial energy, and a paper-literal strict test would disqualify
    // every fresh node.
    if (cfg.use_energy_threshold &&
        n.battery.residual() < deec_energy_threshold(n.battery.initial(),
                                                     round,
                                                     cfg.total_rounds))
      continue;
    eligible[i] = 1;
    thr[i] = deec_threshold(p_i, round);
  }

  // Pass 2 — the draw, strictly serial in id order: every rng.uniform01()
  // is consumed for exactly the eligible nodes, in exactly the order the
  // single-loop election consumed them.
  std::vector<int> elected;
  int best_fallback = kBaseStationId;
  double best_energy = -1.0;
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    if (!alive_flag[i]) continue;
    ++local.alive;
    SensorNode& n = net.node(static_cast<int>(i));
    if (n.battery.residual() > best_energy) {
      best_energy = n.battery.residual();
      best_fallback = n.id;
    }
    if (!eligible[i]) continue;
    ++local.eligible;
    if (rng.uniform01() < thr[i]) {
      n.is_head = true;  // provisional until Algorithm 3 runs
      elected.push_back(n.id);
    }
  }
  local.elected = static_cast<int>(elected.size());

  // Algorithm 3 — Reduce-Redundancy: each provisional head broadcasts a
  // HELLO with its energy to everything within d_c; a head hearing a HELLO
  // from a strictly richer neighbour head quits. Ties break on id so the
  // outcome is deterministic.
  if (cfg.reduce_redundancy && cfg.coverage_radius > 0.0 &&
      elected.size() > 1) {
    std::vector<Vec3> head_pos;
    head_pos.reserve(elected.size());
    for (const int id : elected) head_pos.push_back(net.node(id).pos);
    const SpatialGrid grid(head_pos, cfg.coverage_radius);
    const std::size_t m = elected.size();

    // In index order, head i quits on the first richer neighbour (ties by
    // id) within d_c that has not itself quit, in the grid's walk order.
    std::vector<bool> removed(m, false);
    for (std::size_t i = 0; i < m; ++i) {
      const double e_i = net.node(elected[i]).battery.residual();
      for (const std::size_t j : grid.neighbours_of(i, cfg.coverage_radius)) {
        if (removed[j]) continue;  // a head that quit no longer competes
        const double e_j = net.node(elected[j]).battery.residual();
        if (e_j > e_i || (e_j == e_i && elected[j] < elected[i])) {
          removed[i] = true;
          ++local.pruned;
          break;
        }
      }
    }
    std::vector<int> kept;
    kept.reserve(elected.size());
    for (std::size_t i = 0; i < elected.size(); ++i) {
      if (removed[i]) {
        net.node(elected[i]).is_head = false;
      } else {
        kept.push_back(elected[i]);
      }
    }
    elected.swap(kept);
  }

  // Replacement rule from Section 3.1 ("choose another node up to the
  // demand"): top the head set up to k = round(p_opt * N) with the
  // highest-energy qualified nodes, preferring ones outside d_c of any
  // existing head so the redundancy invariant is preserved.
  if (cfg.top_up_to_k) {
    const auto target_k = static_cast<std::size_t>(std::max<long long>(
        1, std::llround(cfg.p_opt * static_cast<double>(net.size()))));
    if (elected.size() < target_k) {
      // Candidates sorted by residual energy, richest first. Pass 1 already
      // decided rotation/Eq. 4 eligibility and nothing it reads (batteries,
      // last_head_round) has changed since, so reuse it; only the is_head
      // flags moved (election + pruning), and those are filtered here.
      std::vector<int> candidates;
      for (std::uint32_t i = 0; i < n_nodes; ++i) {
        if (!eligible[i] || net.node(static_cast<int>(i)).is_head) continue;
        candidates.push_back(static_cast<int>(i));
      }
      std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
        return net.node(a).battery.residual() >
               net.node(b).battery.residual();
      });
      for (const int id : candidates) {
        if (elected.size() >= target_k) break;
        if (cfg.reduce_redundancy && cfg.coverage_radius > 0.0) {
          bool covered = false;
          for (const int h : elected) {
            if (net.dist(id, h) <= cfg.coverage_radius) {
              covered = true;
              break;
            }
          }
          if (covered) continue;
        }
        net.node(id).is_head = true;
        elected.push_back(id);
        ++local.drafted;
      }
    }
  }

  // Never leave the round headless — draft the highest-energy alive node.
  if (elected.empty() && best_fallback != kBaseStationId) {
    net.node(best_fallback).is_head = true;
    elected.push_back(best_fallback);
    local.used_fallback = true;
  }

  std::sort(elected.begin(), elected.end());
  for (const int id : elected) net.node(id).last_head_round = round;
  local.final_heads = static_cast<int>(elected.size());
  if (stats != nullptr) *stats = local;
  return elected;
}

}  // namespace qlec
