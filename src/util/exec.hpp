// Intra-round execution context for the sharded round core (DESIGN.md §12).
//
// A round's RNG-free per-node phases — election precompute, nearest-head
// assignment — fan out over spatial region shards through this context;
// everything RNG-consuming or order-sensitive stays on the calling thread
// and merges shard results in canonical (node-id or head-index) order. The
// determinism contract: changing the shard count (including to 1) or the
// pool width must never change a single bit of simulation output — sharded
// phases perform only disjoint per-node writes of values that are
// themselves shard-invariant.
//
// This reuses the ExecPolicy machinery one level down: the simulator owns a
// dedicated pool per run (ExecPolicy::pool semantics) precisely so a SimRun
// executing inside the *seed* fan-out pool never schedules shard tasks onto
// the pool it is itself running on (nested parallel_for on one pool can
// deadlock); a null pool runs every shard inline on the caller
// (ExecPolicy::serial semantics, used by tests to prove shard-count
// invariance without threads).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.hpp"

namespace qlec {

/// Config-facing knobs ("sim.exec" in the JSON schema).
struct ExecOptions {
  /// Spatial shards per round phase. 1 = the fully serial round core
  /// (default); > 1 fans RNG-free phases across an internal pool sized
  /// min(shards, hardware). Any value produces bit-identical output.
  int shards = 1;

  friend bool operator==(const ExecOptions&, const ExecOptions&) = default;
};

class ExecContext {
 public:
  /// `pool` may be null (shards run inline, same decomposition); it is
  /// borrowed and must outlive this context.
  ExecContext(ThreadPool* pool, int shards)
      : pool_(pool), shards_(std::max(1, shards)) {}

  int shards() const noexcept { return shards_; }

  /// Installs this round's node partition (disjoint cover of [0, n_nodes);
  /// see geom/region_shards.hpp).
  void begin_round(std::vector<std::vector<std::uint32_t>> partition,
                   std::size_t n_nodes) {
    partition_ = std::move(partition);
    shard_of_.assign(n_nodes, 0);
    for (std::size_t s = 0; s < partition_.size(); ++s)
      for (const std::uint32_t id : partition_[s])
        shard_of_[id] = static_cast<std::uint32_t>(s);
  }

  bool has_partition() const noexcept { return !partition_.empty(); }
  const std::vector<std::uint32_t>& shard_nodes(int s) const {
    return partition_[static_cast<std::size_t>(s)];
  }
  int shard_of(std::uint32_t node) const {
    return static_cast<int>(shard_of_[node]);
  }

  /// Runs fn(shard) for every shard — on the pool when present, inline
  /// otherwise. Blocks until all complete; exceptions propagate (first one
  /// wins, matching ThreadPool::parallel_for).
  void for_shards(const std::function<void(int)>& fn) {
    if (pool_ != nullptr && shards_ > 1) {
      pool_->parallel_for(
          static_cast<std::size_t>(shards_),
          [&fn](std::size_t s) { fn(static_cast<int>(s)); });
    } else {
      for (int s = 0; s < shards_; ++s) fn(s);
    }
  }

  /// Fans [0, n) out as contiguous index blocks, for work not tied to the
  /// node partition (e.g. per-elected-head threat scans). fn(begin, end)
  /// owns [begin, end) exclusively; block boundaries are deterministic but
  /// must not matter — callers only perform disjoint writes.
  void for_blocks(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    if (pool_ == nullptr || shards_ <= 1 || n <= 1) {
      if (n > 0) fn(0, n);
      return;
    }
    const std::size_t blocks =
        std::min(static_cast<std::size_t>(shards_), n);
    pool_->parallel_for(blocks, [&fn, blocks, n](std::size_t b) {
      fn(b * n / blocks, (b + 1) * n / blocks);
    });
  }

 private:
  ThreadPool* pool_;
  int shards_;
  std::vector<std::vector<std::uint32_t>> partition_;
  std::vector<std::uint32_t> shard_of_;
};

}  // namespace qlec
