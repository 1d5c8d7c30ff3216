#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/thread_pool.hpp"

namespace qc::core {

/// Parallel fan-out of independent oracle branches with a shared memo
/// cache.
///
/// Every Grover iterate of the Section 2.4 framework applies the
/// Evaluation unitary to all populated basis branches at once, and each
/// branch is an independent deterministic CONGEST simulation — so the
/// branch set can be evaluated in any order, on any number of workers,
/// with bit-identical results. prefetch() evaluates a branch set exactly
/// once each across the pool (replacing the old per-call lazy memos);
/// operator() then serves from the cache, falling back to an inline
/// evaluation on a miss. Results, and everything derived from them
/// (values, round counts, RunStats aggregation), are independent of the
/// thread count.
///
/// The evaluation function must be safe to call from several threads at
/// once when num_threads > 1 (the WindowOracle is; a capture that mutates
/// unsynchronized state is not — run such oracles with num_threads = 1).
template <typename Value>
class BranchEvaluator {
 public:
  using Eval = std::function<Value(std::size_t)>;

  /// `num_threads` = 0 means hardware_concurrency; 1 evaluates inline on
  /// the calling thread (no pool, exactly the historical serial path).
  explicit BranchEvaluator(Eval eval, std::uint32_t num_threads = 1)
      : eval_(std::move(eval)),
        num_threads_(num_threads != 0
                         ? num_threads
                         : std::max(1u, std::thread::hardware_concurrency())) {}

  /// Evaluates every not-yet-cached branch in `branches` exactly once,
  /// fanning out across the worker pool. If evaluations throw, the
  /// exception of the first failing branch in `branches` order is rethrown
  /// here (on the calling thread) — the one the serial path meets first, so
  /// the error does not depend on the thread count. Branches after it are
  /// abandoned; workers finish every branch before it.
  void prefetch(const std::vector<std::size_t>& branches) {
    std::vector<std::size_t> missing;
    {
      std::unordered_set<std::size_t> seen;
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t b : branches) {
        if (memo_.find(b) == memo_.end() && seen.insert(b).second) {
          missing.push_back(b);
        }
      }
    }
    if (missing.empty()) return;

    const std::uint32_t workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(num_threads_, missing.size()));
    if (workers <= 1) {
      for (std::size_t b : missing) {
        const Value v = eval_(b);
        std::lock_guard<std::mutex> lock(mu_);
        memo_.emplace(b, v);
      }
      return;
    }

    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
    // Indices are handed out in increasing order, so once one exceeds the
    // lowest failure seen so far, so does every later one: a worker stops
    // there, and every index below the lowest failure still gets evaluated.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> first_failure{missing.size()};
    std::exception_ptr error;
    std::mutex error_mu;
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool_->submit([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= first_failure.load()) return;
          try {
            const Value v = eval_(missing[i]);
            std::lock_guard<std::mutex> lock(mu_);
            memo_.emplace(missing[i], v);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (i < first_failure.load()) {
              first_failure.store(i);
              error = std::current_exception();
            }
            return;
          }
        }
      });
    }
    pool_->wait_idle();
    if (error) std::rethrow_exception(error);
  }

  /// Convenience: prefetch the full domain [0, domain_size).
  void prefetch_all(std::size_t domain_size) {
    std::vector<std::size_t> all(domain_size);
    for (std::size_t i = 0; i < domain_size; ++i) all[i] = i;
    prefetch(all);
  }

  /// f(x), from the cache when present. A miss evaluates inline and
  /// caches (single-threaded callers only, e.g. the quantum sampling
  /// loop after a full prefetch).
  Value operator()(std::size_t x) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = memo_.find(x);
      if (it != memo_.end()) return it->second;
    }
    const Value v = eval_(x);
    std::lock_guard<std::mutex> lock(mu_);
    memo_.emplace(x, v);
    return v;
  }

  /// Number of distinct branches evaluated so far.
  std::uint64_t distinct_evaluations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return memo_.size();
  }

 private:
  Eval eval_;
  std::uint32_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Value> memo_;
};

}  // namespace qc::core
