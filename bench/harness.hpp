#pragma once

// Shared helpers for the paper-reproduction benchmark harness. Each bench
// binary regenerates one table/figure of the evaluation (see DESIGN.md §3):
// it sweeps the workload parameters, measures CONGEST rounds on the
// simulator, prints a table, and fits the scaling exponent against the
// paper's prediction. Absolute constants are simulator-specific; the
// *shape* (exponents, separations, crossovers) is what reproduces.
//
// The benches that commit a baseline (BENCH_*.json) also share one timing
// loop (time_phases), one flooding program (Flood) and one record shape
// (Record): a run is one JSON line holding the bench name, the host, the
// workload params and flat per-config rows, and the bench prints its table
// from those same rows.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "util/alloc_probe.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#ifndef QC_BUILD_TYPE
#define QC_BUILD_TYPE "unknown"
#endif

namespace qc::bench {

/// Standard banner so bench outputs are self-describing in logs.
inline void banner(const std::string& title, const std::string& claim) {
  std::cout << "\n=== " << title << " ===\n" << claim << "\n\n";
}

/// Median of `trials` runs of `f(seed)`. Moves the sample vector into
/// quantile() — the selection-based implementation partitions in place, so
/// no copy is made.
template <typename F>
double median_over_seeds(int trials, std::uint64_t base_seed, F&& f) {
  std::vector<double> xs;
  xs.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    xs.push_back(static_cast<double>(f(base_seed + t)));
  }
  return quantile(std::move(xs), 0.5);
}

/// Prints a fitted power law y ~ x^e next to the paper's predicted
/// exponent.
inline void print_fit(const std::string& label, std::span<const double> xs,
                      std::span<const double> ys, double predicted) {
  const auto fit = fit_power_law(xs, ys);
  std::cout << label << ": measured exponent " << fmt(fit.slope, 3)
            << " (paper predicts ~" << fmt(predicted, 2)
            << ", R^2 = " << fmt(fit.r2, 3) << ")\n";
}

/// The main workload family: connected graph with exactly the requested
/// diameter (decouples n from D — the axis Table 1 is about).
inline graph::Graph workload(std::uint32_t n, std::uint32_t d,
                             std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

/// `k` roots spread deterministically across the ids of an n-node graph
/// (k = n gives every vertex once, in order: the full-sweep case).
inline std::vector<graph::NodeId> spread_roots(std::uint32_t n,
                                               std::uint32_t k) {
  std::vector<graph::NodeId> out;
  out.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    out.push_back(static_cast<graph::NodeId>(
        (static_cast<std::uint64_t>(i) * n) / k));
  }
  return out;
}

/// Quick-mode switch: `--quick` shrinks sweeps for smoke runs; the default
/// sizes are chosen so every bench completes in seconds.
///
/// Parsing is strict: malformed values (--trials=abc) and flags outside
/// {--quick, --trials, --seed, --metrics-out} + `extra` abort with a
/// message instead of silently running the default sweep. `cli` keeps the
/// parsed command line, so a bench reads its own flags from it.
///
/// `--metrics-out=FILE` arms a qc::metrics capture for the whole bench
/// run: the session lives inside the returned options object and writes
/// the JSONL when the options go out of scope at the end of main.
struct BenchOptions {
  explicit BenchOptions(Cli c) : cli(std::move(c)) {}

  Cli cli;
  bool quick = false;
  int trials = 3;
  std::uint64_t seed = 1234;
  std::string metrics_out;
  std::shared_ptr<metrics::ScopedExport> metrics_session;

  static BenchOptions parse(int argc, char** argv,
                            const std::vector<std::string>& extra = {}) {
    try {
      BenchOptions o(Cli(argc, argv));
      std::vector<std::string> allowed = {"quick", "trials", "seed",
                                          "metrics-out"};
      allowed.insert(allowed.end(), extra.begin(), extra.end());
      o.cli.expect_flags(allowed);
      o.quick = o.cli.get_bool("quick", false);
      o.trials = static_cast<int>(o.cli.get_int("trials", o.quick ? 2 : 3));
      o.seed = static_cast<std::uint64_t>(o.cli.get_int("seed", 1234));
      o.metrics_out = o.cli.get_string("metrics-out", "");
      o.metrics_session =
          std::make_shared<metrics::ScopedExport>(o.metrics_out);
      return o;
    } catch (const Error& e) {  // bench mains have no try/catch of their own
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }
};

inline double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Order-sensitive hash fold; summing per-node hashes gives a workload
/// checksum that every engine must reproduce exactly on fault-free runs.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Width of the flooding message's round field: 16 bits, narrowed on tiny
/// graphs so (id, round) fits the model bandwidth (n = 192, n = 512 and the
/// 10k dataset keep all 16).
inline std::uint32_t flood_round_bits(std::uint32_t n) {
  return std::min(16u, congest_bandwidth_bits(n) - qc::bit_width_for(n));
}

/// Flooding workload: every node broadcasts (id, round) every round, so
/// every directed edge carries one delivery per round, and hashes
/// everything it hears. memory_bits() stays 0, so the engine's audit sweep
/// disarms after round 1. The hash travels through serialize_state, so the
/// sharded engine's harvest brings it back for the parity gates.
class Flood final : public congest::NodeProgram {
 public:
  explicit Flood(std::uint32_t round_bits) : round_bits_(round_bits) {}

  void on_start(congest::NodeContext& ctx) override { blast(ctx); }

  void on_round(congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), in.msg.field(1));
    }
    blast(ctx);
  }

  void serialize_state(congest::Message& out) const override {
    out.push(sum_, 64);
  }
  void restore_state(const congest::Message& in) override {
    require(in.num_fields() == 1, "Flood::restore_state: bad shape");
    sum_ = in.field(0);
  }

  std::uint64_t sum() const { return sum_; }

 private:
  void blast(congest::NodeContext& ctx) const {
    congest::Message m;
    m.push(ctx.id(), ctx.id_bits());
    m.push(ctx.round() & ((1u << round_bits_) - 1), round_bits_);
    ctx.broadcast(m);
  }

  std::uint32_t round_bits_;
  std::uint64_t sum_ = 0;
};

/// What time_phases measured on one config.
struct Phases {
  double ms = 0.0;                   ///< best (min) timed repetition
  std::uint64_t messages = 0;        ///< deliveries in that repetition
  std::uint64_t total_messages = 0;  ///< deliveries across all repetitions
  std::uint64_t total_bits = 0;
  std::uint64_t allocs = 0;    ///< heap allocations across the timed reps
  std::uint64_t checksum = 0;  ///< sum of every node's hash
  congest::RunStats stats;     ///< the engine's lifetime stats

  double msgs_per_sec() const {
    return static_cast<double>(messages) / std::max(ms, 1e-9) * 1e3;
  }
  double ns_per_delivery() const {
    return ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(messages, 1));
  }
};

/// Wall-clock noise is the enemy of a committed speedup number: this warms
/// `net` up with `warm` rounds, then runs `reps` timed phases of `rounds`
/// rounds and reports the best (minimum-time) phase, while the parity
/// fields accumulate over the whole run so the correctness gates cover
/// every executed round. The alloc probe brackets exactly the timed reps:
/// warmup owns every one-time capacity growth. The checksum sums
/// Program::sum() over every node, or takes net.checksum() from an engine
/// that keeps no programs. Every engine runs the same sequence of
/// run_rounds calls, so the results are directly comparable.
template <typename Program, typename Net>
Phases time_phases(Net& net, std::uint32_t warm, std::uint32_t rounds,
                   std::uint32_t reps) {
  net.run_rounds(warm);
  Phases r;
  const std::uint64_t a0 = qc::alloc_probe_count().load();
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const congest::RunStats st = net.run_rounds(rounds);
    const double ms = ms_since(t0);
    if (rep == 0 || ms < r.ms) {
      r.ms = ms;
      r.messages = st.messages;
    }
    r.total_messages += st.messages;
    r.total_bits += st.bits;
  }
  r.allocs = qc::alloc_probe_count().load() - a0;
  r.stats = net.stats();
  if constexpr (requires { net.checksum(); }) {
    r.checksum = net.checksum();
  } else {
    for (graph::NodeId v = 0; v < net.n(); ++v) {
      r.checksum += net.template program_as<Program>(v).sum();
    }
  }
  return r;
}

/// Installs Flood on every node of `net` and times it with time_phases.
template <typename Net>
Phases time_flood(Net& net, std::uint32_t warm, std::uint32_t rounds,
                  std::uint32_t reps) {
  const std::uint32_t round_bits = flood_round_bits(net.n());
  net.init_programs([round_bits](graph::NodeId) {
    return std::make_unique<Flood>(round_bits);
  });
  return time_phases<Flood>(net, warm, rounds, reps);
}

/// One value of a bench record: a number, a bool, a string, or null (not
/// measured in this run). A number keeps the text it was formatted to, so
/// the table and the JSON print the same digits.
class Value {
 public:
  Value() = default;
  Value(double v, int digits) {
    if (std::isfinite(v)) text_ = fmt(v, digits);
  }
  Value(double) = delete;  // a double needs its digits
  template <std::integral T>
  Value(T v)
      : text_(std::same_as<T, bool> ? (v ? "true" : "false")
                                    : std::to_string(v)) {}
  Value(std::string s) : text_(std::move(s)), quoted_(true) {}
  Value(const char* s) : Value(std::string(s)) {}

  std::string json() const {
    if (!text_) return "null";
    return quoted_ ? "\"" + metrics::json_escape(*text_) + "\"" : *text_;
  }
  std::string cell() const { return text_.value_or("-"); }

 private:
  std::optional<std::string> text_;  ///< nullopt: null
  bool quoted_ = false;              ///< a string, not a number or bool
};

/// One config's measurements: flat key/value pairs in insertion order.
struct Row {
  std::string config;
  std::vector<std::pair<std::string, Value>> values;

  /// Sets `key` to `v`: a new key goes last, a known one keeps its place.
  Row& add(std::string key, Value v) {
    for (auto& [k, old] : values) {
      if (k == key) {
        old = std::move(v);
        return *this;
      }
    }
    values.emplace_back(std::move(key), std::move(v));
    return *this;
  }
};

/// The machine a record was measured on.
struct Host {
  unsigned cpus = std::thread::hardware_concurrency();
#if defined(__clang__)
  std::string compiler = "clang " __clang_version__;
#else
  std::string compiler = "g++ " __VERSION__;
#endif
  std::string build_type = QC_BUILD_TYPE;
};

/// One bench run, written as one JSON line:
///   {"bench":..., "host":{"cpus","compiler","build_type"},
///    "params":{...}, "rows":[{"config":..., ...}, ...]}
/// A baseline file is the lines of its runs joined with `cat`. Benches
/// write a record only after every gate has passed.
class Record {
 public:
  explicit Record(std::string bench) : bench_(std::move(bench)) {}

  Host host;

  Record& param(std::string key, Value v) {
    params_.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  /// Appends a row; the reference stays valid as further rows are added.
  Row& row(std::string config) {
    rows_.push_back(Row{std::move(config), {}});
    return rows_.back();
  }
  std::string json() const {
    std::string s = "{\"bench\":" + Value(bench_).json() +
                    ",\"host\":{\"cpus\":" + Value(host.cpus).json() +
                    ",\"compiler\":" + Value(host.compiler).json() +
                    ",\"build_type\":" + Value(host.build_type).json() +
                    "},\"params\":{" + members(params_) + "},\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      s += (i == 0 ? "{\"config\":" : ",{\"config\":") +
           Value(r.config).json() + (r.values.empty() ? "" : ",") +
           members(r.values) + "}";
    }
    return s + "]}";
  }

  /// Prints rows [first, last) as a table whose columns are the keys of
  /// those rows in first-seen order; a value a row lacks or holds as null
  /// prints as "-".
  void print_table(std::ostream& os, std::size_t first = 0,
                   std::size_t last = static_cast<std::size_t>(-1)) const {
    last = std::min(last, rows_.size());
    std::vector<std::string> keys;
    for (std::size_t i = first; i < last; ++i) {
      for (const auto& [k, v] : rows_[i].values) {
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
    }
    std::vector<std::string> headers = {"config"};
    headers.insert(headers.end(), keys.begin(), keys.end());
    Table t(std::move(headers));
    for (std::size_t i = first; i < last; ++i) {
      std::vector<std::string> cells = {rows_[i].config};
      for (const auto& k : keys) {
        std::string cell = "-";
        for (const auto& [key, v] : rows_[i].values) {
          if (key == k) cell = v.cell();
        }
        cells.push_back(std::move(cell));
      }
      t.add_row(std::move(cells));
    }
    t.print(os);
  }

  /// The `--out=FILE` writer: the record's line, nothing when `path` is
  /// empty.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream f(path);
    require(f.good(), bench_ + ": cannot open --out file " + path);
    f << json() << "\n";
    std::cout << "wrote " << path << "\n";
  }

 private:
  using Fields = std::vector<std::pair<std::string, Value>>;

  /// `"key":value` pairs joined by commas, without the braces.
  static std::string members(const Fields& fields) {
    std::string s;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      s += (i == 0 ? "\"" : ",\"") + metrics::json_escape(fields[i].first) +
           "\":" + fields[i].second.json();
    }
    return s;
  }

  std::string bench_;
  Fields params_;
  std::deque<Row> rows_;
};

}  // namespace qc::bench
