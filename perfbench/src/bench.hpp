#pragma once
// Shared plumbing of the qcongest benchmark runner: options, clocks and
// resource usage, order statistics, the result ledger every workload fills,
// the benchmark-side span tracer, and the inputs shared by several
// workloads (graphs and the flooding program).
//
// Everything here observes the libraries from the outside: layers are
// timed around calls into their public functions, and no span or counter
// is added inside src/.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "core/branch_evaluator.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/graph.hpp"

namespace perfbench {

namespace graph = qc::graph;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every workload shrinks to a few hundred nodes and
  /// sub-second phases. Never used for reported figures.
  bool tiny = false;
  /// Deliberately wrong reference answers, so the smoke test can prove
  /// every answer check fires.
  bool corrupt_reference = false;
  std::string root = ".";       ///< checkout root (data/ lives here)
  std::string work_dir = ".";   ///< temporary files (sockets, .qcg copies)
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  unsigned threads = 4;         ///< load threads: min(4, nproc)
};

/// splitmix64 of (seed, tag): every input a workload draws comes from here.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// ---------------------------------------------------------------------------
// Clocks, resource usage and order statistics

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// user + sys CPU seconds of this process and its reaped children.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes cpu_now();
CpuTimes operator-(const CpuTimes& a, const CpuTimes& b);

/// user + sys CPU seconds of a live process from /proc/<pid>/stat (0 when
/// it cannot be read).
double process_cpu_seconds(int pid);
/// Peak resident set of a live process from /proc/<pid>/status, in MiB.
double process_peak_rss_mb(int pid);
/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Result ledger

/// What one benchmark invocation measured and checked. The final stdout
/// line is built from `metrics`, `attempted` and `failed`; everything else
/// goes into the report line before it.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed operation (wrong answer, error status, parity
  /// mismatch) with its reason; the first few reasons are reported.
  void fail(const std::string& reason);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Model-cost count: must repeat exactly for a fixed seed.
  void cost(const std::string& name, std::uint64_t value) { costs_[name] = value; }
  /// Free-form report field (numbers already formatted as JSON values).
  void note(const std::string& key, const std::string& json_value) {
    notes_[key] = json_value;
  }
  void note_num(const std::string& key, double value);
  void note_str(const std::string& key, const std::string& value);

  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  std::string report_json(const Options& opt) const;
  std::string result_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> costs_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_escape(const std::string& s);
std::string json_num(double v);

/// Records a failed check into `res` unless `ok`; returns `ok`.
bool check(Result& res, bool ok, const std::string& what);

// ---------------------------------------------------------------------------
// Benchmark-side tracing

/// Spans recorded by the benchmark around calls into one layer. A span's
/// layer is the module its name starts with ("graph.ecc_sweep" belongs to
/// graph). Spans here never nest, so a layer's self time is the sum of
/// its spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s;
    double seconds;
  };

  Tracer() : t0_(Clock::now()) {}

  /// Times fn() as span `name`, returns its duration in seconds.
  double time(const std::string& name, const std::function<void()>& fn);
  /// Times fn() as span `name`, returns what fn returns.
  template <typename F>
  auto measure(const std::string& name, F&& fn) -> decltype(fn()) {
    const auto t0 = Clock::now();
    auto v = fn();
    spans_.push_back({name, std::chrono::duration<double>(t0 - t0_).count(),
                      seconds_since(t0)});
    return v;
  }
  void add(const std::string& name, double seconds);

  double total_seconds() const;
  std::map<std::string, double> layer_seconds() const;
  /// Adds the per-layer split, the top layer and the span list to `res`.
  void report(Result& res, double wall_s) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Shared inputs

/// A workload graph together with the spec or file it came from.
struct GraphInput {
  std::string source;   ///< generator spec or dataset path, as loaded
  graph::Graph g;
};

/// Generates `diam:N:D:<s>`, where s is the first seed derived from
/// `seed` whose flood-max leader (the largest id) has eccentricity D.
/// Pinning ecc(leader) fixes d, and with it the Figure 2 schedule
/// length, so runs with different seeds do the same amount of work.
GraphInput pinned_diameter_graph(std::uint32_t n, std::uint32_t d,
                                 std::uint64_t seed);

/// Writes `g` as a .qcg file under the work dir (for the serve probe of
/// workloads whose graph is generated) and returns its path.
std::string write_graph_file(const Options& opt, const graph::Graph& g,
                             const std::string& stem);

/// Order-sensitive hash fold used by the flooding program's checksum.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Flooding program (the bench_shard workload): every node broadcasts
/// (id, round) every round and hashes what it hears. Its state round-trips
/// through the shard harvest, so the checksum can be compared across
/// engines.
class Flood final : public qc::congest::NodeProgram {
 public:
  void on_start(qc::congest::NodeContext& ctx) override { blast(ctx); }
  void on_round(qc::congest::NodeContext& ctx) override;
  void serialize_state(qc::congest::Message& out) const override;
  void restore_state(const qc::congest::Message& in) override;
  std::uint64_t sum() const { return sum_; }

 private:
  static void blast(qc::congest::NodeContext& ctx);
  std::uint64_t sum_ = 0;
};

// ---------------------------------------------------------------------------
// Layer calls shared by the traced queries and the probes

/// Classical initialisation of Section 3 from the algos layer's public
/// functions (leader election, BFS tree + ecc(leader), broadcast of d),
/// plus the Setup broadcast whose rounds Proposition 2 charges.
struct InitPhase {
  graph::NodeId leader = 0;
  std::uint32_t d = 0;
  qc::algos::TreeState tree;
  std::uint32_t rounds = 0;
  std::uint32_t t_setup = 0;
  qc::congest::RunStats stats;
};
InitPhase initialise(const graph::Graph& g, const qc::congest::NetworkConfig& net);

/// Figure 2 round budget of one branch, as core::detail::WindowOracle
/// computes it (every branch costs the same).
std::uint32_t eval_forward_rounds(std::uint32_t steps, std::uint32_t height);

/// Theorem 4's s = ceil(n^{2/3} / d^{1/3}), clamped to [1, n].
std::uint32_t paper_s(std::uint32_t n, std::uint32_t d_leader);

/// Benchmark-owned branch fan-out: every branch runs the Figure 2
/// simulation through algos::evaluate_window_ecc on a core::BranchEvaluator,
/// timed per branch inside the evaluator and checked against the
/// centralized reference (the segment maximum of the ecc table).
struct FanOut {
  std::unique_ptr<qc::core::BranchEvaluator<std::int64_t>> evaluator;
  std::mutex mu;  ///< guards everything below while branches run
  std::vector<double> branch_s;
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t mismatches = 0;
};
void fan_out(FanOut& fo, const graph::Graph& g, const qc::algos::TreeState& tree,
             std::uint32_t steps, std::uint32_t t_eval,
             const graph::EccEngine::SegmentMax& seg,
             const qc::congest::NetworkConfig& net, const std::vector<bool>* mask,
             const std::vector<std::size_t>& branches, unsigned threads);

// ---------------------------------------------------------------------------
// Workloads (each fills `res` according to opt.trace)

void run_exact(const Options& opt, Result& res, bool with_metrics);
void run_approx(const Options& opt, Result& res);
void run_serve(const Options& opt, Result& res);
void run_shard(const Options& opt, Result& res);

/// Per-layer probes timed on a workload's graph, for every per-layer
/// metric the workload's own traced run has not already set (see
/// probes.cpp).
void probe_layers(const Options& opt, const GraphInput& in, Result& res);

/// The serve layer's load generator and its measurements; used by the
/// serve workload and, with a short ladder, by the serve probe.
struct ServeLadder {
  std::vector<double> rates;   ///< offered request rates, requests/s
  double step_seconds = 1.0;
  std::size_t reference = 0;   ///< index of the rate p50/p99 are read at
  double saturation_seconds = 0.0;  ///< closed-loop phase before the ladder
};
struct ServeOutcome {
  double setup_s = 0.0;          ///< server start + load (graph resident)
  double load_ms = 0.0;
  double first_query_ms = 0.0;
  double p50_us = 0.0;           ///< at the reference rate
  double p99_us = 0.0;
  double max_rate_rps = 0.0;     ///< achieved rate of the highest passing step
  double gen_lag_us = 0.0;       ///< median generator lag at the reference rate
  double ping_us = 0.0;
  double lookup_us = 0.0;
  double approx_us = 0.0;
  double saturated_us = 0.0;     ///< median latency, closed loop, all connections
  double saturated_rps = 0.0;
  double cpu_per_request_s = 0.0;  ///< server CPU, under saturation
  double client_cpu_per_request_s = 0.0;  ///< generator CPU, same phase
  double closed_probes_s = 0.0;  ///< wall of the closed-loop probes
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t requests = 0;          ///< open-loop requests sent
  std::uint64_t engine_bfs_runs = 0;   ///< resident EccEngine BFS runs
  std::uint64_t reference_step_requests = 0;
  std::uint64_t reference_step_approx = 0;  ///< approx requests among them
};
ServeOutcome serve_session(const Options& opt, const std::string& path,
                           const ServeLadder& ladder, bool closed_probes,
                           Result& res, Tracer* tracer);
ServeLadder serve_ladder(const Options& opt, bool probe);
void serve_layer_metrics(Result& res, const ServeOutcome& o);

/// One sharded flooding session (W=3, greedy partitioner) with the
/// in-process parity check: an untimed check run of `check_rounds` rounds,
/// then timed operations of one round each.
struct ShardOutcome {
  double spawn_ms = 0.0;
  double run_s = 0.0;              ///< median wall of one op (one round)
  double cpu_s = 0.0;              ///< mean CPU (coordinator + workers) per op
  double deliveries_per_s = 0.0;
  double barrier_us_per_round = 0.0;
  double boundary_bytes_per_round = 0.0;
  double spilled_frames = 0.0;
  double peak_rss_mb = 0.0;
  double flood_ns_per_delivery = 0.0;  ///< in-process engine, same program
  std::uint64_t ops = 0;
};
ShardOutcome shard_session(const Options& opt, const graph::Graph& g,
                           std::uint32_t check_rounds, double seconds,
                           Result& res, Tracer* tracer);
void shard_layer_metrics(Result& res, const ShardOutcome& o);

}  // namespace perfbench
