// The CONGEST delivery hot path after the zero-allocation rework (SBO
// messages, precomputed reverse ports, move-based delivery, incremental
// quiescence) vs the seed implementation, on the flooding workload: every
// node broadcasts a two-field message every round, so every directed edge
// carries one delivery per round — the densest traffic the model allows.
//
// The pre-change baseline is measured *by this same binary*: the `legacy`
// namespace below is a faithful port of the seed delivery path
// (vector-backed messages, per-edge port_to binary search, always-deep-copy
// delivery, vector<bool> port flags, unconditional per-round virtual
// memory_bits sweep), driven by the identical workload and validated
// against the new engines by message count, bit count and an inbox
// checksum. `--check` turns the parity comparisons and the zero-allocation
// assertion into hard failures (CI runs it under ASan/TSan); `--out=FILE`
// emits the JSON summary that seeds BENCH_net.json at the repo root.
//
// The `seq_sparse` row is the opposite traffic shape: a handful of tokens
// walking data/synth-p2p-10k.qcg (`--dataset=FILE` to override), so each
// round carries a few messages on a graph of ~65k directed edges. It is
// reported per round: what matters there is what a round costs beyond its
// messages. The `seq_dataset` and `par_dataset` rows flood that same graph,
// so the two in-process engines are also compared at realistic size, under
// the same parity gate as `seq` and `par`. The `seq_awake` and `seq_sleepy`
// rows run a time-driven program on that graph, in which each node acts in
// one round of every 16: `seq_sleepy` tells the Network when (sleep_until),
// `seq_awake` runs every node every round; their stats and checksum must be
// identical, and the ns/round gap is what idle nodes cost a round.
//
// The `messages` column is the total over all timed repetitions, which is
// deterministic even when a fault plan drops a different set each
// repetition; the rates are those of the fastest repetition.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "graph/io.hpp"
#include "util/alloc_probe.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

using namespace qc;
using namespace qc::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Order-sensitive per-node hash of delivered (port, fields); summing the
/// per-node hashes gives a workload checksum that every engine and the
/// legacy baseline must reproduce exactly on fault-free runs.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Width of the flooding message's round field: 16 bits, narrowed on tiny
/// graphs so (id, round) fits the model bandwidth (n = 512 and the 10k
/// dataset keep all 16).
std::uint32_t flood_round_bits(std::uint32_t n) {
  return std::min(16u, congest_bandwidth_bits(n) - qc::bit_width_for(n));
}

/// Flooding program for the new engines: broadcast (id, round) each round,
/// hash everything heard. memory_bits() stays 0, so the engine's audit
/// sweep disarms after round 1 — exactly the non-reporting common case the
/// skip optimization targets.
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

/// Sparse traffic: tokens start at `walkers` spread-out nodes and move one
/// hop per round. A token that arrived on port p leaves on port
/// (p + 1) mod degree — a bijection on the node's ports, so tokens never
/// collide on a port and exactly `walkers` messages cross the network every
/// round. Every node votes to halt after its turn, so token-less nodes are
/// skipped by compute and only the engine's per-round overhead remains.
class Walk final : public congest::NodeProgram {
 public:
  explicit Walk(bool starts) : starts_(starts) {}

  void on_start(congest::NodeContext& ctx) override {
    if (starts_) {
      ctx.send(0, congest::Message().push(ctx.id(), ctx.id_bits()));
    }
    ctx.vote_halt();
  }

  void on_round(congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), ctx.round());
      ctx.send((in.port + 1) % ctx.degree(), in.msg);
    }
    ctx.vote_halt();
  }

  std::uint64_t sum() const { return sum_; }

 private:
  bool starts_;
  std::uint64_t sum_ = 0;
};

/// Time-driven traffic: node v acts without mail only in the rounds r with
/// (r + v) % kPeriod == 0, mailing its id on one port; mail is hashed. With
/// `hints` a node sleeps until its next alarm; without them it runs every
/// round, and its empty-inbox calls outside alarms do nothing.
class Alarm final : public congest::NodeProgram {
 public:
  static constexpr std::uint32_t kPeriod = 16;

  explicit Alarm(bool hints) : hints_(hints) {}

  void on_start(congest::NodeContext& ctx) override { nap(ctx); }

  void on_round(congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), ctx.round());
    }
    if (ctx.degree() > 0 && (ctx.round() + ctx.id()) % kPeriod == 0) {
      ctx.send(ctx.round() / kPeriod % ctx.degree(),
               congest::Message().push(ctx.id(), ctx.id_bits()));
    }
    nap(ctx);
  }

  std::uint64_t sum() const { return sum_; }

 private:
  void nap(congest::NodeContext& ctx) const {
    if (!hints_) return;
    const std::uint32_t next = ctx.round() + 1;
    ctx.sleep_until(next + (kPeriod - (next + ctx.id()) % kPeriod) % kPeriod);
  }

  bool hints_;
  std::uint64_t sum_ = 0;
};

struct Result {
  double ms = 0.0;               ///< best (min) timed repetition
  std::uint64_t messages = 0;    ///< deliveries in that repetition
  std::uint64_t total_messages = 0;  ///< deliveries across all repetitions
  std::uint64_t total_bits = 0;
  std::uint64_t checksum = 0;
  std::uint64_t allocs = 0;  ///< heap allocations across all timed phases
  congest::RunStats stats;   ///< lifetime stats (new engines only)

  double msgs_per_sec() const {
    return static_cast<double>(messages) / std::max(ms, 1e-9) * 1e3;
  }
  double ns_per_delivery() const {
    return ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(messages, 1));
  }
  double ns_per_round(std::uint32_t rounds) const {
    return ms * 1e6 / static_cast<double>(std::max<std::uint32_t>(rounds, 1));
  }
  double allocs_per_delivery() const {
    return static_cast<double>(allocs) /
           static_cast<double>(std::max<std::uint64_t>(total_messages, 1));
  }
};

}  // namespace

// A faithful port of the seed's delivery path, kept private to this binary
// as the pre-change baseline. Costs reproduced on purpose: heap-backed
// messages (every delivery deep-copies two vectors), port_to binary search
// per edge per round, vector<bool> port flags, and the unconditional
// per-round virtual memory_bits() sweep.
namespace legacy {

class Message {
 public:
  Message& push(std::uint64_t value, std::uint32_t bits) {
    values_.push_back(value);
    widths_.push_back(bits);
    return *this;
  }
  std::uint64_t field(std::size_t i) const { return values_[i]; }
  std::uint32_t size_bits() const {  // a scan, as in the seed
    std::uint32_t s = 0;
    for (const std::uint32_t w : widths_) s += w;
    return s;
  }

 private:
  std::vector<std::uint64_t> values_;
  std::vector<std::uint32_t> widths_;
};

struct Incoming {
  std::uint32_t port;
  Message msg;
};

struct Node {
  std::vector<graph::NodeId> neighbors;
  std::vector<Message> outbox;
  std::vector<bool> port_used;
  std::vector<Incoming> inbox;
};

/// Stand-in for the seed's per-node NodeProgram virtual dispatch: the sweep
/// below pays one virtual call per node per round whether or not the
/// program reports anything, exactly as the seed did.
struct Auditor {
  virtual ~Auditor() = default;
  virtual std::uint64_t memory_bits() const { return 0; }
};

struct Tally {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

class Sim {
 public:
  explicit Sim(const graph::Graph& g)
      : n_(g.n()),
        id_bits_(qc::bit_width_for(g.n())),
        round_bits_(flood_round_bits(g.n())) {
    nodes_.resize(n_);
    sums_.assign(n_, 0);
    auditors_.reserve(n_);
    for (graph::NodeId v = 0; v < n_; ++v) {
      const auto nb = g.neighbors(v);
      nodes_[v].neighbors.assign(nb.begin(), nb.end());
      nodes_[v].outbox.resize(nb.size());
      nodes_[v].port_used.assign(nb.size(), false);
      auditors_.push_back(std::make_unique<Auditor>());
    }
    for (graph::NodeId v = 0; v < n_; ++v) blast(v);  // on_start
  }

  void run_rounds(std::uint32_t rounds, Tally& t) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      ++round_;
      for (graph::NodeId w = 0; w < n_; ++w) {  // delivery
        auto& node = nodes_[w];
        node.inbox.clear();
        const auto deg = static_cast<std::uint32_t>(node.neighbors.size());
        for (std::uint32_t p = 0; p < deg; ++p) {
          auto& sender = nodes_[node.neighbors[p]];
          // The seed resolved the sender's outbox slot with port_to's
          // binary search on every edge every round.
          const auto it = std::lower_bound(sender.neighbors.begin(),
                                           sender.neighbors.end(), w);
          const auto q =
              static_cast<std::uint32_t>(it - sender.neighbors.begin());
          if (!sender.port_used[q]) continue;
          node.inbox.push_back(Incoming{p, sender.outbox[q]});  // deep copy
          ++t.messages;
          t.bits += node.inbox.back().msg.size_bits();
        }
      }
      for (graph::NodeId v = 0; v < n_; ++v) {  // compute
        auto& node = nodes_[v];
        std::fill(node.port_used.begin(), node.port_used.end(), false);
        for (const auto& in : node.inbox) {
          sums_[v] = mix(mix(mix(sums_[v], in.port), in.msg.field(0)),
                         in.msg.field(1));
        }
        blast(v);
      }
      std::uint64_t mx = 0;  // unconditional virtual memory sweep
      for (const auto& a : auditors_) mx = std::max(mx, a->memory_bits());
      max_memory_bits_ = std::max(max_memory_bits_, mx);
    }
  }

  std::uint64_t checksum() const {
    std::uint64_t s = 0;
    for (const std::uint64_t h : sums_) s += h;
    return s;
  }

 private:
  void blast(graph::NodeId v) {
    auto& node = nodes_[v];
    Message m;
    m.push(v, id_bits_);
    m.push(round_ & ((1u << round_bits_) - 1), round_bits_);
    const auto deg = static_cast<std::uint32_t>(node.neighbors.size());
    for (std::uint32_t p = 0; p < deg; ++p) {
      node.outbox[p] = m;
      node.port_used[p] = true;
    }
  }

  std::uint32_t n_;
  std::uint32_t id_bits_;
  std::uint32_t round_bits_;
  std::uint32_t round_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> sums_;
  std::vector<std::unique_ptr<Auditor>> auditors_;
  std::uint64_t max_memory_bits_ = 0;
};

}  // namespace legacy

namespace {

// Wall-clock noise is the enemy of a committed speedup number: each config
// runs `reps` timed phases over one warmed-up network and reports the best
// (minimum-time) phase, while the parity fields accumulate over the whole
// run so the correctness gates still cover every executed round.
Result run_legacy(const graph::Graph& g, std::uint32_t warm,
                  std::uint32_t rounds, std::uint32_t reps) {
  legacy::Sim sim(g);
  legacy::Tally discard;
  sim.run_rounds(warm, discard);
  Result r;
  const std::uint64_t a0 = qc::alloc_probe_count().load();
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    legacy::Tally t;
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_rounds(rounds, t);
    const double ms = ms_since(t0);
    if (rep == 0 || ms < r.ms) {
      r.ms = ms;
      r.messages = t.messages;
    }
    r.total_messages += t.messages;
    r.total_bits += t.bits;
  }
  r.allocs = qc::alloc_probe_count().load() - a0;
  r.checksum = sim.checksum();
  return r;
}

/// Warms `net` up, then times `reps` phases of `rounds` rounds each; the
/// checksum sums Program::sum() over every node.
template <typename Program>
Result time_phases(congest::Network& net, std::uint32_t warm,
                   std::uint32_t rounds, std::uint32_t reps) {
  net.run_rounds(warm);
  Result r;
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
  for (graph::NodeId v = 0; v < net.n(); ++v) {
    r.checksum += net.program_as<Program>(v).sum();
  }
  return r;
}

/// The Alarm program on `g`, with or without its sleep hints.
Result run_alarm(const graph::Graph& g, bool hints, std::uint32_t warm,
                 std::uint32_t rounds, std::uint32_t reps) {
  congest::Network net(g);
  net.init_programs(
      [hints](graph::NodeId) { return std::make_unique<Alarm>(hints); });
  return time_phases<Alarm>(net, warm, rounds, reps);
}

Result run_new(const graph::Graph& g, congest::Engine engine,
               bool with_observer, bool with_fault, std::uint64_t seed,
               std::uint32_t warm, std::uint32_t rounds, std::uint32_t reps) {
  congest::NetworkConfig cfg;
  cfg.engine = engine;
  cfg.seed = seed;
  auto observed = std::make_shared<std::uint64_t>(0);
  if (with_observer) {
    cfg.observer = std::make_shared<congest::CallbackObserver>(
        [observed](graph::NodeId, graph::NodeId, const congest::Message&,
                   std::uint32_t) { ++*observed; });
  }
  if (with_fault) {
    cfg.fault.drop_probability = 0.01;
    cfg.fault.corrupt_probability = 0.005;
    cfg.fault.seed = 99;
  }
  congest::Network net(g, cfg);
  const std::uint32_t round_bits = flood_round_bits(g.n());
  net.init_programs([round_bits](graph::NodeId) {
    return std::make_unique<Flood>(round_bits);
  });
  const Result r = time_phases<Flood>(net, warm, rounds, reps);
  if (with_observer) {
    check_internal(*observed == net.stats().messages,
                   "observer saw a different delivery count than the stats");
  }
  return r;
}

/// Up to `walkers` tokens on `g` (see Walk): a start node without a port
/// launches none. Every round carries exactly one message per launched
/// token, which the token-count gate checks.
Result run_sparse(const graph::Graph& g, std::uint32_t walkers,
                  std::uint32_t warm, std::uint32_t rounds,
                  std::uint32_t reps) {
  congest::Network net(g);
  const std::uint32_t stride = std::max<std::uint32_t>(1, g.n() / walkers);
  std::uint64_t tokens = 0;
  net.init_programs([&](graph::NodeId v) {
    const bool starts =
        v % stride == 0 && v / stride < walkers && g.degree(v) > 0;
    tokens += starts ? 1 : 0;
    return std::make_unique<Walk>(starts);
  });
  const Result r = time_phases<Walk>(net, warm, rounds, reps);
  check_internal(r.total_messages == tokens * rounds * reps,
                 "sparse walk lost or duplicated a token");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      BenchOptions::parse(argc, argv,
                          {"out", "n", "d", "rounds", "check", "dataset"});
  Cli cli(argc, argv);
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const auto rounds = static_cast<std::uint32_t>(
      cli.get_int("rounds", opt.quick ? 60 : 240));
  const bool check = cli.get_bool("check", false);
  const std::string out = cli.get_string("out", "");
  const std::string dataset = cli.get_string(
      "dataset", std::string(QC_DATA_DIR) + "/synth-p2p-10k.qcg");
  const std::uint32_t warm = 8;
  const std::uint32_t reps = opt.quick ? 3 : 5;

  banner("CONGEST delivery hot path vs seed implementation",
         "flooding workload: one delivery per directed edge per round; "
         "legacy = vector messages + port_to search + copy delivery");

  const auto g = workload(n, d, opt.seed);

  struct NamedResult {
    const char* name;
    Result r;
  };
  std::vector<NamedResult> results;
  results.push_back({"legacy_seq", run_legacy(g, warm, rounds, reps)});
  results.push_back(
      {"seq", run_new(g, congest::Engine::kSequential, false, false, opt.seed,
                      warm, rounds, reps)});
  results.push_back(
      {"seq_observer", run_new(g, congest::Engine::kSequential, true, false,
                               opt.seed, warm, rounds, reps)});
  results.push_back(
      {"seq_fault", run_new(g, congest::Engine::kSequential, false, true,
                            opt.seed, warm, rounds, reps)});
  results.push_back(
      {"par", run_new(g, congest::Engine::kParallel, false, false, opt.seed,
                      warm, rounds, reps)});
  results.push_back(
      {"par_fault", run_new(g, congest::Engine::kParallel, false, true,
                            opt.seed, warm, rounds, reps)});
  const auto sparse_g = graph::load_graph_file(dataset);
  const std::uint32_t walkers = 8;
  results.push_back(
      {"seq_sparse", run_sparse(sparse_g, walkers, warm, rounds, reps)});
  results.push_back(
      {"seq_dataset", run_new(sparse_g, congest::Engine::kSequential, false,
                              false, opt.seed, warm, rounds, reps)});
  results.push_back(
      {"par_dataset", run_new(sparse_g, congest::Engine::kParallel, false,
                              false, opt.seed, warm, rounds, reps)});
  results.push_back(
      {"seq_awake", run_alarm(sparse_g, false, warm, rounds, reps)});
  results.push_back(
      {"seq_sleepy", run_alarm(sparse_g, true, warm, rounds, reps)});

  Table t({"config", "ms", "messages (all reps)", "msgs/sec", "ns/delivery",
           "ns/round", "allocs/delivery"});
  for (const auto& [name, r] : results) {
    t.add_row({name, fmt(r.ms, 1), fmt(r.total_messages),
               fmt(r.msgs_per_sec(), 0),
               fmt(r.ns_per_delivery(), 1), fmt(r.ns_per_round(rounds), 1),
               fmt(r.allocs_per_delivery(), 4)});
  }
  t.print(std::cout);

  const Result& legacy_r = results[0].r;
  const Result& seq = results[1].r;
  const Result& seq_fault = results[3].r;
  const Result& par = results[4].r;
  const Result& par_fault = results[5].r;
  const Result& seq_dataset = results[7].r;
  const Result& par_dataset = results[8].r;
  const Result& seq_awake = results[9].r;
  const Result& seq_sleepy = results[10].r;
  const double speedup = seq.msgs_per_sec() / legacy_r.msgs_per_sec();
  std::cout << "\nsequential speedup vs legacy: " << fmt(speedup, 2)
            << "x  (" << fmt(legacy_r.ns_per_delivery(), 1) << " -> "
            << fmt(seq.ns_per_delivery(), 1) << " ns/delivery)\n";

  // Correctness gates. Message/bit/checksum parity across the legacy
  // baseline and every fault-free config is checked on every run; --check
  // additionally pins the zero-allocation steady state (CI runs this mode
  // under ASan and TSan).
  check_internal(seq.total_messages == legacy_r.total_messages &&
                     seq.total_bits == legacy_r.total_bits &&
                     seq.checksum == legacy_r.checksum,
                 "new sequential engine disagrees with the legacy baseline");
  check_internal(par.total_messages == seq.total_messages &&
                     par.total_bits == seq.total_bits &&
                     par.checksum == seq.checksum,
                 "parallel engine disagrees with the sequential engine");
  check_internal(par_dataset.total_messages == seq_dataset.total_messages &&
                     par_dataset.total_bits == seq_dataset.total_bits &&
                     par_dataset.checksum == seq_dataset.checksum,
                 "parallel engine disagrees with the sequential engine on "
                 "the dataset");
  check_internal(par_fault.total_messages == seq_fault.total_messages &&
                     par_fault.checksum == seq_fault.checksum,
                 "engines disagree under an active fault plan");
  check_internal(seq_fault.total_messages < seq.total_messages,
                 "fault plan dropped no messages");
  check_internal(seq_sleepy.stats == seq_awake.stats &&
                     seq_sleepy.checksum == seq_awake.checksum,
                 "sleep hints changed the time-driven execution");
  if (check) {
    check_internal(seq.allocs == 0,
                   "sequential no-fault delivery allocated at steady state");
    std::cout << "check mode: parity + zero-allocation assertions passed\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"network_delivery\",\n"
       << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"d\": " << d << ",\n"
       << "  \"edges\": " << g.m() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"warmup_rounds\": " << warm << ",\n"
       << "  \"bandwidth_bits\": " << congest_bandwidth_bits(n) << ",\n"
       << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"sparse_graph\": {\"n\": " << sparse_g.n()
       << ", \"edges\": " << sparse_g.m() << ", \"walkers\": " << walkers
       << "},\n"
       << "  \"configs\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [name, r] = results[i];
    json << "    \"" << name << "\": {\"ms\": " << fmt(r.ms, 3)
         << ", \"messages\": " << r.messages
         << ", \"msgs_per_sec\": " << fmt(r.msgs_per_sec(), 0)
         << ", \"ns_per_delivery\": " << fmt(r.ns_per_delivery(), 1)
         << ", \"ns_per_round\": " << fmt(r.ns_per_round(rounds), 1)
         << ", \"allocs_per_delivery\": " << fmt(r.allocs_per_delivery(), 4)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"speedup_seq_vs_legacy\": " << fmt(speedup, 2) << ",\n"
       << "  \"seq_steady_state_allocs\": " << seq.allocs << ",\n"
       << "  \"results_equal\": true\n"
       << "}\n";
  std::cout << "\n" << json.str();
  if (!out.empty()) {
    std::ofstream f(out);
    require(f.good(), "bench_network: cannot open --out file " + out);
    f << json.str();
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}
