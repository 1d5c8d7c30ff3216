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
// writes the run's record (bench/harness.hpp), which is BENCH_net.json at
// the repo root.
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
// The `messages_all_reps` column is the total over all timed repetitions,
// which is deterministic even when a fault plan drops a different set each
// repetition; the rates are those of the fastest repetition.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "graph/io.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

using namespace qc;
using namespace qc::bench;

namespace {

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

  congest::RunStats run_rounds(std::uint32_t rounds) {
    congest::RunStats t;
    t.rounds = rounds;
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
      t.max_node_memory_bits = std::max(t.max_node_memory_bits, mx);
    }
    stats_ += t;
    return t;
  }

  const congest::RunStats& stats() const { return stats_; }

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
  congest::RunStats stats_;
};

}  // namespace legacy

namespace {

Phases run_legacy(const graph::Graph& g, std::uint32_t warm,
                  std::uint32_t rounds, std::uint32_t reps) {
  legacy::Sim sim(g);
  return time_phases<Flood>(sim, warm, rounds, reps);
}

/// The Alarm program on `g`, with or without its sleep hints.
Phases run_alarm(const graph::Graph& g, bool hints, std::uint32_t warm,
                 std::uint32_t rounds, std::uint32_t reps) {
  congest::Network net(g);
  net.init_programs(
      [hints](graph::NodeId) { return std::make_unique<Alarm>(hints); });
  return time_phases<Alarm>(net, warm, rounds, reps);
}

Phases run_new(const graph::Graph& g, congest::Engine engine,
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
  const Phases r = time_flood(net, warm, rounds, reps);
  if (with_observer) {
    check_internal(*observed == net.stats().messages,
                   "observer saw a different delivery count than the stats");
  }
  return r;
}

/// Up to `walkers` tokens on `g` (see Walk): a start node without a port
/// launches none. Every round carries exactly one message per launched
/// token, which the token-count gate checks.
Phases run_sparse(const graph::Graph& g, std::uint32_t walkers,
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
  const Phases r = time_phases<Walk>(net, warm, rounds, reps);
  check_internal(r.total_messages == tokens * rounds * reps,
                 "sparse walk lost or duplicated a token");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      BenchOptions::parse(argc, argv,
                          {"out", "n", "d", "rounds", "check", "dataset"});
  const Cli& cli = opt.cli;
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const auto rounds = static_cast<std::uint32_t>(
      cli.get_int("rounds", opt.quick ? 60 : 240));
  const bool check = cli.get_bool("check", false);
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
    Phases r;
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

  Record rec("network_delivery");
  rec.param("quick", opt.quick)
      .param("n", n)
      .param("d", d)
      .param("edges", g.m())
      .param("rounds", rounds)
      .param("reps", reps)
      .param("warmup_rounds", warm)
      .param("bandwidth_bits", congest_bandwidth_bits(n))
      .param("dataset", std::filesystem::path(dataset).filename().string())
      .param("dataset_n", sparse_g.n())
      .param("dataset_edges", sparse_g.m())
      .param("walkers", walkers);
  for (const auto& [name, r] : results) {
    const double per_round =
        r.ms * 1e6 / static_cast<double>(std::max<std::uint32_t>(rounds, 1));
    const double allocs_per_delivery =
        static_cast<double>(r.allocs) /
        static_cast<double>(std::max<std::uint64_t>(r.total_messages, 1));
    rec.row(name)
        .add("ms", Value(r.ms, 3))
        .add("messages_all_reps", r.total_messages)
        .add("msgs_per_sec", Value(r.msgs_per_sec(), 0))
        .add("ns_per_delivery", Value(r.ns_per_delivery(), 1))
        .add("ns_per_round", Value(per_round, 1))
        .add("allocs_per_delivery", Value(allocs_per_delivery, 4));
  }
  rec.print_table(std::cout);

  const Phases& legacy_r = results[0].r;
  const Phases& seq = results[1].r;
  const Phases& seq_fault = results[3].r;
  const Phases& par = results[4].r;
  const Phases& par_fault = results[5].r;
  const Phases& seq_dataset = results[7].r;
  const Phases& par_dataset = results[8].r;
  const Phases& seq_awake = results[9].r;
  const Phases& seq_sleepy = results[10].r;
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

  rec.write(cli.get_string("out", ""));
  return 0;
}
