// The zero-allocation CONGEST delivery hot path: reverse-port table
// correctness (randomized against port_to, corrupted-adjacency construction
// failure), the no-heap-allocation-per-delivery invariant (this binary's
// global allocator is replaced by the counting probe), the incremental
// quiescence counters, the memory_bits sweep skip, sparse receiver-side
// delivery against a brute-force reference simulator, the sleep contract
// (NodeContext::sleep_until), and Network reuse across Figure 2 branches.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "graph/generators.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

QC_INSTALL_ALLOC_PROBE();

namespace qc::congest {
namespace {

using graph::NodeId;

std::vector<std::vector<NodeId>> adjacency_of(const graph::Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    adj[v].assign(nb.begin(), nb.end());
  }
  return adj;
}

TEST(ReversePorts, AgreesWithPortToOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::uint32_t>(16 + 17 * trial);
    auto g = trial % 2 == 0 ? graph::make_connected_er(n, 0.08, rng)
                            : graph::make_random_regular(n, 4, rng);
    const auto adj = adjacency_of(g);
    const auto rev = build_reverse_ports(adj);
    ASSERT_EQ(rev.size(), g.n());
    for (NodeId w = 0; w < g.n(); ++w) {
      ASSERT_EQ(rev[w].size(), adj[w].size());
      for (std::size_t p = 0; p < adj[w].size(); ++p) {
        const NodeId u = adj[w][p];
        // rev[w][p] is the port on u that leads back to w — i.e. exactly
        // what the old per-delivery binary search port_to(u -> w) found.
        ASSERT_LT(rev[w][p], adj[u].size());
        EXPECT_EQ(adj[u][rev[w][p]], w);
        const auto it = std::lower_bound(adj[u].begin(), adj[u].end(), w);
        EXPECT_EQ(rev[w][p],
                  static_cast<std::uint32_t>(it - adj[u].begin()));
      }
    }
  }
}

TEST(ReversePorts, DeliveryRoutesCorrectlyOnRandomGraphs) {
  // End-to-end check that the table actually routes: every node gossips its
  // id once; every node must hear exactly its neighbor set, in port order.
  Rng rng(7);
  auto g = graph::make_connected_er(64, 0.1, rng);
  class Gossip : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.broadcast(Message().push(ctx.id(), ctx.id_bits()));
    }
    void on_round(NodeContext& ctx) override {
      for (const auto& in : ctx.inbox()) {
        heard.push_back(static_cast<NodeId>(in.msg.field(0)));
      }
      ctx.vote_halt();
    }
    std::vector<NodeId> heard;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Gossip>(); });
  net.run_rounds(1);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_EQ(net.program_as<Gossip>(v).heard,
              std::vector<NodeId>(nb.begin(), nb.end()))
        << "node " << v;
  }
}

TEST(ReversePorts, CorruptedAdjacencyFailsConstruction) {
  // Unsorted list: ports would be misnumbered.
  std::vector<std::vector<NodeId>> unsorted = {{2, 1}, {0}, {0}};
  EXPECT_THROW(build_reverse_ports(unsorted), InvalidArgumentError);
  // Duplicate neighbor (not *strictly* sorted).
  std::vector<std::vector<NodeId>> dupe = {{1, 1}, {0}};
  EXPECT_THROW(build_reverse_ports(dupe), InvalidArgumentError);
  // Asymmetric: 0 lists 1 but 1 does not list 0.
  std::vector<std::vector<NodeId>> asym = {{1}, {}};
  EXPECT_THROW(build_reverse_ports(asym), InvalidArgumentError);
  // Out-of-range neighbor id.
  std::vector<std::vector<NodeId>> oob = {{5}, {0}};
  EXPECT_THROW(build_reverse_ports(oob), InvalidArgumentError);
  // A valid adjacency still builds.
  std::vector<std::vector<NodeId>> ok = {{1, 2}, {0, 2}, {0, 1}};
  const auto rev = build_reverse_ports(ok);
  EXPECT_EQ(rev[0], (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(rev[2], (std::vector<std::uint32_t>{1, 1}));
}

/// Floods two fields on every port every round, never halts, allocates no
/// heap memory of its own — the workload for the zero-allocation pin.
class Flood : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(Message().push(ctx.id() & 0xff, 8).push(1, 8));
  }
  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) sink += in.msg.field(0);
    ctx.broadcast(
        Message().push(ctx.id() & 0xff, 8).push(ctx.round() & 0xff, 8));
  }
  std::uint64_t sink = 0;
};

TEST(HotPath, ZeroAllocationsPerDeliveryAtSteadyState) {
  Rng rng(11);
  auto g = graph::make_connected_er(48, 0.12, rng);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Flood>(); });
  // Warm-up: inbox/outbox capacities and the one-time start costs settle.
  net.run_rounds(3);
  const std::uint64_t before = qc::alloc_probe_count().load();
  const RunStats st = net.run_rounds(50);
  const std::uint64_t after = qc::alloc_probe_count().load();
  ASSERT_GT(st.messages, 4000u);  // the region really delivered traffic
  EXPECT_EQ(after - before, 0u)
      << "the no-fault sequential delivery path must not touch the heap";
}

TEST(HotPath, MovedOutboxSlotsAreReusable) {
  // Delivery moves the sender's outbox slot into the receiver's inbox; the
  // next round must be able to queue on the same port again, including a
  // message large enough to spill.
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 64;
  class Pitcher : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      for (const auto& in : ctx.inbox()) {
        last_seen.assign(1, in.msg.field(0));
        fields_seen = in.msg.num_fields();
      }
      Message m;
      const auto fields =
          1 + (ctx.round() % (Message::kInlineFields + 2));
      for (std::size_t i = 0; i < fields; ++i) {
        m.push(ctx.round() & 1, 1);
      }
      if (ctx.id() == 0) ctx.send(0, m);
    }
    std::vector<std::uint64_t> last_seen;
    std::size_t fields_seen = 0;
  };
  Network net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<Pitcher>(); });
  for (std::uint32_t r = 1; r <= 2 * Message::kInlineFields + 4; ++r) {
    net.run_rounds(1);
    auto& receiver = net.program_as<Pitcher>(1);
    if (r >= 2) {
      const std::uint32_t sent_round = r - 1;
      ASSERT_EQ(receiver.last_seen,
                std::vector<std::uint64_t>{sent_round & 1});
      EXPECT_EQ(receiver.fields_seen,
                1 + (sent_round % (Message::kInlineFields + 2)));
    }
  }
}

TEST(MemoryAudit, ReportingProgramsAreStillSwept) {
  auto g = graph::make_path(3);
  class Grower : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      bits = 50 * ctx.round();
      if (ctx.round() >= 4) ctx.vote_halt();
    }
    std::uint64_t memory_bits() const override { return bits; }
    std::uint64_t bits = 1;  // nonzero from the start: the program audits
  };
  for (const Engine engine : {Engine::kSequential, Engine::kParallel}) {
    NetworkConfig cfg;
    cfg.engine = engine;
    cfg.num_threads = 3;
    Network net(g, cfg);
    net.init_programs([](NodeId) { return std::make_unique<Grower>(); });
    const auto phase1 = net.run_rounds(2);
    EXPECT_EQ(phase1.max_node_memory_bits, 100u);
    const auto phase2 = net.run_rounds(2);
    EXPECT_EQ(phase2.max_node_memory_bits, 200u);
    EXPECT_EQ(net.stats().max_node_memory_bits, 200u);
  }
}

TEST(MemoryAudit, AllZeroRoundOneDisablesTheSweep) {
  // Contract pin for the optimization: a program that reports 0 in the
  // first executed round is "not audited" (see NodeProgram::memory_bits),
  // so a later nonzero report is not observed. Programs that audit memory
  // must report nonzero from round 1 — every program in src/algos does.
  auto g = graph::make_path(3);
  class LateReporter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { round = ctx.round(); }
    std::uint64_t memory_bits() const override {
      return round >= 2 ? 4096 : 0;
    }
    std::uint32_t round = 0;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<LateReporter>(); });
  const auto stats = net.run_rounds(5);
  EXPECT_EQ(stats.max_node_memory_bits, 0u);
  // Re-initializing re-arms the audit.
  class Auditor : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
    std::uint64_t memory_bits() const override { return 17; }
  };
  net.init_programs([](NodeId) { return std::make_unique<Auditor>(); });
  EXPECT_EQ(net.run_rounds(2).max_node_memory_bits, 17u);
}

TEST(Quiescence, CountersTrackWaveAcrossEngines) {
  // One wave floods out from node 0 and dies; quiescence must be detected
  // at the same round by the O(1) counters under every engine/thread count
  // (debug builds additionally assert counters == scan every round).
  Rng rng(5);
  auto g = graph::make_connected_er(56, 0.09, rng);
  class Wave : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.broadcast(Message().push(0, 8));
    }
    void on_round(NodeContext& ctx) override {
      if (!seen_ && !ctx.inbox().empty()) {
        seen_ = true;
        ctx.broadcast(Message().push(ctx.id() & 0xff, 8));
      }
      ctx.vote_halt();
    }
    bool seen_ = false;
  };
  RunStats base;
  for (const std::uint32_t threads : {0u, 1u, 2u, 5u}) {
    NetworkConfig cfg;
    cfg.engine = threads == 0 ? Engine::kSequential : Engine::kParallel;
    cfg.num_threads = threads;
    Network net(g, cfg);
    net.init_programs([](NodeId) { return std::make_unique<Wave>(); });
    const auto st = net.run_until_quiescent(200);
    EXPECT_TRUE(st.quiesced);
    if (threads == 0) {
      base = st;
    } else {
      EXPECT_EQ(st.rounds, base.rounds) << threads << " threads";
      EXPECT_EQ(st.messages, base.messages) << threads << " threads";
    }
  }
}

TEST(Quiescence, ReinitAfterPartialRunResetsCounters) {
  // A run abandoned mid-flight (messages still queued, some nodes halted)
  // must not leak counter state into the next init_programs generation.
  auto g = graph::make_cycle(8);
  class Chatter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      ctx.broadcast(Message().push(1, 2));
    }
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Chatter>(); });
  auto st = net.run_until_quiescent(4);
  EXPECT_FALSE(st.quiesced);
  class Sleeper : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
  };
  net.init_programs([](NodeId) { return std::make_unique<Sleeper>(); });
  st = net.run_until_quiescent(5);
  EXPECT_TRUE(st.quiesced);
  EXPECT_EQ(st.rounds, 1u);  // everyone halts in round 1, nothing in flight
}

// ---------------------------------------------------------------------------
// Sparse receiver-side delivery vs a brute-force reference simulator.
//
// Traffic is a stateless function of (seed, round, sender, port): some send
// rounds are silent everywhere, otherwise a random subset of ports carries
// a message of random width. Nodes halt at random and are re-activated by
// mail. The reference below re-derives every inbox, every on_round call,
// every RunStats field and the observer event stream by scanning every
// node and every port every round — no flags, no skipping.

std::uint64_t traffic_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           std::uint64_t d) {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t x : {b, c, d}) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

/// Sender u's message on port q in send-round r (0 = on_start), if any.
std::optional<Message> scheduled(std::uint64_t seed, std::uint32_t r,
                                 NodeId u, std::uint32_t q) {
  if (traffic_hash(seed, r, 0, 0) % 4 == 0) return std::nullopt;  // silent
  const std::uint64_t h = traffic_hash(seed, r, u, q);
  if (h % 3 != 0) return std::nullopt;
  Message m;
  m.push(u, 16).push(r & 0xff, 8);
  for (std::uint32_t i = 0; i < (h >> 8) % 4; ++i) {
    const auto width = 1 + static_cast<std::uint32_t>((h >> (12 + 4 * i)) % 12);
    m.push((h >> (32 + 8 * i)) & ((1u << width) - 1), width);
  }
  return m;
}

bool halts_after(std::uint64_t seed, std::uint32_t r, NodeId u) {
  return traffic_hash(seed ^ 0x5a5a, r, u, 1) % 3 == 0;
}

std::uint64_t memory_of(std::uint64_t received) { return 1 + received % 5; }

struct Logged {
  std::uint32_t round;
  std::uint32_t port;
  Message msg;
  bool operator==(const Logged&) const = default;
};

struct Event {
  NodeId from, to;
  std::uint32_t round;
  Message msg;
  bool operator==(const Event&) const = default;
};

class Chatter : public NodeProgram {
 public:
  explicit Chatter(std::uint64_t seed) : seed_(seed) {}
  void on_start(NodeContext& ctx) override { turn(ctx, 0); }
  void on_round(NodeContext& ctx) override {
    ran.push_back(ctx.round());
    for (const auto& in : ctx.inbox()) {
      heard.push_back(Logged{ctx.round(), in.port, in.msg});
    }
    turn(ctx, ctx.round());
  }
  std::uint64_t memory_bits() const override { return memory_of(heard.size()); }

  std::vector<std::uint32_t> ran;
  std::vector<Logged> heard;

 private:
  void turn(NodeContext& ctx, std::uint32_t r) {
    for (std::uint32_t q = 0; q < ctx.degree(); ++q) {
      if (auto m = scheduled(seed_, r, ctx.id(), q)) ctx.send(q, *m);
    }
    if (halts_after(seed_, r, ctx.id())) ctx.vote_halt();
  }
  std::uint64_t seed_;
};

struct Reference {
  std::vector<std::vector<std::uint32_t>> ran;
  std::vector<std::vector<Logged>> heard;
  std::vector<Event> events;
  RunStats stats;
  std::uint32_t silent_rounds = 0;  ///< rounds that delivered nothing
  std::uint32_t stale_skips = 0;    ///< halted, mailed last round, skipped now
};

Reference simulate_reference(const graph::Graph& g, const NetworkConfig& cfg,
                             std::uint64_t seed, std::uint32_t rounds) {
  const std::uint32_t n = g.n();
  const std::uint32_t bw = cfg.bandwidth_bits;
  const FaultPlan& plan = cfg.fault;
  const bool faults = plan.enabled();
  Reference ref;
  ref.ran.resize(n);
  ref.heard.resize(n);
  std::vector<bool> halted(n, false);
  std::vector<bool> mailed_last(n, false);
  // pending[u][q]: what u queued on port q in the last compute phase.
  std::vector<std::vector<std::optional<Message>>> pending(n);
  const auto turn = [&](NodeId u, std::uint32_t r) {
    pending[u].assign(g.degree(u), std::nullopt);
    for (std::uint32_t q = 0; q < g.degree(u); ++q) {
      pending[u][q] = scheduled(seed, r, u, q);
    }
    if (halts_after(seed, r, u)) halted[u] = true;
  };
  for (NodeId u = 0; u < n; ++u) turn(u, 0);
  for (std::uint32_t r = 1; r <= rounds; ++r) {
    ++ref.stats.rounds;
    std::vector<std::vector<Incoming>> inbox(n);
    std::uint64_t delivered_this_round = 0;
    for (NodeId w = 0; w < n; ++w) {
      const bool w_down = faults && plan.crashed(w, r);
      if (w_down) ++ref.stats.crashed_node_rounds;
      const auto nb = g.neighbors(w);
      for (std::uint32_t p = 0; p < nb.size(); ++p) {
        const NodeId u = nb[p];
        const auto unb = g.neighbors(u);
        const auto q = static_cast<std::uint32_t>(
            std::lower_bound(unb.begin(), unb.end(), w) - unb.begin());
        if (!pending[u][q]) continue;
        Message m = std::move(*pending[u][q]);
        pending[u][q].reset();
        if (faults && (w_down || plan.crashed(u, r) || plan.drops(r, u, w))) {
          ++ref.stats.messages_dropped;
          continue;
        }
        if (m.size_bits() > bw) {
          ++ref.stats.violations;
          if (cfg.policy == BandwidthPolicy::kTruncate) m = m.truncated(bw);
        }
        if (faults && plan.corrupts(r, u, w)) {
          plan.corrupt_in_place(m, r, u, w);
          ++ref.stats.messages_corrupted;
        }
        ++ref.stats.messages;
        ++delivered_this_round;
        ref.stats.bits += m.size_bits();
        ref.stats.max_edge_bits = std::max(ref.stats.max_edge_bits, m.size_bits());
        ref.events.push_back(Event{u, w, r, m});
        inbox[w].push_back(Incoming{p, std::move(m)});
        halted[w] = false;
      }
    }
    if (delivered_this_round == 0) ++ref.silent_rounds;
    for (NodeId v = 0; v < n; ++v) {
      const bool skip = (faults && plan.crashed(v, r)) ||
                        (halted[v] && inbox[v].empty());
      if (skip && halted[v] && mailed_last[v]) ++ref.stale_skips;
      mailed_last[v] = !inbox[v].empty();
      if (skip) continue;
      ref.ran[v].push_back(r);
      for (auto& in : inbox[v]) ref.heard[v].push_back(Logged{r, in.port, in.msg});
      turn(v, r);
    }
    for (NodeId v = 0; v < n; ++v) {
      ref.stats.max_node_memory_bits =
          std::max(ref.stats.max_node_memory_bits, memory_of(ref.heard[v].size()));
    }
  }
  bool quiet = std::all_of(halted.begin(), halted.end(), [](bool h) { return h; });
  for (const auto& slots : pending) {
    for (const auto& m : slots) quiet = quiet && !m;
  }
  ref.stats.quiesced = quiet;
  return ref;
}

void expect_same_stats(const RunStats& a, const RunStats& b, const char* what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bits, b.bits) << what;
  EXPECT_EQ(a.max_edge_bits, b.max_edge_bits) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.quiesced, b.quiesced) << what;
  EXPECT_EQ(a.max_node_memory_bits, b.max_node_memory_bits) << what;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what;
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted) << what;
  EXPECT_EQ(a.crashed_node_rounds, b.crashed_node_rounds) << what;
}

/// Runs Chatter on `g` for `rounds` rounds and checks it against the
/// reference; with `move_at` in (0, rounds) the Network is moved to a new
/// object between two run_rounds calls.
void check_against_reference(const graph::Graph& g, NetworkConfig cfg,
                             std::uint64_t seed, std::uint32_t rounds,
                             std::uint32_t move_at, const char* what) {
  const Reference ref = simulate_reference(g, cfg, seed, rounds);
  auto events = std::make_shared<std::vector<Event>>();
  cfg.observer = std::make_shared<CallbackObserver>(
      [events](NodeId from, NodeId to, const Message& m, std::uint32_t r) {
        events->push_back(Event{from, to, r, m});
      });
  Network first(g, cfg);
  first.init_programs(
      [seed](NodeId) { return std::make_unique<Chatter>(seed); });
  Network* net = &first;
  std::optional<Network> moved;
  if (move_at > 0 && move_at < rounds) {
    first.run_rounds(move_at);
    moved.emplace(std::move(first));
    net = &*moved;
    net->run_rounds(rounds - move_at);
  } else {
    net->run_rounds(rounds);
  }
  expect_same_stats(net->stats(), ref.stats, what);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& prog = net->program_as<Chatter>(v);
    EXPECT_EQ(prog.ran, ref.ran[v]) << what << ": on_round calls of node " << v;
    EXPECT_EQ(prog.heard, ref.heard[v]) << what << ": inboxes of node " << v;
  }
  EXPECT_TRUE(*events == ref.events) << what << ": observer event stream";
  // The traffic really exercises the cases the skip logic must get right.
  EXPECT_GT(ref.silent_rounds, 0u) << what;
  EXPECT_GT(ref.stale_skips, 0u) << what;
  EXPECT_GT(ref.stats.messages, 0u) << what;
}

/// A connected random graph plus one isolated node in the middle of the id
/// range, so the flag scan crosses zero-degree receivers.
graph::Graph with_isolated_node(const graph::Graph& base) {
  const NodeId mid = base.n() / 2;
  std::vector<graph::Edge> edges;
  for (const auto& [u, v] : base.edges()) {
    edges.emplace_back(u >= mid ? u + 1 : u, v >= mid ? v + 1 : v);
  }
  return graph::Graph::from_edges(base.n() + 1, std::move(edges));
}

TEST(SparseDelivery, MatchesBruteForceReferenceOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const auto n = static_cast<std::uint32_t>(9 + 13 * trial);
    auto g = trial % 2 == 0 ? graph::make_connected_er(n, 0.15, rng)
                            : with_isolated_node(graph::make_random_regular(n + (n & 1), 3, rng));
    for (const Engine engine : {Engine::kSequential, Engine::kParallel}) {
      NetworkConfig cfg;
      cfg.engine = engine;
      cfg.num_threads = 3;  // worker ranges not aligned to flag words
      cfg.bandwidth_bits = 40;
      cfg.policy = trial % 3 == 0 ? BandwidthPolicy::kTruncate
                                  : BandwidthPolicy::kRecord;
      check_against_reference(g, cfg, 1000 + trial, 40, 0,
                              engine == Engine::kSequential ? "seq" : "par");
    }
  }
}

TEST(SparseDelivery, MatchesReferenceUnderFaults) {
  Rng rng(78);
  auto g = graph::make_connected_er(41, 0.12, rng);
  for (const Engine engine : {Engine::kSequential, Engine::kParallel}) {
    NetworkConfig cfg;
    cfg.engine = engine;
    cfg.num_threads = 3;
    cfg.bandwidth_bits = 40;
    cfg.policy = BandwidthPolicy::kRecord;
    cfg.fault.drop_probability = 0.1;
    cfg.fault.corrupt_probability = 0.1;
    cfg.fault.seed = 9;
    cfg.fault.crashes = {CrashWindow{3, 4, 12}, CrashWindow{20, 10, 0}};
    check_against_reference(g, cfg, 4242, 40, 0,
                            engine == Engine::kSequential ? "seq" : "par");
  }
}

TEST(SparseDelivery, MovedNetworkRunsIdentically) {
  Rng rng(79);
  auto g = graph::make_connected_er(30, 0.15, rng);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 40;
  cfg.policy = BandwidthPolicy::kRecord;
  check_against_reference(g, cfg, 31337, 40, 17, "moved");
}

TEST(SparseDelivery, MailedThenIdleNodeSeesEmptyInbox) {
  // Node 0 mails node 1 in round 1 only; node 1 never halts, so it runs in
  // round 2 with nothing delivered and must not see round 1's message.
  auto g = graph::make_path(3);
  class Once : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.send(0, Message().push(7, 3));
    }
    void on_round(NodeContext& ctx) override {
      sizes.push_back(ctx.inbox().size());
    }
    std::vector<std::size_t> sizes;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Once>(); });
  net.run_rounds(3);
  EXPECT_EQ(net.program_as<Once>(1).sizes, (std::vector<std::size_t>{1, 0, 0}));
}

TEST(SparseDelivery, HaltedNodeWithStaleInboxStaysSkipped) {
  // Node 1 halts in round 1 after its only mail; in round 2 nothing is
  // delivered to it, so compute must skip it although its stored inbox
  // still holds round 1's message.
  auto g = graph::make_path(2);
  class Sleeper : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.send(0, Message().push(1, 1));
      ctx.vote_halt();
    }
    void on_round(NodeContext& ctx) override {
      ran.push_back(ctx.round());
      ctx.vote_halt();
    }
    std::vector<std::uint32_t> ran;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Sleeper>(); });
  const RunStats st = net.run_until_quiescent(10);
  EXPECT_TRUE(st.quiesced);
  EXPECT_EQ(st.rounds, 1u);
  net.run_rounds(3);  // keeps running past quiescence: still nobody to run
  EXPECT_EQ(net.program_as<Sleeper>(1).ran, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(net.program_as<Sleeper>(0).ran.empty());
}

// ---------------------------------------------------------------------------
// The sleep contract: a sleeping node's on_round is skipped until its wake
// round unless mail arrives; the request lasts until the next on_round.

using RunLog = std::vector<std::pair<std::uint32_t, std::size_t>>;

/// Logs every on_round as (round, inbox size) and lets each test script
/// what a node does at start and in each round.
class Napper : public NodeProgram {
 public:
  using Script = std::function<void(Napper&, NodeContext&)>;
  Napper(Script start, Script round)
      : start_(std::move(start)), round_(std::move(round)) {}
  void on_start(NodeContext& ctx) override {
    if (start_) start_(*this, ctx);
  }
  void on_round(NodeContext& ctx) override {
    ran.emplace_back(ctx.round(), ctx.inbox().size());
    if (round_) round_(*this, ctx);
  }
  std::uint64_t memory_bits() const override { return memory; }

  RunLog ran;
  std::uint64_t memory = 8;

 private:
  Script start_, round_;
};

TEST(SleepContract, SleeperRunsExactlyAtItsWakeRoundWithAnEmptyInbox) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId) {
    return std::make_unique<Napper>(
        [](Napper&, NodeContext& ctx) { ctx.sleep_until(5); },
        [](Napper&, NodeContext& ctx) { ctx.sleep_until(ctx.round() + 3); });
  });
  net.run_rounds(12);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(net.program_as<Napper>(v).ran, (RunLog{{5, 0}, {8, 0}, {11, 0}}));
  }
}

TEST(SleepContract, MailWakesASleeperEarly) {
  // Node 1 mails node 0 at start (delivered in round 1) and in round 3
  // (delivered in round 4); node 0 asks to sleep until round 10 every time
  // it runs before it, and runs on each delivery all the same.
  auto g = graph::make_path(2);
  Network net(g);
  net.init_programs([](NodeId v) {
    if (v == 0) {
      const auto nap = [](Napper&, NodeContext& ctx) {
        ctx.sleep_until(ctx.round() < 10 ? 10 : NodeContext::kNever);
      };
      return std::make_unique<Napper>(nap, nap);
    }
    return std::make_unique<Napper>(
        [](Napper&, NodeContext& ctx) {
          ctx.send(0, Message().push(1, 1));
          ctx.sleep_until(3);
        },
        [](Napper&, NodeContext& ctx) {
          if (ctx.round() == 3) ctx.send(0, Message().push(1, 1));
          ctx.sleep_until(NodeContext::kNever);
        });
  });
  net.run_rounds(12);
  EXPECT_EQ(net.program_as<Napper>(0).ran, (RunLog{{1, 1}, {4, 1}, {10, 0}}));
  EXPECT_EQ(net.program_as<Napper>(1).ran, (RunLog{{3, 0}}));
}

TEST(SleepContract, SleepUntilNotAfterTheCurrentRoundIsANoOp) {
  auto g = graph::make_path(2);
  Network net(g);
  net.init_programs([](NodeId v) {
    return std::make_unique<Napper>(
        [](Napper&, NodeContext& ctx) { ctx.sleep_until(0); },
        [v](Napper&, NodeContext& ctx) {
          if (v == 0) {
            ctx.sleep_until(ctx.round());      // no-op: runs next round
            ctx.sleep_until(ctx.round() - 1);  // no-op
          } else if (ctx.round() == 2) {
            ctx.sleep_until(6);
            ctx.sleep_until(2);  // no-op: keeps the request for round 6
          }
        });
  });
  net.run_rounds(6);
  EXPECT_EQ(net.program_as<Napper>(0).ran,
            (RunLog{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}}));
  EXPECT_EQ(net.program_as<Napper>(1).ran, (RunLog{{1, 0}, {2, 0}, {6, 0}}));
}

TEST(SleepContract, ReinitClearsSleep) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId) {
    return std::make_unique<Napper>(
        [](Napper&, NodeContext& ctx) { ctx.sleep_until(100); }, nullptr);
  });
  net.run_rounds(3);
  EXPECT_TRUE(net.program_as<Napper>(1).ran.empty());
  // The next programs never sleep, so they run from round 1 on.
  net.init_programs(
      [](NodeId) { return std::make_unique<Napper>(nullptr, nullptr); });
  net.run_rounds(2);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(net.program_as<Napper>(v).ran, (RunLog{{1, 0}, {2, 0}}));
  }
}

TEST(SleepContract, SleepingNodeIsNotHalted) {
  auto g = graph::make_path(3);
  for (const Engine engine : {Engine::kSequential, Engine::kParallel}) {
    NetworkConfig cfg;
    cfg.engine = engine;
    cfg.num_threads = 3;
    Network net(g, cfg);
    net.init_programs([](NodeId) {
      return std::make_unique<Napper>(
          [](Napper&, NodeContext& ctx) {
            ctx.sleep_until(NodeContext::kNever);
          },
          nullptr);
    });
    const RunStats st = net.run_until_quiescent(20);
    EXPECT_FALSE(st.quiesced);
    EXPECT_EQ(st.rounds, 20u);
    EXPECT_TRUE(net.program_as<Napper>(0).ran.empty());
    // A halted node ignores a later sleep request: it waits for mail.
    net.init_programs([](NodeId) {
      return std::make_unique<Napper>(
          [](Napper&, NodeContext& ctx) {
            ctx.vote_halt();
            ctx.sleep_until(2);
          },
          nullptr);
    });
    const RunStats halted = net.run_until_quiescent(20);
    EXPECT_TRUE(halted.quiesced);
    EXPECT_EQ(halted.rounds, 0u);
    EXPECT_TRUE(net.run_rounds(4).quiesced);
    EXPECT_TRUE(net.program_as<Napper>(0).ran.empty());
  }
}

TEST(SleepContract, SleepersPrePhaseMemoryCountsInTheNextPhase) {
  // Node 1 grows to 4096 bits in round 2 and then sleeps for good; the
  // others stay awake at 8 bits. Node 1 never runs in phase 2, yet it
  // still holds its 4096 bits there, so phase 2's maximum is 4096.
  auto g = graph::make_path(3);
  for (const Engine engine : {Engine::kSequential, Engine::kParallel}) {
    NetworkConfig cfg;
    cfg.engine = engine;
    cfg.num_threads = 3;
    Network net(g, cfg);
    net.init_programs([](NodeId v) {
      return std::make_unique<Napper>(nullptr, [v](Napper& self,
                                                   NodeContext& ctx) {
        if (v == 1 && ctx.round() == 2) {
          self.memory = 4096;
          ctx.sleep_until(NodeContext::kNever);
        }
      });
    });
    EXPECT_EQ(net.run_rounds(3).max_node_memory_bits, 4096u);
    EXPECT_EQ(net.run_rounds(3).max_node_memory_bits, 4096u);
    EXPECT_EQ(net.program_as<Napper>(1).ran, (RunLog{{1, 0}, {2, 0}}));
  }
}

// ---------------------------------------------------------------------------
// Network reuse across Figure 2 branches.

TEST(NetworkReuse, ReusedNetworkMatchesFreshNetworks) {
  Rng rng(2026);
  auto g = graph::make_random_with_diameter(48, 7, rng);
  const auto tree = algos::build_bfs_tree(g, 0).tree;
  const std::uint32_t steps = 2 * tree.height;
  Network reused(g);
  for (NodeId u0 = 0; u0 < g.n(); ++u0) {
    const auto fresh = algos::evaluate_window_ecc(g, tree, u0, steps);
    const auto again = algos::evaluate_window_ecc(reused, tree, u0, steps);
    EXPECT_EQ(again.max_ecc, fresh.max_ecc) << "u0=" << u0;
    EXPECT_EQ(again.window, fresh.window) << "u0=" << u0;
    EXPECT_EQ(again.tau_prime, fresh.tau_prime) << "u0=" << u0;
    expect_same_stats(again.stats, fresh.stats, "reused vs fresh");
  }
}

TEST(NetworkReuse, NoAllocationsInRunRoundsFromTheSecondBranchOn) {
  Rng rng(2027);
  auto g = graph::make_random_with_diameter(64, 8, rng);
  const auto tree = algos::build_bfs_tree(g, 0).tree;
  algos::EvaluationProgram::Params p;
  p.steps = 2 * tree.height;
  p.pipeline_len = 2 * p.steps + 2 * tree.height + 2;
  p.tree_height = tree.height;
  p.n = g.n();
  const std::uint32_t total =
      algos::EvaluationProgram::token_phase_rounds(p.steps) + p.pipeline_len +
      tree.height + 1;
  Network net(g);
  for (NodeId u0 = 0; u0 < g.n(); ++u0) {
    p.u0 = u0;
    net.init_programs([&](NodeId v) {
      return std::make_unique<algos::EvaluationProgram>(p, tree.parent[v],
                                                        tree.depth[v], true);
    });
    const std::uint64_t before = qc::alloc_probe_count().load();
    const RunStats st = net.run_rounds(total);
    const std::uint64_t after = qc::alloc_probe_count().load();
    ASSERT_GT(st.messages, 0u);
    if (u0 > 0) {
      EXPECT_EQ(after - before, 0u)
          << "branch u0=" << u0 << " allocated inside run_rounds";
    }
  }
}

}  // namespace
}  // namespace qc::congest
