#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "congest/observer.hpp"
#include "graph/graph.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qc::metrics {
class MetricsRegistry;
}  // namespace qc::metrics

namespace qc::congest {

using graph::NodeId;

class Network;

/// A message delivered to a node, tagged with the port it arrived on.
struct Incoming {
  std::uint32_t port;
  Message msg;
};

/// Incrementally maintained quiescence state: the exact quantities the old
/// O(n + Σdeg) all_quiet() scan recomputed per round, so the check is O(1).
/// Halt transitions update `halted` immediately; message counts are batched
/// (each compute/deliver slice flushes one add/sub for its whole range, see
/// NodeContext::pending_sends_), so the hot loops pay no per-message atomic
/// RMW. Updates are relaxed atomics — in the parallel engine the round
/// barriers order them before thread 0 reads, and the counters never
/// influence message contents or delivery order, so traces stay
/// bit-identical across engines and thread counts. Debug builds cross-check
/// against the scan.
struct QuiesceCounters {
  std::atomic<std::int64_t> inflight{0};  ///< queued outbox slots not yet consumed
  std::atomic<std::int64_t> halted{0};    ///< nodes whose halted flag is set
};

/// Per-round view a NodeProgram gets of its node. This is the *entire*
/// interface a distributed algorithm may use: local identity, local ports,
/// the global value n (which the CONGEST model grants every node), the
/// current round number, this round's inbox, and send primitives.
class NodeContext {
 public:
  NodeId id() const { return id_; }

  /// Number of incident edges (= number of ports).
  std::uint32_t degree() const { return static_cast<std::uint32_t>(neighbors_.size()); }

  /// Identifier of the neighbor on `port` (nodes know their incident edges).
  NodeId neighbor(std::uint32_t port) const {
    require(port < degree(), "NodeContext::neighbor: port out of range");
    return neighbors_[port];
  }

  /// Port leading to neighbor `v`; throws if v is not adjacent.
  std::uint32_t port_to(NodeId v) const;

  /// Number of nodes in the network (known a priori in the model).
  std::uint32_t n() const { return n_; }

  /// Bit width of a node identifier (= ceil(log2 n)).
  std::uint32_t id_bits() const { return qc::bit_width_for(n_); }

  /// Current round, starting at 1 for the first round with deliveries.
  std::uint32_t round() const { return *round_; }

  /// Messages delivered this round (sent by neighbors last round). The
  /// stored inbox is stamped with the round that filled it; a node that
  /// received nothing this round sees an empty inbox without delivery ever
  /// touching its context.
  std::span<const Incoming> inbox() const {
    if (inbox_round_ != *round_) return {};
    return inbox_;
  }

  /// Queues a message on `port` for delivery next round. At most one
  /// message per port per round.
  void send(std::uint32_t port, Message msg);

  /// Queues a message to the neighbor with id `v`.
  void send_to(NodeId v, Message msg) { send(port_to(v), std::move(msg)); }

  /// Sends a copy of `msg` on every port.
  void broadcast(const Message& msg);

  /// Signals that this node has no further work; the quiescence run mode
  /// stops when every node has halted and no message is in flight. A halted
  /// node is re-activated automatically if a message arrives. Halts are
  /// rare (at most one transition per node per round), so the counter
  /// update is immediate rather than batched like the message counts.
  void vote_halt() {
    if (halted_) return;
    halted_ = true;
    quiesce_->halted.fetch_add(1, std::memory_order_relaxed);
  }

  /// Deterministic per-node randomness (seeded from the network seed and
  /// the node id).
  Rng& rng() { return rng_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  std::uint32_t n_ = 0;
  /// The Network's round counter (heap-held, so the pointer survives
  /// Network moves); every context reads the same word instead of the
  /// delivery pass writing a copy into each of them per round.
  const std::uint32_t* round_ = nullptr;
  /// Round in which inbox_ was last filled; inbox() hides a stale inbox.
  std::uint32_t inbox_round_ = 0;
  /// This node's ports' neighbors: a slice of the Network's nbr_flat_.
  std::span<const NodeId> neighbors_;
  std::vector<Incoming> inbox_;
  /// This node's slice [0, degree) of the Network's flat outbox storage
  /// (sender order: port p queues into outbox_[p]) and of its rev table
  /// (rev_[p] is the receiver-order index of that directed edge). A send
  /// on port p stores the message in outbox_[p] and raises the receiver's
  /// used flag used_[rev_[p]]; used_ is the base of the whole flag array,
  /// which is in receiver order. Raw pointers stay valid across Network
  /// moves (vector storage is stable); the arrays are sized once at
  /// construction.
  Message* outbox_ = nullptr;
  const std::uint32_t* rev_ = nullptr;
  std::uint8_t* used_ = nullptr;
  /// Messages queued by this node since the last counter flush. Owner-
  /// thread-only plain counter; compute_range drains it into
  /// QuiesceCounters::inflight in one batched atomic per slice.
  std::uint32_t pending_sends_ = 0;
  QuiesceCounters* quiesce_ = nullptr;  ///< owned by the Network
  bool halted_ = false;
  Rng rng_{0};
};

/// A distributed algorithm, written once per node. Implementations hold the
/// node's local state as member data; the simulator guarantees they can
/// observe nothing beyond their NodeContext.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 1; typical use: originators send the first
  /// messages (e.g. the BFS root of Figure 1 activating its neighbors).
  virtual void on_start(NodeContext& /*ctx*/) {}

  /// Called every round after delivery; read ctx.inbox(), update state,
  /// send messages.
  virtual void on_round(NodeContext& ctx) = 0;

  /// Number of bits of local working state the program currently holds;
  /// used to audit the paper's per-node memory claims (e.g. O(log n) for
  /// Figures 1-2). Zero means "not reported". If *every* program in a
  /// network reports 0 in the first executed round, the simulator stops
  /// polling this for the rest of the run (the per-round virtual-call sweep
  /// is pure overhead for non-reporting programs); a program that audits
  /// memory must therefore report a nonzero value from round 1 onward.
  virtual std::uint64_t memory_bits() const { return 0; }

  /// State transfer for the multi-process shard backend: append every bit
  /// of observable program state to `out` as explicit-width fields. After a
  /// sharded run the coordinator restores each worker-side program into a
  /// local replica via restore_state, so driver code that reads results
  /// through program_as works unchanged. The pair must round-trip exactly
  /// (restore(serialize(p)) == p in every observable respect); the defaults
  /// throw, so a program that was never taught to move its state fails
  /// loudly at harvest time instead of silently reporting initial state.
  virtual void serialize_state(Message& out) const;
  virtual void restore_state(const Message& in);
};

/// How the network reacts to a bandwidth violation.
enum class BandwidthPolicy {
  kEnforce,   ///< throw BandwidthViolationError immediately (default)
  kRecord,    ///< count violations in the stats but deliver anyway
  kTruncate,  ///< count the violation but deliver Message::truncated(bw):
              ///< leading fields that fit survive, the first overflowing
              ///< field is narrowed to the remaining bits, the rest is
              ///< cut. Stats count the clipped (delivered) bits.
};

/// True iff `neighbors` is strictly increasing — the port-order invariant
/// that NodeContext::port_to's binary search (and the deterministic inbox
/// assembly) relies on. The Network constructor validates every adjacency
/// list with this so an unsorted topology fails loudly at construction
/// instead of silently misrouting messages.
bool neighbors_strictly_sorted(std::span<const graph::NodeId> neighbors);

/// Precomputes, for every node w and port p with neighbor u = adjacency[w][p],
/// the reverse port q such that adjacency[u][q] == w. The Network builds this
/// table once at construction so the delivery loop reaches the sender's
/// outbox slot in O(1) instead of binary-searching port_to on every edge
/// every round. Throws InvalidArgumentError if any list is not strictly
/// sorted (the invariant that makes port numbering well-defined), names a
/// node outside [0, adjacency.size()), or is not symmetric (w lists u but
/// u does not list w) — a corrupted adjacency must fail construction loudly
/// instead of silently misrouting messages.
std::vector<std::vector<std::uint32_t>> build_reverse_ports(
    std::span<const std::vector<graph::NodeId>> adjacency);

/// Execution engine choice; both produce bit-identical traces.
enum class Engine {
  kSequential,
  kParallel,  ///< one worker per hardware thread, std::barrier synchronized
};

struct NetworkConfig {
  /// Per-edge per-direction per-round bandwidth in bits. Zero means "use
  /// the model default" congest_bandwidth_bits(n).
  std::uint32_t bandwidth_bits = 0;
  BandwidthPolicy policy = BandwidthPolicy::kEnforce;
  Engine engine = Engine::kSequential;
  std::uint64_t seed = 1;
  std::uint32_t num_threads = 0;  ///< 0 = hardware_concurrency

  /// Optional observer notified of every delivered message (sender,
  /// receiver, message, round). Used by the lower-bound harness to tally
  /// traffic crossing a vertex partition (Theorems 10/11) and by the
  /// trace/audit tooling. Supported by **both** engines: the parallel
  /// engine buffers events per worker and flushes them at the round
  /// barrier in the same (round, receiver, port) order the sequential
  /// engine produces, so observed streams are bit-identical either way.
  /// Compose several observers with MultiObserver; metrics never use it.
  std::shared_ptr<DeliveryObserver> observer;

  /// Deterministic fault schedule (message drops, bit corruption, node
  /// crashes) applied during delivery. Disabled by default; a disabled
  /// plan leaves every execution bit-identical to the pre-fault-layer
  /// behavior. Decisions are stateless hashes of (fault seed, round,
  /// sender, receiver), so for a fixed plan both engines produce the same
  /// trace at every thread count. Observers never see dropped messages and
  /// see corrupted/truncated messages as delivered.
  FaultPlan fault;
};

/// Aggregate statistics of one execution phase. run_rounds and
/// run_until_quiescent return the stats of *that call only* — counters
/// count the phase's own traffic and the maxima are per-phase maxima, not
/// lifetime high-water marks; Network::stats() keeps the lifetime
/// aggregate.
struct RunStats {
  std::uint32_t rounds = 0;        ///< rounds actually executed
  std::uint64_t messages = 0;      ///< messages delivered
  std::uint64_t bits = 0;          ///< total bits delivered
  std::uint32_t max_edge_bits = 0; ///< max bits on one edge-direction in a round
  std::uint64_t violations = 0;    ///< bandwidth violations (kRecord/kTruncate)
  bool quiesced = false;           ///< network was quiescent when the phase ended
  std::uint64_t max_node_memory_bits = 0;  ///< high-water mark of memory_bits()
  std::uint64_t messages_dropped = 0;    ///< deliveries suppressed by the fault plan
  std::uint64_t messages_corrupted = 0;  ///< deliveries with a fault bit flip
  std::uint64_t crashed_node_rounds = 0; ///< (node, round) pairs spent crashed

  /// Merges stats of a later phase into this one (rounds add up, maxima
  /// combine by max, quiesced reflects the later phase).
  RunStats& operator+=(const RunStats& other);
};

/// A synchronous CONGEST network over a Graph topology.
///
/// Usage:
///   Network net(g, cfg);
///   net.init_programs([&](NodeId v) { return std::make_unique<MyProg>(...); });
///   RunStats st = net.run_rounds(T);            // time-driven
///   auto& out = net.program_as<MyProg>(v);      // read outputs
class Network {
 public:
  Network(const graph::Graph& g, NetworkConfig cfg = {});

  /// Instantiates one program per node. `make(v)` returns the program for
  /// node v. Clears any previous programs and resets round/state.
  void init_programs(
      const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make);

  /// Runs exactly `rounds` rounds (time-driven procedures such as Figure 2,
  /// which executes for a fixed 6d-round budget, use this mode). Returns
  /// the stats of this call only (true per-phase deltas).
  RunStats run_rounds(std::uint32_t rounds);

  /// Runs until every node has halted and no message is in flight, or
  /// until `max_rounds` elapses. stats.quiesced tells which happened.
  /// Returns the stats of this call only (true per-phase deltas).
  RunStats run_until_quiescent(std::uint32_t max_rounds);

  const graph::Graph& topology() const { return *graph_; }
  std::uint32_t n() const { return graph_->n(); }
  std::uint32_t bandwidth_bits() const { return bandwidth_bits_; }

  NodeProgram& program(NodeId v) {
    require(v < n() && programs_[v] != nullptr, "Network::program: no program");
    return *programs_[v];
  }
  const NodeProgram& program(NodeId v) const {
    require(v < n() && programs_[v] != nullptr, "Network::program: no program");
    return *programs_[v];
  }

  /// Typed access to a node's program (the caller knows what it installed).
  template <typename T>
  T& program_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&program(v));
    require(p != nullptr, "Network::program_as: wrong program type");
    return *p;
  }

  /// Stats accumulated since init_programs.
  const RunStats& stats() const { return stats_; }

  /// A delivery buffered for a deferred observer flush (parallel workers at
  /// the round barrier, shard workers shipping events to the coordinator).
  /// It names the receiver's inbox slot rather than the sender's outbox
  /// slot so the flushed event carries the message *as delivered* (after
  /// any fault corruption or bandwidth truncation); the inbox is fully
  /// assembled and stable once the deliver pass of the round is over.
  struct PendingDelivery {
    NodeId from;
    NodeId to;
    std::uint32_t inbox_index;
  };

  // ---- Shard-backend hooks (src/congest/shard) ---------------------------
  // A worker process of the multi-process backend holds a full Network
  // replica and drives it through these entry points instead of run_rounds/
  // run_until_quiescent: the coordinator owns the round loop and the
  // quiescence / memory-audit decisions, and each worker executes only its
  // owned slice of every round. The hooks reuse the exact deliver_range /
  // compute_range / flat-outbox code paths of the in-process engines —
  // which is what makes sharded executions bit-identical by construction.
  // Boundary traffic moves by flat outbox slot index: the sending worker
  // extracts a queued slot (without touching the quiescence counter — the
  // send was already counted), the coordinator routes it, and the owning
  // worker injects it into the same slot of its replica, where the normal
  // delivery pass consumes it.

  /// on_start for nodes in [begin, end) — the worker's share of the
  /// one-time start phase; queued sends are counted locally.
  void shard_start_range(std::uint32_t begin, std::uint32_t end);

  /// Advances to the next round (round_+1) and refreshes the crash index,
  /// exactly as step_round's round prologue does.
  void shard_begin_round();
  std::uint32_t shard_round() const { return *round_; }

  void shard_deliver_range(std::uint32_t begin, std::uint32_t end,
                           RunStats& local,
                           std::vector<PendingDelivery>* sink) {
    deliver_range(begin, end, local, sink, /*tally=*/nullptr);
  }
  void shard_compute_range(std::uint32_t begin, std::uint32_t end) {
    compute_range(begin, end);
  }

  /// Max of memory_bits() over [begin, end); the worker's contribution to
  /// the coordinator's audit decision (see memory_audit_).
  std::uint64_t shard_memory_max_range(std::uint32_t begin,
                                       std::uint32_t end) const;
  /// The coordinator owns the disarm-after-round-1 decision for the whole
  /// network; workers just follow it.
  void shard_set_memory_audit(bool on) { memory_audit_ = on; }

  std::uint32_t shard_slot_count() const {
    return static_cast<std::uint32_t>(outbox_flat_.size());
  }
  /// First flat outbox slot of node v; v's port p queues into slot
  /// shard_out_base(v) + p. Slot ids are sender-ordered; the used flag of
  /// slot s lives at the receiver-ordered index shard_flag_of(s).
  std::uint32_t shard_out_base(NodeId v) const { return out_base_[v]; }
  std::uint32_t shard_flag_of(std::uint32_t slot) const { return rev_[slot]; }
  /// True iff the slot whose flag index is `flag` holds a queued message.
  bool shard_flag_pending(std::uint32_t flag) const {
    return used_flat_[flag] != 0;
  }
  /// Moves a queued message out of `slot` and clears its flag. Does NOT
  /// decrement the inflight counter: the message is still in flight (its
  /// receiving worker's delivery pass decrements on consume), so the
  /// per-worker counters sum to the single-process value.
  Message shard_extract_slot(std::uint32_t slot);
  /// Reads a queued slot's message in place — the shm mesh transport
  /// serializes it straight into shared memory without moving it out.
  const Message& shard_slot_message(std::uint32_t slot) const {
    return outbox_flat_[slot];
  }
  /// Clears a queued slot after its contents were copied out, keeping the
  /// message's spill capacity (Message::clear). Same quiescence-counter
  /// contract as shard_extract_slot: the in-flight count is untouched.
  void shard_clear_slot(std::uint32_t slot) {
    used_flat_[rev_[slot]] = 0;
    outbox_flat_[slot].clear();
  }
  /// Copies a boundary message into `slot` (which must be free; the copy
  /// reuses the slot's spill capacity) and sets its flag. Does NOT
  /// increment inflight: the sender's worker already counted the send.
  void shard_inject_slot(std::uint32_t slot, const Message& msg);

  std::int64_t shard_inflight() const {
    return quiesce_->inflight.load(std::memory_order_relaxed);
  }
  std::int64_t shard_halted() const {
    return quiesce_->halted.load(std::memory_order_relaxed);
  }

  /// The message a buffered PendingDelivery refers to, as delivered.
  const Message& shard_inbox_message(const PendingDelivery& d) const {
    return contexts_[d.to].inbox_[d.inbox_index].msg;
  }

 private:
  /// One phase's bucket counts of the congest.* delivery histograms, one
  /// overflow bucket past each last bound (bounds in network.cpp). Their
  /// sums are the phase's RunStats messages and bits.
  struct DeliveryTally {
    std::array<std::uint64_t, 15> message_bits{};    ///< per delivered message
    std::array<std::uint64_t, 16> round_messages{};  ///< per round with mail
    std::array<std::uint64_t, 14> round_bits{};      ///< per round with mail

    void add_message(std::uint32_t bits);
    void add_round(std::uint64_t messages, std::uint64_t bits);
  };

  void start_if_needed();
  /// Shared body of run_rounds / run_until_quiescent: executes one phase,
  /// accumulates it into the lifetime stats_, and returns the phase stats.
  RunStats run_phase(std::uint32_t max_rounds, bool until_quiet);
  /// One sequential round; with a tally, also its histogram samples.
  void step_round(RunStats& phase, DeliveryTally* tally);
  void compute_range(std::uint32_t begin, std::uint32_t end);
  /// Delivers receivers [begin, end)'s mail. Each delivery goes to `sink`
  /// if given, else to the observer if set; `tally` buckets its size.
  void deliver_range(std::uint32_t begin, std::uint32_t end,
                     RunStats& local_stats,
                     std::vector<PendingDelivery>* sink, DeliveryTally* tally);
  /// O(1) quiescence check off the incrementally maintained QuiesceCounters;
  /// debug builds assert it against all_quiet_scan().
  bool all_quiet() const;
  /// The original O(n + Σdeg) rescan, kept as the debug-build ground truth
  /// for the counters.
  bool all_quiet_scan() const;
  void reseed_node_rngs();
  /// Runs up to `max_rounds` on `threads` (> 1) persistent workers (one
  /// spawn per call, 3 barriers per round); stops early at quiescence when
  /// `until_quiet`. Accumulates into `phase`.
  void run_parallel_block(std::uint32_t max_rounds, bool until_quiet,
                          RunStats& phase, DeliveryTally* tally,
                          unsigned threads);

  const graph::Graph* graph_;
  NetworkConfig cfg_;
  /// The global metrics registry installed when this Network was built
  /// (null when metrics were off); it must outlive the Network's runs. Each
  /// phase tallies its deliveries next to its RunStats, and run_phase folds
  /// tallies and counters into the registry once, at phase end.
  metrics::MetricsRegistry* metrics_ = nullptr;
  std::uint32_t bandwidth_bits_ = 0;
  bool fault_enabled_ = false;
  /// O(1) per-check crash lookup, refreshed once per round (the hot
  /// delivery loop would otherwise scan the crash list per edge).
  CrashIndex crash_index_;
  /// Heap-allocated so NodeContext's raw pointer stays valid if the
  /// Network object itself moves.
  std::unique_ptr<std::uint32_t> round_ = std::make_unique<std::uint32_t>(0);
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<NodeContext> contexts_;
  /// Directed edge storage. Edge u->w, on u's port q and w's port p, has
  /// the sender-order index s = out_base_[u] + q and the receiver-order
  /// index f = out_base_[w] + p; rev_ maps each to the other (rev_[s] == f,
  /// rev_[f] == s, so it is its own inverse), precomputed from
  /// build_reverse_ports. out_base_ has n + 1 entries, so node w's ports
  /// are the contiguous range [out_base_[w], out_base_[w + 1]) in either
  /// order.
  ///
  /// outbox_flat_[s] holds the message u queued on port q (sender order,
  /// so senders write their own contiguous slice). used_flat_[f] is set
  /// by the sender and cleared by the receiver as it consumes the message
  /// (receiver order, so the delivery pass reads the flags in the order it
  /// assembles inboxes and skips idle flag words 8 bytes at a time). Every
  /// queued slot is examined by its unique receiver each round (delivered
  /// or dropped), so the flags are self-clearing and no per-round reset
  /// pass exists. In the parallel engine senders write flags inside other
  /// workers' receiver ranges, but each flag has exactly one sender and one
  /// receiver, and the writes and reads are on opposite sides of a round
  /// barrier.
  std::vector<Message> outbox_flat_;
  std::vector<std::uint8_t> used_flat_;
  std::vector<std::uint32_t> rev_;
  /// nbr_flat_[out_base_[w] + p] is w's neighbor on port p (the sender of
  /// the message behind flag out_base_[w] + p); NodeContext::neighbors_
  /// views its node's slice.
  std::vector<NodeId> nbr_flat_;
  std::vector<std::uint32_t> out_base_;
  /// Heap-allocated so NodeContext's raw pointer stays valid if the
  /// Network object itself moves.
  std::unique_ptr<QuiesceCounters> quiesce_ =
      std::make_unique<QuiesceCounters>();
  /// While true, step_round / run_parallel_block sweep every program's
  /// virtual memory_bits() after compute. Cleared permanently (until the
  /// next init_programs) once a whole round reports 0 everywhere — see
  /// NodeProgram::memory_bits.
  bool memory_audit_ = true;
  RunStats stats_;
  bool started_ = false;
};

}  // namespace qc::congest
