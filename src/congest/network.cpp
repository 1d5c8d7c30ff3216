#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cassert>
#include <cstring>
#include <sstream>
#include <thread>

#include "util/metrics.hpp"

namespace qc::congest {

namespace {

// Bucket bounds of the congest.* histograms (DeliveryTally's array sizes;
// merge_histogram rejects a mismatch). Deliveries per round grow with n,
// so the round histograms cover a generous power-of-two range; messages
// are O(log n) bits, so a finer ladder resolves bandwidth occupancy.
const std::vector<double> kRoundBounds = {1,    2,    4,     8,     16,
                                          32,   64,   128,   256,   512,
                                          1024, 4096, 16384, 65536, 262144};
const std::vector<double> kBitsBounds = {8,    16,    32,    64,     128,
                                         256,  1024,  4096,  16384,  65536,
                                         262144, 1048576, 4194304};
const std::vector<double> kMessageBitsBounds = {1,  2,  4,  8,  12, 16, 20,
                                                24, 32, 40, 48, 64, 96, 128};

/// MetricsRegistry::observe's bucket: the first bound >= v, else overflow.
std::size_t bucket_of(const std::vector<double>& bounds, double v) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

}  // namespace

void Network::DeliveryTally::add_message(std::uint32_t bits) {
  ++message_bits[bucket_of(kMessageBitsBounds, bits)];
}

void Network::DeliveryTally::add_round(std::uint64_t messages,
                                       std::uint64_t bits) {
  if (messages == 0) return;
  ++round_messages[bucket_of(kRoundBounds, static_cast<double>(messages))];
  ++round_bits[bucket_of(kBitsBounds, static_cast<double>(bits))];
}

bool neighbors_strictly_sorted(std::span<const graph::NodeId> neighbors) {
  return std::adjacent_find(neighbors.begin(), neighbors.end(),
                            std::greater_equal<graph::NodeId>()) ==
         neighbors.end();
}

std::vector<std::vector<std::uint32_t>> build_reverse_ports(
    std::span<const std::vector<graph::NodeId>> adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::vector<std::uint32_t>> reverse(n);
  for (std::size_t w = 0; w < n; ++w) {
    const auto& nb = adjacency[w];
    require(neighbors_strictly_sorted(nb),
            "build_reverse_ports: adjacency lists must be strictly sorted "
            "(port numbering and the reverse-port table both rely on it; an "
            "unsorted list would silently misroute messages)");
    reverse[w].resize(nb.size());
    for (std::size_t p = 0; p < nb.size(); ++p) {
      const graph::NodeId u = nb[p];
      require(u < n, "build_reverse_ports: adjacency names an unknown node");
      const auto& unb = adjacency[u];
      const auto it = std::lower_bound(unb.begin(), unb.end(),
                                       static_cast<graph::NodeId>(w));
      require(it != unb.end() && *it == static_cast<graph::NodeId>(w),
              "build_reverse_ports: adjacency is not symmetric (a node "
              "lists a neighbor whose list omits the reverse edge)");
      reverse[w][p] = static_cast<std::uint32_t>(it - unb.begin());
    }
  }
  return reverse;
}

std::uint32_t NodeContext::port_to(NodeId v) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), v);
  require(it != neighbors_.end() && *it == v,
          "NodeContext::port_to: not adjacent to that node");
  return static_cast<std::uint32_t>(it - neighbors_.begin());
}

void NodeContext::send(std::uint32_t port, Message msg) {
  require(port < degree(), "NodeContext::send: port out of range");
  std::uint8_t& used = used_[rev_[port]];
  require(!used, "NodeContext::send: at most one message per port per round");
  outbox_[port] = std::move(msg);
  used = 1;
  ++pending_sends_;  // drained into the quiescence counter per slice
}

void NodeContext::broadcast(const Message& msg) {
  // Copy-assigns straight into each outbox slot instead of routing through
  // send(): the by-value Message parameter there costs a second copy per
  // port, and broadcast is the hot send primitive of flooding workloads.
  const std::uint32_t deg = degree();
  for (std::uint32_t p = 0; p < deg; ++p) {
    std::uint8_t& used = used_[rev_[p]];
    require(!used,
            "NodeContext::send: at most one message per port per round");
    outbox_[p] = msg;
    used = 1;
  }
  pending_sends_ += deg;
}

void NodeProgram::serialize_state(Message&) const {
  throw Error(
      "NodeProgram::serialize_state: this program does not implement shard "
      "state transfer (required to read results from a sharded run)");
}

void NodeProgram::restore_state(const Message&) {
  throw Error(
      "NodeProgram::restore_state: this program does not implement shard "
      "state transfer (required to read results from a sharded run)");
}

RunStats& RunStats::operator+=(const RunStats& other) {
  rounds += other.rounds;
  messages += other.messages;
  bits += other.bits;
  max_edge_bits = std::max(max_edge_bits, other.max_edge_bits);
  violations += other.violations;
  quiesced = other.quiesced;
  max_node_memory_bits =
      std::max(max_node_memory_bits, other.max_node_memory_bits);
  messages_dropped += other.messages_dropped;
  messages_corrupted += other.messages_corrupted;
  crashed_node_rounds += other.crashed_node_rounds;
  return *this;
}

Network::Network(const graph::Graph& g, NetworkConfig cfg)
    : graph_(&g), cfg_(std::move(cfg)) {
  bandwidth_bits_ = cfg_.bandwidth_bits != 0
                        ? cfg_.bandwidth_bits
                        : qc::congest_bandwidth_bits(g.n());
  require(cfg_.fault.drop_probability >= 0.0 &&
              cfg_.fault.drop_probability <= 1.0,
          "Network: fault drop_probability must be in [0,1]");
  require(cfg_.fault.corrupt_probability >= 0.0 &&
              cfg_.fault.corrupt_probability <= 1.0,
          "Network: fault corrupt_probability must be in [0,1]");
  for (const auto& w : cfg_.fault.crashes) {
    require(w.node < g.n(), "Network: crash schedule names unknown node");
    require(w.crash_round >= 1, "Network: crash rounds are 1-based");
    require(w.recover_round == 0 || w.recover_round > w.crash_round,
            "Network: crash window must recover after it crashes");
  }
  fault_enabled_ = cfg_.fault.enabled();
  crash_index_ = CrashIndex(cfg_.fault, g.n());
  metrics_ = metrics::global();
  if (metrics_ != nullptr) {
    metrics_->register_histogram("congest.round_messages", kRoundBounds);
    metrics_->register_histogram("congest.round_bits", kBitsBounds);
    metrics_->register_histogram("congest.message_bits", kMessageBitsBounds);
  }
  contexts_.resize(g.n());
  std::vector<std::vector<NodeId>> adjacency(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    adjacency[v].assign(nb.begin(), nb.end());
  }
  // Validates sortedness and symmetry of every adjacency list, then gives
  // every directed edge O(1) access to its reverse.
  const auto reverse_ports = build_reverse_ports(adjacency);
  out_base_.resize(static_cast<std::size_t>(g.n()) + 1);
  std::uint32_t slots = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    out_base_[v] = slots;
    slots += static_cast<std::uint32_t>(adjacency[v].size());
  }
  out_base_[g.n()] = slots;
  outbox_flat_.resize(slots);
  used_flat_.assign(slots, 0);
  rev_.resize(slots);
  nbr_flat_.resize(slots);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (std::size_t p = 0; p < adjacency[v].size(); ++p) {
      rev_[out_base_[v] + p] = out_base_[adjacency[v][p]] + reverse_ports[v][p];
      nbr_flat_[out_base_[v] + p] = adjacency[v][p];
    }
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& ctx = contexts_[v];
    ctx.id_ = v;
    ctx.n_ = g.n();
    ctx.round_ = round_.get();
    ctx.neighbors_ = std::span<const NodeId>(nbr_flat_.data() + out_base_[v],
                                             adjacency[v].size());
    ctx.outbox_ = outbox_flat_.data() + out_base_[v];
    ctx.rev_ = rev_.data() + out_base_[v];
    ctx.used_ = used_flat_.data();
    ctx.quiesce_ = quiesce_.get();
  }
  reseed_node_rngs();
  programs_.resize(g.n());
}

void Network::reseed_node_rngs() {
  Rng master(cfg_.seed);
  for (NodeId v = 0; v < n(); ++v) contexts_[v].rng_ = master.child(v);
}

void Network::init_programs(
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make) {
  for (NodeId v = 0; v < n(); ++v) {
    programs_[v] = make(v);
    require(programs_[v] != nullptr,
            "Network::init_programs: factory returned null");
    auto& ctx = contexts_[v];
    // The round counter restarts below, so a stamp left by the previous
    // run may match a round of the next one; an emptied inbox reads the
    // same whatever its stamp.
    ctx.inbox_.clear();
    ctx.pending_sends_ = 0;
    ctx.halted_ = false;
  }
  // A mid-run re-init may leave queued-but-undelivered slots behind; wipe
  // the flat flags so the self-clearing invariant restarts from empty.
  std::fill(used_flat_.begin(), used_flat_.end(), std::uint8_t{0});
  quiesce_->inflight.store(0, std::memory_order_relaxed);
  quiesce_->halted.store(0, std::memory_order_relaxed);
  memory_audit_ = true;
  // Restart the per-node RNG streams from the master seed so a rerun of a
  // randomized program on the same Network reproduces the first run
  // bit-for-bit (the constructor seeds identically, so run one after
  // construction is unaffected).
  reseed_node_rngs();
  *round_ = 0;
  stats_ = RunStats{};
  started_ = false;
}

bool Network::all_quiet_scan() const {
  for (NodeId v = 0; v < n(); ++v) {
    if (!contexts_[v].halted_) return false;
  }
  for (const std::uint8_t used : used_flat_) {
    if (used) return false;
  }
  return true;
}

bool Network::all_quiet() const {
  const bool quiet =
      quiesce_->halted.load(std::memory_order_relaxed) ==
          static_cast<std::int64_t>(n()) &&
      quiesce_->inflight.load(std::memory_order_relaxed) == 0;
  // The counters are the old scan incrementally maintained; keep the scan
  // as the debug-build ground truth. (inflight counts un-consumed outbox
  // slots, but at every all_quiet call site delivery has consumed all
  // slots of the previous round and only fresh sends remain, so the two
  // formulations agree exactly.)
  assert(quiet == all_quiet_scan());
  return quiet;
}

void Network::deliver_range(std::uint32_t begin, std::uint32_t end,
                            RunStats& local,
                            std::vector<PendingDelivery>* sink,
                            DeliveryTally* tally) {
  // Receiver-driven delivery over the receiver-ordered used flags of
  // [begin, end): flag f = out_base_[w] + p is set iff w's neighbor on port
  // p queued a message for w last round, held in the sender-ordered slot
  // rev_[f]. The pass scans the flags in index order — i.e. in (receiver,
  // port) order, which makes inboxes and the observer event stream
  // deterministic regardless of engine or thread count — and skips idle
  // flag words 8 bytes at a time, so a round costs its messages plus a
  // word scan, and a node with no mail is never touched: its inbox() is
  // empty because its inbox stamp is stale (NodeContext::inbox_round_).
  //
  // Observer events go to the sink when one is given (parallel workers
  // flush it in receiver order at the round barrier, shard workers ship it
  // to the coordinator), else inline — the same (round, to, from) order
  // either way. A tally buckets each delivered size; no registry call. Fault
  // decisions are stateless hashes of (seed, round, from, to), so they are
  // the same under both engines as well. Crash checks go through the
  // per-round CrashIndex (refreshed at round start).
  //
  // Each queued message is *moved* into the receiver's inbox — each
  // directed edge has exactly one receiver, so the slot is consumed
  // exactly once per round; the receiver clears the flag as it consumes,
  // and the sender only sets it again on the far side of a round barrier.
  // Only bandwidth truncation builds a new message; fault corruption flips
  // a bit in the inbox slot in place. Consumed messages are counted locally
  // and drained into the quiescence counter once per call. The common path
  // is allocation-free.
  //
  // Word loads stay inside this call's own flags (the last few are read
  // byte by byte), so parallel workers scanning adjacent receiver ranges
  // never touch each other's flags.
  //
  // Loop-invariant members are hoisted into locals: the compiler cannot
  // keep them in registers itself because the opaque calls in the loop
  // body (observer virtual call, inbox growth) could alias any member.
  const FaultPlan& fault = cfg_.fault;
  const bool fault_enabled = fault_enabled_;
  const std::uint32_t round = *round_;
  const std::uint32_t bandwidth_bits = bandwidth_bits_;
  std::uint8_t* const used = used_flat_.data();
  const std::uint32_t* const rev = rev_.data();
  const NodeId* const nbr = nbr_flat_.data();
  const std::uint32_t* const base = out_base_.data();
  Message* const outbox = outbox_flat_.data();
  DeliveryObserver* const observer = cfg_.observer.get();
  if (fault_enabled) {
    local.crashed_node_rounds += crash_index_.down_in(begin, end);
  }

  const std::uint32_t hi = base[end];
  NodeId w = begin;            // receiver owning the flags being delivered
  NodeContext* ctx = nullptr;  // &contexts_[w] once w's mail was seen
  bool w_crashed = false;
  std::int64_t consumed = 0;
  for (std::uint32_t f = base[begin]; f < hi;) {
    // The next batch of set flags: bit 8i of `mail` stands for flag at + i
    // (flags are 0 or 1). Words are loaded only while 8 flags of this
    // call's range remain; its last few flags go byte by byte.
    const std::uint32_t at = f;
    std::uint64_t mail = 0;
    if (hi - at >= 8) {
      f += 8;
      std::memcpy(&mail, used + at, sizeof mail);
      if (mail == 0) continue;
      std::memset(used + at, 0, sizeof mail);
      if constexpr (std::endian::native == std::endian::big) {
        mail = __builtin_bswap64(mail);
      }
    } else {
      ++f;
      if (used[at] == 0) continue;
      used[at] = 0;
      mail = 1;
    }
    for (; mail != 0; mail &= mail - 1) {
      const std::uint32_t e =
          at + static_cast<std::uint32_t>(std::countr_zero(mail) >> 3);
      if (ctx == nullptr || e >= base[w + 1]) {
        // First mail of a new receiver: usually the next node, otherwise
        // binary-search the sorted port offsets. (e >= base[w + 1] and
        // e < base[end] imply w + 2 <= end.)
        if (e >= base[w + 1]) {
          w = e < base[w + 2]
                  ? w + 1
                  : static_cast<NodeId>(std::upper_bound(base + w + 2,
                                                         base + end + 1, e) -
                                        base - 1);
        }
        ctx = &contexts_[w];
        ctx->inbox_round_ = round;
        ctx->inbox_.clear();
        w_crashed = fault_enabled && crash_index_.down(w);
      }
      ++consumed;
      const std::uint32_t p = e - base[w];
      const NodeId u = nbr[e];
      if (fault_enabled &&
          (w_crashed || crash_index_.down(u) || fault.drops(round, u, w))) {
        ++local.messages_dropped;
        continue;
      }
      Message& slot = outbox[rev[e]];
      const std::uint32_t sz = slot.size_bits();
      if (sz > bandwidth_bits) [[unlikely]] {
        if (cfg_.policy == BandwidthPolicy::kEnforce) {
          std::ostringstream os;
          os << "bandwidth violation: " << sz << " bits on edge " << u
             << "->" << w << " in round " << round
             << " (bw=" << bandwidth_bits << ")";
          throw BandwidthViolationError(os.str());
        }
        ++local.violations;
        if (cfg_.policy == BandwidthPolicy::kTruncate) {
          ctx->inbox_.emplace_back(p, slot.truncated(bandwidth_bits));
        } else {
          ctx->inbox_.emplace_back(p, std::move(slot));
        }
      } else {
        ctx->inbox_.emplace_back(p, std::move(slot));
      }
      Message& delivered = ctx->inbox_.back().msg;
      if (fault_enabled && fault.corrupts(round, u, w)) {
        fault.corrupt_in_place(delivered, round, u, w);
        ++local.messages_corrupted;
      }
      const std::uint32_t delivered_bits = delivered.size_bits();
      ++local.messages;
      local.bits += delivered_bits;
      local.max_edge_bits = std::max(local.max_edge_bits, delivered_bits);
      if (tally != nullptr) tally->add_message(delivered_bits);
      if (sink != nullptr) {
        sink->push_back(PendingDelivery{
            u, w, static_cast<std::uint32_t>(ctx->inbox_.size() - 1)});
      } else if (observer != nullptr) {
        observer->on_deliver(u, w, delivered, round);
      }
      if (ctx->halted_) {  // a message re-activates a halted node
        ctx->halted_ = false;
        quiesce_->halted.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  if (consumed != 0) {
    quiesce_->inflight.fetch_sub(consumed, std::memory_order_relaxed);
  }
}

void Network::compute_range(std::uint32_t begin, std::uint32_t end) {
  // No flag-clearing pass: every queued slot was consumed (and its flag
  // cleared) by its receiver in this round's deliver phase — including a
  // crashed node's slots, whose messages were dropped with it. Programs
  // queue this round's sends into clean slots; their pending-send counts
  // drain into the quiescence counter in one batched atomic per slice.
  std::uint32_t sends = 0;
  for (NodeId v = begin; v < end; ++v) {
    auto& ctx = contexts_[v];
    if (fault_enabled_ && crash_index_.down(v)) continue;
    if (ctx.halted_ && ctx.inbox().empty()) continue;
    programs_[v]->on_round(ctx);
    sends += ctx.pending_sends_;
    ctx.pending_sends_ = 0;
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
}

void Network::step_round(RunStats& phase, DeliveryTally* tally) {
  const std::uint32_t round = ++*round_;
  if (fault_enabled_) crash_index_.refresh(round);
  RunStats local;
  deliver_range(0, n(), local, /*sink=*/nullptr, tally);
  if (tally != nullptr) tally->add_round(local.messages, local.bits);
  compute_range(0, n());
  if (memory_audit_) {
    for (NodeId v = 0; v < n(); ++v) {
      local.max_node_memory_bits =
          std::max(local.max_node_memory_bits, programs_[v]->memory_bits());
    }
    // Every program reported "not audited" in the first round: stop paying
    // the per-round virtual-call sweep (see NodeProgram::memory_bits).
    if (round == 1 && local.max_node_memory_bits == 0) memory_audit_ = false;
  }
  local.rounds = 1;
  phase += local;
}

void Network::run_parallel_block(std::uint32_t max_rounds, bool until_quiet,
                                 RunStats& phase, DeliveryTally* tally,
                                 unsigned T) {
  DeliveryObserver* const observer = cfg_.observer.get();
  std::vector<RunStats> local(T);
  std::vector<std::vector<PendingDelivery>> pending(T);
  // Message sizes are tallied per worker, beside local[]; thread 0 tallies
  // each round's totals from the growth of the workers' local[] counts.
  std::vector<DeliveryTally> worker_tally(tally != nullptr ? T : 0);
  std::uint64_t tallied_messages = 0, tallied_bits = 0;
  std::atomic<bool> done{false};
  std::atomic<std::uint32_t> executed{0};
  std::barrier sync(static_cast<std::ptrdiff_t>(T));
  auto slice = [&](unsigned t) {
    const std::uint32_t per = (n() + T - 1) / T;
    const std::uint32_t b = std::min(n(), t * per);
    const std::uint32_t e = std::min(n(), b + per);
    return std::pair<std::uint32_t, std::uint32_t>{b, e};
  };
  // Persistent workers: one spawn per block, three barriers per round.
  auto work = [&](unsigned t) {
    const auto [b, e] = slice(t);
    for (std::uint32_t i = 0; i < max_rounds; ++i) {
      if (t == 0) {
        // Memory-audit decision for the round that just finished: workers
        // wrote their local[] maxima before the round-end barrier, so
        // thread 0 may read them here race-free (see step_round for the
        // sequential twin of this rule).
        if (memory_audit_ && *round_ == 1) {
          std::uint64_t mx = 0;
          for (const auto& l : local) {
            mx = std::max(mx, l.max_node_memory_bits);
          }
          if (mx == 0) memory_audit_ = false;
        }
        if (until_quiet && all_quiet()) done.store(true);
        if (!done.load()) {
          ++*round_;
          executed.fetch_add(1);
          if (fault_enabled_) crash_index_.refresh(*round_);
        }
      }
      sync.arrive_and_wait();  // round_ / crash index / stop decision visible
      if (done.load()) break;
      deliver_range(b, e, local[t], observer != nullptr ? &pending[t] : nullptr,
                    tally != nullptr ? &worker_tally[t] : nullptr);
      sync.arrive_and_wait();  // all inboxes assembled
      if (t == 0 && tally != nullptr) {
        // Workers write local[].messages/bits only while delivering, so
        // between this barrier and the next round's they are stable.
        std::uint64_t messages = 0, bits = 0;
        for (const auto& l : local) {
          messages += l.messages;
          bits += l.bits;
        }
        tally->add_round(messages - tallied_messages, bits - tallied_bits);
        tallied_messages = messages;
        tallied_bits = bits;
      }
      if (observer != nullptr) {
        // Single-threaded flush: workers hold contiguous ascending
        // receiver ranges, so draining buffers in worker order replays
        // the sequential engine's (round, receiver, port) event order
        // exactly. The flushed message is read from the receiver's inbox
        // slot, i.e. exactly what was delivered (post-fault/truncation);
        // the extra barrier keeps the flush ahead of the compute phase.
        if (t == 0) {
          for (auto& buf : pending) {
            for (const auto& ev : buf) {
              observer->on_deliver(
                  ev.from, ev.to, contexts_[ev.to].inbox_[ev.inbox_index].msg,
                  *round_);
            }
            buf.clear();
          }
        }
        sync.arrive_and_wait();  // observer flushed
      }
      compute_range(b, e);
      if (memory_audit_) {
        for (NodeId v = b; v < e; ++v) {
          local[t].max_node_memory_bits = std::max(
              local[t].max_node_memory_bits, programs_[v]->memory_bits());
        }
      }
      sync.arrive_and_wait();  // all outboxes written
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(T - 1);
  for (unsigned t = 1; t < T; ++t) threads.emplace_back(work, t);
  work(0);
  for (auto& th : threads) th.join();

  RunStats merged;
  for (const auto& l : local) merged += l;
  for (const auto& wt : worker_tally) {
    for (std::size_t i = 0; i < wt.message_bits.size(); ++i) {
      tally->message_bits[i] += wt.message_bits[i];
    }
  }
  merged.rounds = executed.load();
  // A block that ended right after round 1 never reached the top-of-round
  // decision point; settle the memory-audit question here so later phases
  // skip the sweep too.
  if (memory_audit_ && *round_ == 1 && merged.max_node_memory_bits == 0) {
    memory_audit_ = false;
  }
  phase += merged;
}

void Network::shard_start_range(std::uint32_t begin, std::uint32_t end) {
  std::uint32_t sends = 0;
  for (NodeId v = begin; v < end; ++v) {
    require(programs_[v] != nullptr,
            "Network: init_programs was not called");
    programs_[v]->on_start(contexts_[v]);
    sends += contexts_[v].pending_sends_;
    contexts_[v].pending_sends_ = 0;
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
}

void Network::shard_begin_round() {
  ++*round_;
  if (fault_enabled_) crash_index_.refresh(*round_);
}

std::uint64_t Network::shard_memory_max_range(std::uint32_t begin,
                                              std::uint32_t end) const {
  std::uint64_t mx = 0;
  for (NodeId v = begin; v < end; ++v) {
    mx = std::max(mx, programs_[v]->memory_bits());
  }
  return mx;
}

Message Network::shard_extract_slot(std::uint32_t slot) {
  require(slot < outbox_flat_.size() && used_flat_[rev_[slot]] != 0,
          "Network::shard_extract_slot: slot is not queued");
  used_flat_[rev_[slot]] = 0;
  return std::move(outbox_flat_[slot]);  // move resets the slot to empty
}

void Network::shard_inject_slot(std::uint32_t slot, const Message& msg) {
  require(slot < outbox_flat_.size() && used_flat_[rev_[slot]] == 0,
          "Network::shard_inject_slot: slot is already queued");
  outbox_flat_[slot] = msg;
  used_flat_[rev_[slot]] = 1;
}

void Network::start_if_needed() {
  if (started_) return;
  shard_start_range(0, n());
  started_ = true;
}

RunStats Network::run_phase(std::uint32_t max_rounds, bool until_quiet) {
  start_if_needed();
  RunStats phase;
  DeliveryTally phase_tally;
  DeliveryTally* const tally = metrics_ != nullptr ? &phase_tally : nullptr;
  // The parallel engine runs on min(num_threads or hardware threads, n)
  // workers; one worker is the sequential loop.
  unsigned threads = 1;
  if (cfg_.engine == Engine::kParallel) {
    threads = std::min(cfg_.num_threads != 0
                           ? cfg_.num_threads
                           : std::thread::hardware_concurrency(),
                       n());
  }
  if (threads > 1) {
    run_parallel_block(max_rounds, until_quiet, phase, tally, threads);
  } else {
    std::uint32_t executed = 0;
    while (executed < max_rounds && !(until_quiet && all_quiet())) {
      step_round(phase, tally);
      ++executed;
    }
  }
  // Per-phase truth, not lifetime state: quiesced reports whether the
  // network is quiescent *now*, at the end of this call.
  phase.quiesced = all_quiet();
  stats_ += phase;
  if (auto* m = metrics_) {
    // One fold per phase. Every delivered message, and so every round with
    // mail, is in phase.messages and phase.bits: those are the sums.
    const auto bits = static_cast<double>(phase.bits);
    m->merge_histogram("congest.message_bits", phase_tally.message_bits, bits);
    m->merge_histogram("congest.round_messages", phase_tally.round_messages,
                       static_cast<double>(phase.messages));
    m->merge_histogram("congest.round_bits", phase_tally.round_bits, bits);
    m->add_counter("congest.phases");
    m->add_counter("congest.rounds", phase.rounds);
    m->add_counter("congest.messages", phase.messages);
    m->add_counter("congest.bits", phase.bits);
    m->add_counter("congest.messages_dropped", phase.messages_dropped);
    m->add_counter("congest.messages_corrupted", phase.messages_corrupted);
    m->add_counter("congest.bandwidth_violations", phase.violations);
    m->add_counter("congest.crashed_node_rounds", phase.crashed_node_rounds);
  }
  return phase;
}

RunStats Network::run_rounds(std::uint32_t rounds) {
  return run_phase(rounds, /*until_quiet=*/false);
}

RunStats Network::run_until_quiescent(std::uint32_t max_rounds) {
  return run_phase(max_rounds, /*until_quiet=*/true);
}

}  // namespace qc::congest
