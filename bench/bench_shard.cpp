// Scaling profile of the sharded multi-process CONGEST backend against the
// in-process sequential engine, on the flooding workload: every node
// broadcasts a two-field message every round, so every directed edge
// carries one delivery per round — the densest traffic the model allows,
// and close to the worst case for the shard boundary.
//
// Two workloads:
//   * toy (default): the synthetic fixed-diameter random graph the bench
//     has always used (--n/--d override the size);
//   * --dataset=FILE: any graph file (.qcg container, edge list, SNAP raw),
//     e.g. data/synth-p2p-10k.qcg — a partition-structure-bearing graph
//     where the greedy partitioner's cut reduction is visible.
//
// Rows: the in-process sequential engine, then ShardedNetwork at
// W ∈ {1, 2, 4, 8} workers under the contiguous partitioner and
// W ∈ {2, 4, 8} under the greedy (cut-minimizing) one. Per row the table
// reports the static boundary fraction, the coordinator's barrier wait per
// round and the boundary bytes moved per round (shm mesh + spill).
//
// Every sharded row is gated on bit-identical parity with the sequential
// run — message count, bit count, round count, quiescence flag, and an
// order-sensitive per-node inbox checksum recovered through the
// state-harvest path. A parity failure is a hard nonzero exit on every
// run, not just under --check. `--check` additionally arms the
// zero-allocation gates: this binary installs the alloc probe, the timed
// reps must not allocate on the coordinator, and every worker arms its own
// probe after warmup (ShardConfig::verify_zero_alloc_from_round) — a
// steady-state allocation on either side of the barrier fails the bench.
// `--out=FILE` writes the run's record (bench/harness.hpp); BENCH_shard.json
// holds the toy and the dataset run.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "congest/network.hpp"
#include "congest/shard/partition.hpp"
#include "congest/shard/sharded_network.hpp"
#include "graph/io.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

using namespace qc;
using namespace qc::bench;

namespace {

/// One config's timing plus, for a sharded one, its transport counters.
struct Result {
  Phases p;
  std::uint64_t boundary_arcs = 0;  ///< directed edges crossing shards
  // From ShardedNetwork::perf(), accumulated over warmup + reps:
  double barrier_us_per_round = 0.0;
  double boundary_bytes_per_round = 0.0;
  std::uint64_t events_elided = 0;
  std::uint64_t spilled_frames = 0;
};

Result run_sequential(const graph::Graph& g, std::uint64_t seed,
                      std::uint32_t warm, std::uint32_t rounds,
                      std::uint32_t reps) {
  congest::NetworkConfig cfg;
  cfg.seed = seed;
  congest::Network net(g, cfg);
  return {time_flood(net, warm, rounds, reps)};
}

Result run_sharded(const graph::Graph& g, std::uint32_t shards,
                   std::shared_ptr<const congest::shard::Partitioner> part,
                   bool check, std::uint64_t seed, std::uint32_t warm,
                   std::uint32_t rounds, std::uint32_t reps) {
  congest::shard::ShardConfig cfg;
  cfg.shards = shards;
  cfg.net.seed = seed;
  cfg.partitioner = std::move(part);
  // Workers arm their own alloc probes after the warmup rounds; a
  // steady-state allocation in any worker fails its run (and thus the
  // bench) with a descriptive error.
  if (check) cfg.verify_zero_alloc_from_round = warm;
  congest::shard::ShardedNetwork net(g, cfg);
  Result r{time_flood(net, warm, rounds, reps)};
  for (std::uint32_t s = 0; s < shards; ++s) {
    r.boundary_arcs +=
        congest::shard::boundary_arcs(g, net.assignment(), s).size();
  }
  const auto& perf = net.perf();
  const double per_round =
      1.0 / static_cast<double>(std::max<std::uint64_t>(perf.rounds, 1));
  r.barrier_us_per_round =
      static_cast<double>(perf.barrier_wait_us) * per_round;
  r.boundary_bytes_per_round =
      static_cast<double>(perf.boundary_bytes) * per_round;
  r.events_elided = perf.events_elided;
  r.spilled_frames = perf.spilled_frames;
  net.shutdown();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(
      argc, argv, {"out", "n", "d", "rounds", "check", "dataset"});
  const Cli& cli = opt.cli;
  const std::string dataset = cli.get_string("dataset", "");
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const std::uint32_t default_rounds =
      dataset.empty() ? (opt.quick ? 40u : 160u) : (opt.quick ? 12u : 40u);
  const auto rounds =
      static_cast<std::uint32_t>(cli.get_int("rounds", default_rounds));
  const bool check = cli.get_bool("check", false);
  const std::uint32_t warm = 8;
  const std::uint32_t reps = dataset.empty() ? (opt.quick ? 2 : 4)
                                             : (opt.quick ? 1 : 2);

  banner("sharded multi-process engine vs in-process sequential",
         "flooding workload: one delivery per directed edge per round; "
         "every sharded row must be bit-identical to the sequential run");

  std::string workload_name = "toy";
  graph::Graph g = [&] {
    if (dataset.empty()) return workload(n, d, opt.seed);
    workload_name = dataset;
    std::cout << "dataset: " << dataset << "\n";
    return graph::load_graph_file(dataset);
  }();

  const auto contiguous =
      std::make_shared<congest::shard::ContiguousPartitioner>();
  const auto greedy = std::make_shared<congest::shard::GreedyGrowPartitioner>();

  struct NamedResult {
    std::string name;
    std::uint32_t shards;  ///< 0 = in-process
    Result r;
  };
  std::vector<NamedResult> results;
  results.push_back({"seq", 0, run_sequential(g, opt.seed, warm, rounds, reps)});
  for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
    results.push_back({"shard_w" + std::to_string(w), w,
                       run_sharded(g, w, contiguous, check, opt.seed, warm,
                                   rounds, reps)});
  }
  for (const std::uint32_t w : {2u, 4u, 8u}) {
    results.push_back({"shard_w" + std::to_string(w) + "_greedy", w,
                       run_sharded(g, w, greedy, check, opt.seed, warm,
                                   rounds, reps)});
  }

  const Phases& seq = results[0].r.p;
  const std::uint64_t arcs_total = 2ull * g.m();

  Record rec("shard_scaling");
  rec.param("workload", workload_name)
      .param("quick", opt.quick)
      .param("n", g.n())
      .param("edges", g.m())
      .param("rounds", rounds)
      .param("reps", reps)
      .param("warmup_rounds", warm)
      .param("bandwidth_bits", congest_bandwidth_bits(g.n()));
  for (const auto& nr : results) {
    const bool sharded = nr.shards != 0;
    const auto if_sharded = [sharded](Value v) {
      return sharded ? v : Value();
    };
    const double boundary_pct =
        100.0 * static_cast<double>(nr.r.boundary_arcs) /
        static_cast<double>(std::max<std::uint64_t>(arcs_total, 1));
    rec.row(nr.name)
        .add("ms", Value(nr.r.p.ms, 3))
        .add("messages_all_reps", nr.r.p.total_messages)
        .add("msgs_per_sec", Value(nr.r.p.msgs_per_sec(), 0))
        .add("ns_per_delivery", Value(nr.r.p.ns_per_delivery(), 1))
        .add("boundary_arcs", if_sharded(nr.r.boundary_arcs))
        .add("boundary_pct", if_sharded(Value(boundary_pct, 1)))
        .add("barrier_us_per_round",
             if_sharded(Value(nr.r.barrier_us_per_round, 1)))
        .add("boundary_bytes_per_round",
             if_sharded(Value(nr.r.boundary_bytes_per_round, 0)))
        .add("events_elided", if_sharded(nr.r.events_elided))
        .add("spilled_frames", if_sharded(nr.r.spilled_frames))
        .add("vs_seq", Value(seq.ms / std::max(nr.r.p.ms, 1e-9), 2));
  }
  rec.print_table(std::cout);

  // Parity gates: every sharded configuration must agree with the
  // sequential engine on every observable — these run on every invocation
  // and are the reason this bench doubles as a stress test in CI.
  for (const auto& nr : results) {
    if (nr.shards == 0) continue;
    check_internal(nr.r.p.total_messages == seq.total_messages &&
                       nr.r.p.total_bits == seq.total_bits,
                   nr.name + " disagrees with the sequential engine on "
                             "message/bit totals");
    check_internal(nr.r.p.stats.rounds == seq.stats.rounds &&
                       nr.r.p.stats.quiesced == seq.stats.quiesced,
                   nr.name + " disagrees with the sequential engine on "
                             "rounds/quiescence");
    check_internal(nr.r.p.checksum == seq.checksum,
                   nr.name + " harvested a different inbox checksum than "
                             "the sequential engine");
  }
  check_internal(seq.total_messages > 0, "workload delivered no messages");
  // The greedy partitioner must never cut more than contiguous does at the
  // same W (it falls back to contiguous-like growth in the worst case and
  // exploits locality when the graph has any).
  for (const auto& nr : results) {
    if (nr.name.find("_greedy") == std::string::npos) continue;
    for (const auto& base : results) {
      if (base.name == "shard_w" + std::to_string(nr.shards)) {
        check_internal(nr.r.boundary_arcs <= base.r.boundary_arcs,
                       nr.name + " cut MORE boundary arcs than contiguous");
      }
    }
  }
  if (check) {
    // Zero-allocation gates. Worker-side violations already failed inside
    // run_sharded; this pins the coordinator's barrier loop.
    for (const auto& nr : results) {
      if (nr.shards == 0) continue;
      check_internal(nr.r.p.allocs == 0,
                     nr.name + " coordinator allocated " +
                         std::to_string(nr.r.p.allocs) +
                         " time(s) during the timed steady-state reps");
    }
    std::cout << "\ncheck mode: parity + zero-alloc assertions passed for "
                 "every worker count\n";
  }

  rec.write(cli.get_string("out", ""));
  return 0;
}
