// The shard workload: congest::shard::ShardedNetwork with W=3 workers and
// the greedy partitioner (coordinator + workers = 4 processes) running the
// flooding program on a graph. An untimed check run of several rounds is
// compared with the in-process engine (RunStats and the harvested
// checksum); then every operation is one run_rounds(1) call, one round
// barrier, and must deliver the same stats as one in-process round, since
// flooding moves one fixed-width message per directed edge per round.
//
// An operation is one round, not a run of many, because every round waits
// for all four processes: a stall of any one CPU of a shared host delays
// the whole round. A multi-round operation almost always contains such a
// stall, so its median follows how often the host stalls; the median round
// does not.

#include <algorithm>
#include <iostream>

#include "bench.hpp"
#include "congest/shard/partition.hpp"
#include "congest/shard/sharded_network.hpp"
#include "graph/io.hpp"

namespace perfbench {

namespace {

namespace shard = qc::congest::shard;

constexpr std::uint32_t kShards = 3;

std::uint64_t checksum_of(auto& net, std::uint32_t n) {
  std::uint64_t sum = 0;
  for (graph::NodeId v = 0; v < n; ++v) sum += net.template program_as<Flood>(v).sum();
  return sum;
}

bool same_stats(const qc::congest::RunStats& a, const qc::congest::RunStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages && a.bits == b.bits &&
         a.quiesced == b.quiesced;
}

double workers_cpu(const std::vector<pid_t>& pids) {
  double s = 0;
  for (const pid_t p : pids) s += process_cpu_seconds(p);
  return s;
}

}  // namespace

ShardOutcome shard_session(const Options& opt, const graph::Graph& g,
                           std::uint32_t check_rounds, double seconds,
                           Result& res, Tracer* tracer) {
  ShardOutcome out;
  qc::congest::NetworkConfig net_cfg;
  net_cfg.seed = derive_seed(opt.seed, 0x5d);
  const auto factory = [](graph::NodeId) { return std::make_unique<Flood>(); };

  // In-process reference for the check run and for one round after it;
  // also the delivery cost of the in-process engine on the same program.
  qc::congest::RunStats ref_check, ref_round;
  std::uint64_t ref_sum = 0;
  {
    qc::congest::Network net(g, net_cfg);
    net.init_programs(factory);
    const auto t0 = Clock::now();
    ref_check = net.run_rounds(check_rounds);
    const double s = seconds_since(t0);
    if (tracer != nullptr) tracer->add("congest.reference_run", s);
    out.flood_ns_per_delivery =
        s * 1e9 / static_cast<double>(std::max<std::uint64_t>(ref_check.messages, 1));
    ref_sum = checksum_of(net, g.n()) ^ (opt.corrupt_reference ? 1u : 0u);
    ref_round = net.run_rounds(1);
  }

  // Set-up: partition + spawn, repeated; the last network stays up.
  shard::ShardConfig cfg;
  cfg.shards = kShards;
  cfg.net = net_cfg;
  cfg.partitioner = std::make_shared<shard::GreedyGrowPartitioner>();
  std::unique_ptr<shard::ShardedNetwork> net;
  std::vector<double> spawns;
  const auto spawn_start = Clock::now();
  for (int rep = 0; rep < (opt.tiny ? 2 : 15); ++rep) {
    if (net) net->shutdown();
    net.reset();
    const auto t0 = Clock::now();
    net = std::make_unique<shard::ShardedNetwork>(g, cfg);
    net->init_programs(factory);
    spawns.push_back(seconds_since(t0));
  }
  out.spawn_ms = median(spawns) * 1e3;
  // The span covers every repetition, shutdowns included.
  if (tracer != nullptr) tracer->add("shard.spawn", seconds_since(spawn_start));
  const std::vector<pid_t> pids = net->worker_pids();

  // The check run, which also warms the workers up.
  {
    const auto t0 = Clock::now();
    const qc::congest::RunStats st = net->run_rounds(check_rounds);
    const std::uint64_t sum = checksum_of(*net, g.n());
    if (tracer != nullptr) tracer->add("shard.check_run", seconds_since(t0));
    res.attempt();
    check(res, same_stats(st, ref_check),
          "shard: RunStats of the check run differ from the in-process engine's");
    check(res, sum == ref_sum,
          "shard: harvested checksum differs from the in-process engine's");
  }

  // Worker CPU comes from /proc in clock ticks, too coarse per operation:
  // CPU is taken over the whole loop and divided by the operations run.
  std::vector<double> walls;
  std::uint64_t delivered = 0;
  double run_total = 0;
  const double w0 = workers_cpu(pids);
  const CpuTimes c0 = cpu_now();
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const qc::congest::RunStats st = net->run_rounds(1);
    const double wall = seconds_since(t0);
    walls.push_back(wall);
    run_total += wall;
    delivered += st.messages;
    res.attempt();
    check(res, same_stats(st, ref_round),
          "shard: RunStats of operation " + std::to_string(walls.size()) +
              " differ from the in-process engine's");
  } while (seconds_since(start) < seconds);
  const double cpu = (cpu_now() - c0).total() + workers_cpu(pids) - w0;
  if (tracer != nullptr) tracer->add("shard.run", run_total);

  const auto& perf = net->perf();
  const double per_round =
      1.0 / static_cast<double>(std::max<std::uint64_t>(perf.rounds, 1));
  out.barrier_us_per_round = static_cast<double>(perf.barrier_wait_us) * per_round;
  out.boundary_bytes_per_round = static_cast<double>(perf.boundary_bytes) * per_round;
  out.spilled_frames = static_cast<double>(perf.spilled_frames);
  out.peak_rss_mb = self_peak_rss_mb();
  for (const pid_t p : pids) out.peak_rss_mb += process_peak_rss_mb(p);
  net->shutdown();

  out.ops = walls.size();
  out.run_s = median(walls);
  res.note("shard_op_quantiles_s",
           "[" + json_num(quantile(walls, 0.1)) + "," + json_num(quantile(walls, 0.25)) +
               "," + json_num(out.run_s) + "," + json_num(quantile(walls, 0.75)) + "," +
               json_num(quantile(walls, 0.9)) + "]");
  out.cpu_s = cpu / static_cast<double>(walls.size());
  out.deliveries_per_s = static_cast<double>(delivered) / run_total;
  res.cost("check_rounds", ref_check.rounds);
  res.cost("check_messages", ref_check.messages);
  res.cost("checksum_check_run", ref_sum);
  res.cost("rounds_per_op", ref_round.rounds);
  res.cost("messages_per_op", ref_round.messages);
  res.cost("bits_per_op", ref_round.bits);
  return out;
}

void shard_layer_metrics(Result& res, const ShardOutcome& o) {
  res.metric("shard.spawn_ms", o.spawn_ms, "ms");
  res.metric("shard.barrier_us_per_round", o.barrier_us_per_round, "us");
  res.metric("shard.boundary_bytes_per_round", o.boundary_bytes_per_round, "B");
  res.metric("shard.spilled_frames", o.spilled_frames, "count");
  res.metric("shard.deliveries_per_s", o.deliveries_per_s, "1/s");
  res.metric("congest.flood_ns_per_delivery", o.flood_ns_per_delivery, "ns");
}

void run_shard(const Options& opt, Result& res) {
  const std::string path = opt.root + "/data/synth-p2p-10k.qcg";
  const std::uint32_t check_rounds = opt.tiny ? 4 : 20;
  // Set-up as a user pays it: load the graph, partition, spawn workers.
  const std::string source =
      opt.tiny ? "pa:400:3:" + std::to_string(derive_seed(opt.seed, 0xd0) % 1000000007ULL)
               : path;
  const auto load = [&] {
    return opt.tiny ? graph::make_from_spec(source) : graph::load_graph_file(source);
  };
  std::vector<double> loads;
  for (int rep = 0; rep < (opt.tiny ? 2 : 15); ++rep) {
    const auto t0 = Clock::now();
    const graph::Graph g = load();
    loads.push_back(seconds_since(t0));
    if (g.n() == 0) std::abort();
  }
  const GraphInput in{source, load()};
  res.note_str("graph", in.source.substr(in.source.rfind('/') + 1));
  std::cout << "input " << in.source << " n=" << in.g.n() << " m=" << in.g.m()
            << " shards=" << kShards << " check rounds=" << check_rounds << "\n";
  const double load_s = median(loads);

  if (!opt.trace) {
    const ShardOutcome o = shard_session(opt, in.g, check_rounds, opt.seconds, res, nullptr);
    res.metric("query_s", o.run_s, "s");
    res.metric("cpu_s", o.cpu_s, "s");
    res.metric("setup_s", load_s + o.spawn_ms * 1e-3, "s");
    res.metric("peak_rss_mb", o.peak_rss_mb, "MiB");
    res.note_num("deliveries_per_s", o.deliveries_per_s);
    res.note_num("ops", static_cast<double>(o.ops));
    return;
  }
  // Untraced session, then the same with spans, each a third of the run.
  const ShardOutcome base =
      shard_session(opt, in.g, check_rounds, opt.seconds / 3, res, nullptr);
  Tracer tr;
  tr.add("graph.load", load_s);
  const auto t0 = Clock::now();
  const ShardOutcome o = shard_session(opt, in.g, check_rounds, opt.seconds / 3, res, &tr);
  const double wall = seconds_since(t0) + load_s;
  shard_layer_metrics(res, o);
  res.metric("graph.load_ms", load_s * 1e3, "ms");
  tr.report(res, wall);
  res.metric("trace.unattributed_s", wall - tr.total_seconds(), "s");
  res.metric("trace.overhead_x", o.run_s / base.run_s, "x");
  probe_layers(opt, in, res);
}

}  // namespace perfbench
