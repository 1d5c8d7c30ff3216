// The shared eccentricity engine (graph/ecc_engine.hpp) vs the naive
// reference path, plus the BFS kernel shoot-out (graph/bfs_kernels.hpp):
//
//  1. engine-vs-naive: evaluating f(u) = max_{v in segment(u)} ecc(v) for
//     every branch u of the Theorem 1 window oracle. The naive path pays
//     one BFS per window member per branch (Theta(n*d) BFS); the engine
//     pays exactly one BFS per vertex plus an O(len log len) sparse-table
//     build, then answers each branch in O(1).
//  2. kernel shoot-out: the same eccentricity sweep through the flat
//     single-source kernel (the PR 6 baseline), the bit-parallel
//     64-sources-per-word kernel push-only, and the direction-optimizing
//     variant — equal source sets, single thread, results checked
//     bit-identical. With --dataset=FILE.qcg the shoot-out runs on a
//     checked-in large graph instead of the synthetic workload
//     (--sources=K samples K roots; --sources=0 sweeps all n, which is
//     exactly the full EccEngine sweep the acceptance numbers quote).
//
// `--out=FILE` writes the run's record (bench/harness.hpp): the first line
// of the BENCH_ecc.json baseline checked in at the repo root, and a CI
// artifact.

#include <chrono>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "graph/algorithms.hpp"
#include "graph/bfs_kernels.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "util/error.hpp"

using namespace qc;
using namespace qc::bench;

namespace {

/// Times the three sweep kernels on `g` from the same `sources` roots and
/// records them as one row of `rec`.
void kernel_shootout(const graph::Graph& g, const std::string& name,
                     std::uint32_t sources, Record& rec) {
  const std::uint32_t k =
      (sources == 0 || sources > g.n()) ? g.n() : sources;
  const auto roots = spread_roots(g.n(), k);

  std::vector<std::uint32_t> flat(k), push(k), diropt(k);

  graph::BfsScratch scratch;
  const auto t_flat = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < k; ++i) {
    flat[i] = graph::flat_bfs_distances(g, roots[i], scratch);
  }
  const double flat_ms = ms_since(t_flat);

  graph::MultiBfsScratch mscratch;
  const auto run_batches = [&](std::vector<std::uint32_t>& out,
                               graph::MultiBfsDirection dir) {
    std::uint32_t pulls = 0;
    for (std::uint32_t first = 0; first < k; first += 64) {
      const std::uint32_t batch = std::min(64u, k - first);
      const auto stats = graph::multi_source_eccentricities(
          g, std::span<const graph::NodeId>(roots.data() + first, batch),
          out.data() + first, mscratch, dir);
      pulls += stats.pull_levels;
    }
    return pulls;
  };

  const auto t_push = std::chrono::steady_clock::now();
  run_batches(push, graph::MultiBfsDirection::kPushOnly);
  const double push_ms = ms_since(t_push);

  const auto t_diropt = std::chrono::steady_clock::now();
  const std::uint32_t pull_levels =
      run_batches(diropt, graph::MultiBfsDirection::kOptimized);
  const double diropt_ms = ms_since(t_diropt);

  check_internal(flat == push && flat == diropt,
                 "bench_ecc_engine: kernels disagree on eccentricities");
  const double base = std::max(flat_ms, 1e-6);
  rec.row(name)
      .add("n", g.n())
      .add("m", g.m())
      .add("sources", k)
      .add("flat_ms", Value(flat_ms, 3))
      .add("push_ms", Value(push_ms, 3))
      .add("diropt_ms", Value(diropt_ms, 3))
      .add("speedup_push", Value(base / std::max(push_ms, 1e-6), 2))
      .add("speedup_diropt", Value(base / std::max(diropt_ms, 1e-6), 2))
      .add("pull_levels", pull_levels);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(
      argc, argv, {"out", "n", "d", "dataset", "sources"});
  const Cli& cli = opt.cli;
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const std::string dataset = cli.get_string("dataset", "");
  const auto sources = static_cast<std::uint32_t>(
      cli.get_int("sources", opt.quick ? 1024 : 0));

  banner("Shared eccentricity engine vs naive branch evaluation",
         "same f(u) on every branch; BFS count drops from Theta(n*d) to n;\n"
         "then the sweep kernels: flat vs bit-parallel (64 sources/word) "
         "vs direction-optimizing");

  auto g = workload(n, d, opt.seed);
  const auto tree = graph::bfs_tree(g, 0);
  const auto num = graph::dfs_numbering(tree);
  const std::uint32_t steps = 2 * tree.height;

  // Naive reference: one segment scan (Theta(d) BFS) per branch. Count the
  // BFS runs it performs via the window sizes, which is exactly one BFS
  // per member per branch.
  std::uint64_t naive_bfs = 0;
  for (graph::NodeId u = 0; u < g.n(); ++u) {
    naive_bfs += graph::segment_window(num, u, steps).members.size();
  }

  std::vector<std::uint32_t> naive(g.n());
  const auto t_naive = std::chrono::steady_clock::now();
  for (graph::NodeId u = 0; u < g.n(); ++u) {
    naive[u] = graph::max_ecc_in_segment(g, num, u, steps);
  }
  const double naive_ms = ms_since(t_naive);

  // Engine path: build (n BFS + sparse table) + n O(1) queries, timed
  // together — this is what one quantum front-end run pays.
  const auto t_engine = std::chrono::steady_clock::now();
  graph::EccEngine engine(g);
  const auto seg = engine.segment_max(num);
  std::vector<std::uint32_t> fast(g.n());
  for (graph::NodeId u = 0; u < g.n(); ++u) {
    fast[u] = seg.max_ecc_in_segment(u, steps);
  }
  const double engine_ms = ms_since(t_engine);

  check_internal(naive == fast, "engine disagrees with naive reference");

  // Kernel choice never changes the table: pin flat vs bit-parallel
  // bit-identity (and SegmentMax bit-identity on top) right here in the
  // bench, on the same workload the timings quote.
  {
    graph::EccEngine flat_engine(g, {1, graph::EccKernel::kFlat});
    graph::EccEngine bp_engine(g, {1, graph::EccKernel::kBitParallel});
    check_internal(flat_engine.all() == bp_engine.all(),
                   "bench_ecc_engine: kernel tables differ");
    const auto seg_bp = bp_engine.segment_max(num);
    for (graph::NodeId u = 0; u < g.n(); ++u) {
      check_internal(seg_bp.max_ecc_in_segment(u, steps) == fast[u],
                     "bench_ecc_engine: SegmentMax differs across kernels");
    }
  }

  Record rec("ecc_engine");
  rec.param("quick", opt.quick)
      .param("n", n)
      .param("d", d)
      .param("sources", sources)
      .param("dataset", dataset.empty() ? Value() : Value(dataset));
  rec.row("engine_vs_naive")
      .add("steps", steps)
      .add("branches", g.n())
      .add("naive_bfs_runs", naive_bfs)
      .add("engine_bfs_runs", engine.bfs_runs())
      .add("naive_ms", Value(naive_ms, 3))
      .add("engine_ms", Value(engine_ms, 3))
      .add("speedup", Value(naive_ms / std::max(engine_ms, 1e-6), 2));
  rec.print_table(std::cout, 0, 1);

  // Kernel shoot-out: synthetic workload always; the dataset too when
  // --dataset is given.
  kernel_shootout(g, "rwd:" + std::to_string(n), sources, rec);
  if (!dataset.empty()) {
    kernel_shootout(graph::load_graph_file(dataset),
                    dataset.substr(dataset.find_last_of('/') + 1), sources,
                    rec);
  }
  std::cout << "\n";
  rec.print_table(std::cout, 1);

  rec.write(cli.get_string("out", ""));
  return 0;
}
