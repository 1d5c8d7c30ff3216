// Million-node substrate harness: exercises the whole storage stack —
// text parsing, .qcg varint decode, raw mmap zero-copy views — and the
// algorithm layers on top of it (flat BFS kernel, double-sweep bound, the
// O(D)-round distributed eccentricity, and the full EccEngine on the
// bit-parallel multi-source kernel) at 10^4..10^6 nodes, using the
// checked-in datasets under data/.
//
// Modes:
//   --quick    CI smoke: the two committed datasets, loads + BFS + double
//              sweep only (plus CONGEST ecc on the 10k graph)
//   (default)  + the distributed O(D) eccentricity on the 100k graph
//   --full     + full EccEngine diameter/radius on the 10k and 100k graphs
//              and a generated-and-cached 10^6-node graph, including the
//              exhaustive n-BFS engine sweep (bit-parallel kernel)
//
// Every row lists every column; a value this mode did not measure is
// null, and the row's "skipped" column names what was skipped and why, so
// BENCH_*.json trajectories distinguish "not run in this mode" from
// "missing".
//
// `--out=FILE` writes the run's record (bench/harness.hpp); the full-mode
// record is the last line of BENCH_ecc.json.

#include <chrono>
#include <filesystem>
#include <string>
#include <utility>

#include "algos/bfs_tree.hpp"
#include "bench/harness.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/error.hpp"

using namespace qc;
using namespace qc::bench;

namespace {

namespace fs = std::filesystem;

/// A row holding every column of this bench as null, in table order.
Row& new_row(Record& rec, const std::string& dataset) {
  Row& r = rec.row(dataset);
  for (const char* key :
       {"n", "m", "text_load_ms", "varint_load_ms", "raw_load_ms", "mapped",
        "bfs_sources", "bfs_avg_ms", "dsweep_lb", "congest_ecc_root0",
        "congest_rounds", "congest_messages", "engine_diameter",
        "engine_radius", "engine_bfs_runs", "engine_kernel", "engine_ms",
        "sampled_lb", "skipped"}) {
    r.add(key, Value());
  }
  return r;
}

/// Loads `path` and records the load time under `key`.
graph::Graph timed_load(const std::string& path, Row& row, const char* key) {
  const auto t0 = std::chrono::steady_clock::now();
  auto g = graph::load_graph_file(path);
  row.add(key, Value(ms_since(t0), 2));
  return g;
}

/// Loads the raw-CSR file `path` as a zero-copy view and records its load
/// time and shape.
graph::Graph raw_view(const std::string& path, Row& row) {
  auto g = timed_load(path, row, "raw_load_ms");
  row.add("mapped", g.is_view()).add("n", g.n()).add("m", g.m());
  return g;
}

// Records a skipped config both in the row and on stdout.
void skip(std::string& skipped, const std::string& dataset,
          const std::string& what, const std::string& why) {
  skipped += (skipped.empty() ? "" : "; ") + what + " (" + why + ")";
  std::cout << "skipped (" << why << "): " << what << " [" << dataset
            << "]\n";
}

// k-source flat BFS: average per-source time, plus the double-sweep lower
// bound (BFS from 0, then from the farthest *reachable* vertex found),
// which it returns.
std::uint32_t measure_bfs(const graph::Graph& g, std::uint32_t sources,
                          Row& row) {
  graph::BfsScratch scratch;
  const auto t0 = std::chrono::steady_clock::now();
  for (const graph::NodeId root : spread_roots(g.n(), sources)) {
    graph::flat_bfs_distances(g, root, scratch);
  }
  row.add("bfs_sources", sources)
      .add("bfs_avg_ms", Value(ms_since(t0) / sources, 3));

  graph::flat_bfs_distances(g, 0, scratch);
  graph::NodeId far = 0;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    if (scratch.dist[v] != graph::kUnreachable &&
        scratch.dist[v] > scratch.dist[far]) {
      far = v;
    }
  }
  graph::flat_bfs_distances(g, far, scratch);
  row.add("dsweep_lb", scratch.finite_ecc);
  return scratch.finite_ecc;
}

void congest_ecc(const graph::Graph& g, Row& row) {
  const auto out = algos::compute_eccentricity(g, 0);
  check_internal(out.status == algos::PhaseStatus::kQuiesced,
                 "bench_scale: fault-free eccentricity did not quiesce");
  row.add("congest_ecc_root0", out.ecc)
      .add("congest_rounds", out.stats.rounds)
      .add("congest_messages", out.stats.messages);
}

/// The full EccEngine sweep (kAuto: bit-parallel at these sizes, on every
/// CPU); returns the diameter.
std::uint32_t engine_sweep(const graph::Graph& g, Row& row) {
  const auto t0 = std::chrono::steady_clock::now();
  graph::EccEngine engine(g);
  const std::uint32_t diameter = engine.diameter();
  const std::uint32_t radius = engine.radius();
  row.add("engine_ms", Value(ms_since(t0), 1))
      .add("engine_diameter", diameter)
      .add("engine_radius", radius)
      .add("engine_bfs_runs", engine.bfs_runs())
      .add("engine_kernel", g.n() >= 256 ? "bit_parallel" : "flat");
  return diameter;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      BenchOptions::parse(argc, argv, {"out", "full", "data-dir"});
  const Cli& cli = opt.cli;
  const bool full = cli.get_bool("full", false);
  require(!(full && opt.quick), "bench_scale: pick one of --quick / --full");
  const std::string mode =
      opt.quick ? "quick" : (full ? "full" : "default");
  const std::string data_dir = cli.get_string("data-dir", QC_DATA_DIR);
  const auto cache_dir = fs::temp_directory_path() / "qc_bench_scale";
  fs::create_directories(cache_dir);

  banner("Million-node substrate: load paths + baselines at 10^4..10^6",
         "text parse vs varint decode vs raw mmap view; flat BFS, double "
         "sweep,\nO(D)-round distributed eccentricity, full EccEngine on "
         "the bit-parallel kernel");

  Record rec("scale");
  rec.param("mode", mode);

  // --- 10k: the p2p-Gnutella04-sized graph, all three load paths. ---
  {
    const std::string name = "synth-p2p-10k";
    Row& r = new_row(rec, name);
    std::string skipped;
    const auto raw = (cache_dir / "synth-p2p-10k.raw.qcg").string();
    const auto text =
        timed_load(data_dir + "/synth-p2p-10k.txt", r, "text_load_ms");
    timed_load(data_dir + "/synth-p2p-10k.qcg", r, "varint_load_ms");
    graph::write_qcg_file(raw, text, graph::QcgEncoding::kRawCsr);
    const auto mapped = raw_view(raw, r);
    measure_bfs(mapped, opt.quick ? 4 : 8, r);
    congest_ecc(mapped, r);
    if (full) {
      engine_sweep(mapped, r);
    } else {
      skip(skipped, name, "ecc_engine full sweep", mode + ": pass --full");
    }
    r.add("skipped", skipped.empty() ? Value() : Value(skipped));
  }

  // --- 100k: the acceptance-scale dataset, varint + raw mmap. ---
  {
    const std::string name = "synth-p2p-100k";
    Row& r = new_row(rec, name);
    std::string skipped;
    const auto raw = (cache_dir / "synth-p2p-100k.raw.qcg").string();
    const auto varint =
        timed_load(data_dir + "/synth-p2p-100k.qcg", r, "varint_load_ms");
    graph::write_qcg_file(raw, varint, graph::QcgEncoding::kRawCsr);
    const auto mapped = raw_view(raw, r);
    measure_bfs(mapped, opt.quick ? 4 : 8, r);
    if (!opt.quick) {
      congest_ecc(mapped, r);
    } else {
      skip(skipped, name, "congest eccentricity", "quick");
    }
    if (full) {
      engine_sweep(mapped, r);
    } else {
      skip(skipped, name, "ecc_engine full sweep", mode + ": pass --full");
    }
    r.add("skipped", skipped.empty() ? Value() : Value(skipped));
  }

  // --- 1M: generated once, cached as raw .qcg under the temp dir. ---
  {
    const std::string name = "pa-1m";
    Row& r = new_row(rec, name);
    if (full) {
      const auto raw = (cache_dir / "pa-1m.raw.qcg").string();
      if (!graph::is_qcg_file(raw)) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto g = graph::make_from_spec("pa:1000000:3:42");
        std::cout << "generated pa:1000000:3:42 in " << fmt(ms_since(t0), 0)
                  << " ms, caching " << raw << "\n";
        graph::write_qcg_file(raw, g, graph::QcgEncoding::kRawCsr);
      }
      const auto mapped = raw_view(raw, r);
      std::uint32_t sampled_lb = measure_bfs(mapped, 8, r);
      congest_ecc(mapped, r);
      // Sampled 32-source eccentricity lower bound: kept as a cheap
      // cross-check of the exhaustive sweep below.
      graph::BfsScratch scratch;
      for (const graph::NodeId root : spread_roots(mapped.n(), 32)) {
        graph::flat_bfs_distances(mapped, root, scratch);
        sampled_lb = std::max(sampled_lb, scratch.finite_ecc);
      }
      r.add("sampled_lb", sampled_lb);
      // The exhaustive n-BFS sweep — infeasible on the flat kernel (hours),
      // feasible on the bit-parallel one.
      check_internal(engine_sweep(mapped, r) >= sampled_lb,
                     "bench_scale: exhaustive diameter below sampled bound");
    } else {
      std::string skipped;
      skip(skipped, name,
           "all configs (generate + load + BFS + congest + ecc_engine)",
           mode + ": pass --full");
      r.add("skipped", skipped);
    }
  }

  std::cout << "\n";
  rec.print_table(std::cout);
  rec.write(cli.get_string("out", ""));
  return 0;
}
