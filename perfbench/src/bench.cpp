#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/error.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CpuTimes cpu_now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return {tv_seconds(self.ru_utime) + tv_seconds(kids.ru_utime),
          tv_seconds(self.ru_stime) + tv_seconds(kids.ru_stime)};
}

CpuTimes operator-(const CpuTimes& a, const CpuTimes& b) {
  return {a.user - b.user, a.sys - b.sys};
}

double process_cpu_seconds(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double self_peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& reason) {
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(reason);
}

void Result::note_num(const std::string& key, double value) {
  notes_[key] = json_num(value);
}

void Result::note_str(const std::string& key, const std::string& value) {
  notes_[key] = "\"" + json_escape(value) + "\"";
}

bool check(Result& res, bool ok, const std::string& what) {
  if (!ok) res.fail(what);
  return ok;
}

std::string Result::report_json(const Options& opt) const {
  std::ostringstream os;
  std::string cpu_model = "unknown";
  {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  os << "{\"workload\":\"" << json_escape(opt.workload) << "\",\"seed\":"
     << opt.seed << ",\"seconds\":" << json_num(opt.seconds)
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"tiny\":" << (opt.tiny ? 1 : 0)
     << ",\"host\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":\"" << json_escape(cpu_model) << "\",\"compiler\":\""
     << json_escape(std::string("g++ ") + __VERSION__) << "\",\"build_type\":\""
     << QC_PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\"" << json_escape(opt.git_sha)
     << "\",\"src_digest\":\"" << json_escape(opt.src_digest)
     << "\",\"load_threads\":" << opt.threads << "}";
  os << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"fail_rate\":"
     << json_num(attempted_ == 0 ? 1.0
                                 : static_cast<double>(failed_) /
                                       static_cast<double>(attempted_));
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < reasons_.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(reasons_[i]) << "\"";
  }
  os << "],\"model_costs\":{";
  bool first = true;
  for (const auto& [k, v] : costs_) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":" << v;
    first = false;
  }
  os << "}";
  for (const auto& [k, v] : notes_) {
    os << ",\"" << json_escape(k) << "\":" << v;
  }
  os << "}";
  return os.str();
}

std::string Result::result_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",") << "\"" << json_escape(name)
       << "\":{\"value\":" << json_num(m.value) << ",\"unit\":\""
       << json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------

double Tracer::time(const std::string& name, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_since(t0);
  spans_.push_back(
      {name, std::chrono::duration<double>(t0 - t0_).count(), s});
  return s;
}

void Tracer::add(const std::string& name, double seconds) {
  spans_.push_back({name, seconds_since(t0_) - seconds, seconds});
}

double Tracer::total_seconds() const {
  double s = 0;
  for (const auto& sp : spans_) s += sp.seconds;
  return s;
}

std::map<std::string, double> Tracer::layer_seconds() const {
  std::map<std::string, double> out;
  for (const auto& sp : spans_) {
    out[sp.name.substr(0, sp.name.find('.'))] += sp.seconds;
  }
  return out;
}

void Tracer::report(Result& res, double wall_s) const {
  const auto layers = layer_seconds();
  std::string top = "none";
  double top_s = -1.0;
  std::ostringstream split;
  split << "{";
  bool first = true;
  for (const auto& [layer, s] : layers) {
    split << (first ? "" : ",") << "\"" << layer << "\":" << json_num(s);
    first = false;
    if (s > top_s) {
      top_s = s;
      top = layer;
    }
  }
  split << ",\"unattributed\":" << json_num(wall_s - total_seconds()) << "}";
  res.note("layer_seconds", split.str());
  res.note_str("top_layer", top);
  res.note_num("top_layer_share", wall_s > 0 ? top_s / wall_s : 0.0);
  std::ostringstream list;
  list << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    list << (i ? "," : "") << "{\"name\":\"" << spans_[i].name
         << "\",\"start_s\":" << json_num(spans_[i].start_s)
         << ",\"seconds\":" << json_num(spans_[i].seconds) << "}";
  }
  list << "]";
  res.note("spans", list.str());
}

// ---------------------------------------------------------------------------

GraphInput pinned_diameter_graph(std::uint32_t n, std::uint32_t d,
                                 std::uint64_t seed) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t s = derive_seed(seed, 0x6e00 + attempt) % 1000000007ULL;
    const std::string spec = "diam:" + std::to_string(n) + ":" +
                             std::to_string(d) + ":" + std::to_string(s);
    qc::graph::Graph g = qc::graph::make_from_spec(spec);
    if (qc::graph::eccentricity(g, g.n() - 1) == d) return {spec, std::move(g)};
    qc::require(attempt < 10000, "pinned_diameter_graph: no seed pins ecc");
  }
}

std::string write_graph_file(const Options& opt, const qc::graph::Graph& g,
                             const std::string& stem) {
  const std::string path = opt.work_dir + "/" + stem + "-" +
                           std::to_string(::getpid()) + ".qcg";
  qc::graph::write_qcg_file(path, g);
  return path;
}

void Flood::on_round(qc::congest::NodeContext& ctx) {
  for (const auto& in : ctx.inbox()) {
    sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), in.msg.field(1));
  }
  blast(ctx);
}

void Flood::serialize_state(qc::congest::Message& out) const {
  out.push(sum_, 64);
}

void Flood::restore_state(const qc::congest::Message& in) {
  qc::require(in.num_fields() == 1, "Flood::restore_state: bad shape");
  sum_ = in.field(0);
}

void Flood::blast(qc::congest::NodeContext& ctx) {
  qc::congest::Message m;
  m.push(ctx.id(), ctx.id_bits());
  m.push(ctx.round() & 0xFFFFu, 16);
  ctx.broadcast(m);
}

}  // namespace perfbench
