// The repository's benchmark: host cost of the RPCC simulator on three
// workloads, every host-time figure taken as the minimum over short,
// identical, deterministic repeats (see README.md for the workloads, the
// metrics and why each was chosen).
//
//   perfbench --workload paper|swarm_steady|swarm_cold --seed N --seconds S
//             --trace 0|1 [--out DIR] [--smoke] [key=value ...]
//   perfbench --selftest [--out DIR]
//
// --smoke shrinks the workload to the sizes the self-test uses.
//
// --trace 0 prints the end-to-end metrics, --trace 1 a traced pass's
// per-layer metrics. key=value arguments override scenario_params fields;
// a key that scenario_params::to_config does not emit is refused. The last
// line of standard output is one JSON object; the exit code is non-zero
// when a correctness check fails.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "checks.hpp"
#include "obs/host_mem.hpp"
#include "scenario/scenario.hpp"
#include "util/config.hpp"

// --- Allocation counter ---------------------------------------------------
// Counts every global operator new in this process for
// process.allocs_per_event. A plain counter: the simulation runs on one
// thread and forked children count in their own copy, so the untimed and
// timed passes pay one ordinary increment per allocation and no locked
// instruction.
namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using steady = std::chrono::steady_clock;

// Taken during static initialisation, before main: setup_s is timed from
// here, so it covers everything the process does before measuring.
const steady::time_point g_process_start = steady::now();

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Workloads --------------------------------------------------------------

struct workload {
  std::string name;
  std::vector<std::string> protocols;
  int n = 0;
  bool density_scaled = false;  ///< side = 1500 * sqrt(n / 50), paper density
  double warmup = 0;            ///< simulated seconds before the window
  double window = 0;            ///< simulated seconds of one timed repeat
  int seeds = 1;                ///< scenario seeds per run, drawn from --seed
  /// Further RPCC seeds run once, untimed, for msgs_per_query and
  /// query_latency_ms: the mean latency is heavy-tailed, so it needs far
  /// more simulated time than the timed repeats hold to be steady.
  int stat_seeds = 0;
  bool forked = false;  ///< warm once, replay the window in forked children
  bool invariants = false;  ///< strict runtime invariants in timed repeats
};

workload make_workload(const std::string& name, bool smoke) {
  workload w;
  w.name = name;
  if (name == "paper") {
    w.protocols = {"push", "pull", "rpcc"};
    w.n = 50;
    w.warmup = 600;
    w.window = smoke ? 300 : 1200;
    w.seeds = smoke ? 2 : 6;
    w.stat_seeds = smoke ? 1 : 18;
    w.forked = true;
  } else if (name == "swarm_steady") {
    w.protocols = {"rpcc"};
    w.n = smoke ? 100 : 1000;
    w.density_scaled = true;
    w.warmup = 600;
    w.window = smoke ? 20 : 60;
    w.seeds = smoke ? 1 : 2;
    w.forked = true;
    w.invariants = true;
  } else if (name == "swarm_cold") {
    w.protocols = {"rpcc"};
    w.n = smoke ? 1000 : 20000;
    w.density_scaled = true;
    w.window = smoke ? 1 : 4;
    w.invariants = true;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (expected paper|swarm_steady|swarm_cold)");
  }
  return w;
}

double side_for(int n) { return 1500.0 * std::sqrt(static_cast<double>(n) / 50.0); }

using overrides = std::vector<std::pair<std::string, std::string>>;

// The workload's parameters, set field by field, with the overrides laid on
// top. from_config ignores unknown keys, so every override key is first
// checked against the keys to_config emits: a typo fails instead of
// silently benchmarking the defaults.
manet::scenario_params resolve_params(workload& w, const overrides& ov) {
  manet::scenario_params p;
  p.n_peers = w.n;
  p.area_width = p.area_height = w.density_scaled ? side_for(w.n) : 1500.0;
  p.warmup = w.warmup;
  p.sim_time = w.window;
  p.invariants = w.invariants;
  if (!ov.empty()) {
    manet::config cfg;
    p.to_config(cfg);
    const std::vector<std::string> known = cfg.keys();
    bool area_set = false;
    for (const auto& [key, value] : ov) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw std::runtime_error("unknown scenario key '" + key + "'");
      }
      if (key == "seed") {
        throw std::runtime_error("scenario seeds come from --seed; drop 'seed='");
      }
      area_set = area_set || key == "area_width" || key == "area_height";
      cfg.set(key, value);
    }
    p = manet::scenario_params::from_config(cfg);
    if (w.density_scaled && !area_set) p.area_width = p.area_height = side_for(p.n_peers);
    w.n = p.n_peers;
    w.warmup = p.warmup;
    w.window = p.sim_time;
  }
  p.validate();
  if (w.window <= 0) throw std::runtime_error("sim_time must be positive");
  return p;
}

std::string render_params(const manet::scenario_params& p) {
  manet::config cfg;
  p.to_config(cfg);
  std::string out;
  for (const std::string& k : cfg.keys()) {
    if (k == "seed") continue;
    out += (out.empty() ? "" : " ") + k + "=" + cfg.get_string(k, "");
  }
  return out;
}

// --- One measured window ---------------------------------------------------

/// Flat record of one repeat: the run digest plus named numbers. Crosses
/// the pipe from forked children as text.
struct sample {
  std::uint64_t digest = 0;
  std::map<std::string, double> v;
  double get(const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
};

std::string serialize(const sample& s) {
  std::string out = "digest " + std::to_string(s.digest) + "\n";
  char buf[64];
  for (const auto& [k, x] : s.v) {
    std::snprintf(buf, sizeof buf, " %.17g\n", x);
    out += k + buf;
  }
  return out;
}

sample deserialize(const std::string& text) {
  sample s;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    if (key == "digest") {
      s.digest = std::stoull(line.substr(sp + 1));
    } else {
      s.v[key] = std::stod(line.substr(sp + 1));
    }
  }
  return s;
}

/// Per-label totals of a profiler: "calls", "total" and "self" seconds for
/// every section label ("neighbor_query", "protocol_handler[POLL]", ...)
/// summed over its tree positions, plus the root frames' total. The tree
/// (labels and depth) comes from report(), whose times are rounded to
/// 10 us; the times come from write_chrome_trace(), which walks the same
/// nodes in the same order at 1 ns resolution. `scratch_path` holds that
/// export for the moment of reading.
std::map<std::string, double> parse_profile(const manet::profiler& prof,
                                            const std::string& scratch_path) {
  struct row {
    std::string label;
    bool root = false;
    unsigned long long calls = 0;
  };
  std::vector<row> rows;
  const std::string report = prof.report();
  std::size_t pos = report.find('\n');  // skip the title line
  while (pos != std::string::npos && pos + 1 < report.size()) {
    const std::size_t eol = report.find('\n', pos + 1);
    const std::string line = report.substr(pos + 1, eol - pos - 1);
    pos = eol;
    const std::size_t calls_at = line.find("calls=");
    if (calls_at == std::string::npos || line.size() < 2) continue;
    row r;
    r.label = line.substr(2, calls_at - 2);
    const std::size_t indent = r.label.find_first_not_of(' ');
    r.root = indent == 0;
    r.label = r.label.substr(indent);
    r.label = r.label.substr(0, r.label.find_last_not_of(' ') + 1);
    if (std::sscanf(line.c_str() + calls_at, "calls=%llu", &r.calls) != 1) {
      throw std::runtime_error("unreadable profiler row: " + line);
    }
    rows.push_back(std::move(r));
  }

  if (!prof.write_chrome_trace(scratch_path)) {
    throw std::runtime_error("cannot write profile to " + scratch_path);
  }
  std::string chrome;
  if (std::FILE* f = std::fopen(scratch_path.c_str(), "r")) {
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) chrome.append(buf, got);
    std::fclose(f);
  }
  std::filesystem::remove(scratch_path);

  std::map<std::string, double> out;
  std::size_t i = 0;
  for (std::size_t at = chrome.find("{\"name\":\""); at != std::string::npos;
       at = chrome.find("{\"name\":\"", at + 1), ++i) {
    const std::size_t name_at = at + 9;
    const std::string label = chrome.substr(name_at, chrome.find('"', name_at) - name_at);
    double dur_us = 0, self_us = 0;
    unsigned long long calls = 0;
    const std::size_t dur_at = chrome.find("\"dur\":", at);
    if (i >= rows.size() || rows[i].label != label || dur_at == std::string::npos ||
        std::sscanf(chrome.c_str() + dur_at, "\"dur\":%lf,\"args\":{\"calls\":%llu,\"self_us\":%lf",
                    &dur_us, &calls, &self_us) != 3 ||
        calls != rows[i].calls) {
      throw std::runtime_error("profile export does not match its report at section " + label);
    }
    out["calls." + label] += static_cast<double>(calls);
    out["total." + label] += dur_us / 1e6;
    out["self." + label] += self_us / 1e6;
    if (rows[i].root) out["root"] += dur_us / 1e6;
  }
  // report() adds a zero row for every section never entered.
  for (; i < rows.size(); ++i) {
    if (rows[i].calls != 0) {
      throw std::runtime_error("profile export lacks section " + rows[i].label);
    }
  }
  return out;
}

std::map<std::string, double> metric_map(const manet::run_result& r) {
  return {r.metrics.begin(), r.metrics.end()};
}

/// Runs the scenario's measured window (scenario::run(), which resets the
/// statistics at the end of the warmup) and records what the checks and
/// metrics need. `traced` adds the per-layer numbers; their profile export
/// passes through a file in `out_dir`.
sample measure_window(manet::scenario& sc, bool traced, const std::string& out_dir) {
  sample s;
  const std::string profile_path =
      out_dir + "/profile-" + std::to_string(static_cast<long>(::getpid())) + ".json";
  manet::simulator& sim = sc.sim();
  const std::map<std::string, double> m0 = metric_map(sc.summarize());
  std::map<std::string, double> p0;
  if (traced) p0 = parse_profile(*sc.profile(), profile_path);
  const double relays_begin = static_cast<double>(sc.protocol().current_relays());
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t pushes0 = sim.queue().scheduled_count();
  const std::uint64_t allocs0 = g_allocs;

  const steady::time_point t0 = steady::now();
  const manet::run_result r = sc.run();
  s.v["host_s"] = seconds_since(t0);

  s.v["allocs"] = static_cast<double>(g_allocs - allocs0);
  s.v["events"] = static_cast<double>(sim.executed_events() - events0);
  s.v["queue_pushes"] = static_cast<double>(sim.queue().scheduled_count() - pushes0);
  s.v["relays_begin"] = relays_begin;
  s.v["relays_end"] = static_cast<double>(sc.protocol().current_relays());
  s.digest = manet::run_result_digest(r);
  s.v["frames"] = static_cast<double>(r.total_messages);
  s.v["issued"] = static_cast<double>(r.queries_issued);
  s.v["answered"] = static_cast<double>(r.queries_answered);
  s.v["stale"] = static_cast<double>(r.stale_answers);
  s.v["latency_sum_s"] = r.avg_query_latency_s * static_cast<double>(r.queries_answered);
  s.v["relay_peers"] = r.avg_relay_peers;
  if (!traced) return s;

  // Counters scenario::run() resets at the end of the warmup read as they
  // stand; the others are differenced over the window.
  const std::map<std::string, double> m1 = metric_map(r);
  const auto at = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* k : {"net.tx_frames", "net.rx_frames", "route.tx_frames",
                        "rpcc.polls_sent", "pull.polls_sent", "route.materialized_states",
                        "cache.copies", "net.payload_pool.high_water"}) {
    s.v[std::string("m.") + k] = at(m1, k);
  }
  for (const char* k : {"route.discoveries", "cache.evictions", "sim.queue_compactions",
                        "grid.rebuilds", "grid.delta_passes", "grid.cell_moves",
                        "net.payload_pool.heap_fallbacks"}) {
    s.v[std::string("m.") + k] = at(m1, k) - at(m0, k);
  }
  for (const auto& [k, x] : parse_profile(*sc.profile(), profile_path)) {
    s.v["prof." + k] = x - (p0.count(k) != 0 ? p0.at(k) : 0.0);
  }
  const steady::time_point ts = steady::now();
  (void)sc.summarize();
  s.v["summarize_s"] = seconds_since(ts);
  // Neighbor resolution as a caller sees it at the end of the window.
  const auto n = static_cast<manet::node_id>(sc.net().size());
  const steady::time_point tp = steady::now();
  for (manet::node_id u = 0; u < n; ++u) (void)sc.net().air().neighbors(u);
  s.v["neighbors_probe_ns"] = seconds_since(tp) * 1e9 / static_cast<double>(n);
  return s;
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t w = ::write(fd, text.data() + off, text.size() - off);
    if (w <= 0) _exit(3);
    off += static_cast<std::size_t>(w);
  }
}

/// Replays the warmed scenario's window in a forked child, so every repeat
/// starts from the same state, and returns the child's sample. Throws with
/// the child's message when the window failed there.
sample replay_forked(manet::scenario& sc, bool traced, const std::string& out_dir) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = serialize(measure_window(sc, traced, out_dir));
    } catch (const std::exception& e) {
      text = std::string("error ") + e.what();
      code = 1;
    }
    write_all(fds[1], text);
    ::close(fds[1]);
    _exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::read(fds[0], buf, sizeof buf)) > 0) text.append(buf, static_cast<std::size_t>(got));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (text.rfind("error ", 0) == 0) throw std::runtime_error(text.substr(6));
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("replay child ended abnormally");
  }
  return deserialize(text);
}

// --- Running a workload ----------------------------------------------------

/// One (protocol, scenario seed) combination of a workload and its repeats.
struct cell {
  std::string protocol;
  std::uint64_t seed = 0;
  manet::scenario_params params;
  std::unique_ptr<manet::scenario> plain, traced;  ///< warmed (forked workloads)
  std::vector<std::uint64_t> digests;  ///< every repeat's, traced ones too
  double min_host = std::numeric_limits<double>::infinity();
  double min_traced_host = std::numeric_limits<double>::infinity();
  sample first;        ///< first untraced repeat (simulated outputs)
  sample best_traced;  ///< traced repeat with the least host time
  std::string label() const { return protocol + "/seed" + std::to_string(seed); }
};

struct report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> untraced;
  perfbench::protocol_totals push, pull, rpcc;
  perfbench::query_tally summary, recomputed;
  /// A run is correct only when every check passed and no operation failed:
  /// a throwing strict-invariant run or an unreadable trace counts.
  bool correct() const { return problems.empty() && failed == 0; }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

void add_problems(report& rep, const std::vector<std::string>& found) {
  rep.problems.insert(rep.problems.end(), found.begin(), found.end());
}

// The packet kinds whose handler cost the traced pass reports by name.
const std::vector<std::string>& handler_kinds() {
  static const std::vector<std::string> kinds = {
      "POLL",        "POLL_ACK_A", "POLL_ACK_B", "INVALIDATION", "UPDATE",
      "GET_NEW",     "SEND_NEW",   "APPLY",      "APPLY_ACK",    "CANCEL",
      "PUSH_INV",    "PUSH_GET",   "PUSH_SEND",
      "PULL_POLL",   "PULL_VALID", "PULL_DATA"};
  return kinds;
}
const std::vector<std::string>& flood_kinds() {
  static const std::vector<std::string> kinds = {"POLL", "INVALIDATION", "PULL_POLL",
                                                 "PUSH_INV"};
  return kinds;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "perfbench/out";
  overrides ov;
};

report run_workload(const options& opt) {
  report rep;
  rep.workload = opt.workload;
  const std::size_t rss_base = manet::peak_rss_bytes();
  std::filesystem::create_directories(opt.out_dir);
  workload w = make_workload(opt.workload, opt.smoke);
  const manet::scenario_params base = resolve_params(w, opt.ov);
  std::printf("workload %s: n=%d side=%.1fm warmup=%gs window=%gs seeds=%d protocols=",
              w.name.c_str(), w.n, base.area_width, w.warmup, w.window, w.seeds);
  for (const std::string& p : w.protocols) std::printf("%s%s", p.c_str(), p == w.protocols.back() ? "" : ",");
  std::printf(" replay=%s invariants=%s\nparams: %s\n", w.forked ? "forked" : "fresh",
              base.invariants ? (base.invariant_strict ? "strict" : "on") : "off",
              render_params(base).c_str());

  const auto scenario_seed = [&](int k) {
    return splitmix64(opt.seed * 1000003ULL + static_cast<std::uint64_t>(k)) % 1000000007ULL;
  };
  std::vector<cell> cells;
  for (int k = 0; k < w.seeds; ++k) {
    const std::uint64_t seed = scenario_seed(k);
    for (const std::string& proto : w.protocols) {
      cell c;
      c.protocol = proto;
      c.seed = seed;
      c.params = base;
      c.params.seed = seed;
      cells.push_back(std::move(c));
    }
  }
  const auto make = [](const cell& c, bool traced) {
    manet::scenario_params p = c.params;
    p.profile = traced;
    return std::make_unique<manet::scenario>(p, c.protocol);
  };

  // Set-up: forked workloads construct and warm every cell once.
  std::size_t held = 1;
  if (w.forked) {
    for (cell& c : cells) {
      c.plain = make(c, false);
      c.plain->run_until(w.warmup);
      if (opt.trace) {
        c.traced = make(c, true);
        c.traced->run_until(w.warmup);
      }
    }
    held = cells.size() * (opt.trace ? 2 : 1);
  }
  double setup_s = w.forked ? seconds_since(g_process_start) : 0;
  double rss_per_node_kib = 0;
  if (w.forked) {
    rss_per_node_kib = static_cast<double>(manet::peak_rss_bytes() - rss_base) / 1024.0 /
                       (static_cast<double>(w.n) * static_cast<double>(held));
  }

  const auto repeat = [&](cell& c, bool traced) {
    ++rep.attempted;
    try {
      sample s;
      if (w.forked) {
        s = replay_forked(traced ? *c.traced : *c.plain, traced, opt.out_dir);
      } else {
        std::unique_ptr<manet::scenario> sc = make(c, traced);
        if (setup_s == 0) setup_s = seconds_since(g_process_start);
        s = measure_window(*sc, traced, opt.out_dir);
        if (rss_per_node_kib == 0) {
          rss_per_node_kib = static_cast<double>(manet::peak_rss_bytes() - rss_base) /
                             1024.0 / static_cast<double>(w.n);
        }
      }
      if (s.get("issued") <= 0 || s.get("frames") <= 0) {
        throw std::runtime_error("window issued no query or sent no frame");
      }
      c.digests.push_back(s.digest);
      const double host = s.get("host_s");
      if (traced) {
        add_problems(rep, perfbench::check_profile_bound(c.label(), s.get("prof.root"), host));
        if (host < c.min_traced_host) {
          c.min_traced_host = host;
          c.best_traced = s;
        }
      } else {
        if (c.first.v.empty()) c.first = s;
        c.min_host = std::min(c.min_host, host);
      }
      if (w.name == "swarm_steady") {
        add_problems(rep, perfbench::check_relays(
                              c.label(), static_cast<std::size_t>(s.get("relays_begin")),
                              static_cast<std::size_t>(s.get("relays_end"))));
      }
    } catch (const std::exception& e) {
      ++rep.failed;
      std::printf("operation failed: %s %s: %s\n", c.label().c_str(),
                  traced ? "traced" : "untraced", e.what());
    }
  };

  // Whole rounds, every cell once per round (twice when traced), until the
  // time is up; at least two so every cell's determinism is checked.
  const steady::time_point measure_start = steady::now();
  int rounds = 0;
  while (rounds < 2 || seconds_since(measure_start) < opt.seconds) {
    for (cell& c : cells) {
      repeat(c, false);
      if (opt.trace) repeat(c, true);
    }
    ++rounds;
  }

  // paper's timed repeats run without the invariant checker, whose sweeps
  // would be half their host time. Untimed strict-invariant runs of the
  // first seed's cells must reproduce the timed digests instead, and the
  // RPCC one writes the binary trace its window's query outcomes are
  // recomputed from.
  if (w.name == "paper") {
    for (cell& c : cells) {
      if (c.seed != cells.front().seed) continue;
      ++rep.attempted;
      manet::scenario_params p = c.params;
      p.invariants = true;
      p.invariant_strict = true;
      const bool traced_file = c.protocol == "rpcc";
      const std::string path = opt.out_dir + "/paper-rpcc-" + std::to_string(c.seed) + ".trace";
      if (traced_file) {
        p.trace_file = path;
        p.trace_format = "binary";
      }
      try {
        manet::run_result r;
        {
          manet::scenario sc(p, c.protocol);
          r = sc.run();
        }
        c.digests.push_back(manet::run_result_digest(r));
        if (traced_file) {
          rep.summary = {r.queries_issued, r.queries_answered, r.stale_answers,
                         r.avg_query_latency_s};
          std::string error;
          if (!perfbench::tally_trace(path, p.warmup, rep.recomputed, error)) {
            throw std::runtime_error(error);
          }
          add_problems(rep, perfbench::check_tally(rep.summary, rep.recomputed));
        }
      } catch (const std::exception& e) {
        ++rep.failed;
        std::printf("operation failed: %s strict: %s\n", c.label().c_str(), e.what());
      }
      if (traced_file) std::filesystem::remove(path);
    }
  }
  perfbench::protocol_totals rpcc_stats;
  for (int k = 0; k < w.stat_seeds; ++k) {
    ++rep.attempted;
    try {
      manet::scenario_params p = base;
      p.seed = scenario_seed(w.seeds + k);
      manet::scenario sc(p, "rpcc");
      const manet::run_result r = sc.run();
      rpcc_stats.frames += r.total_messages;
      rpcc_stats.issued += r.queries_issued;
      rpcc_stats.answered += r.queries_answered;
      rpcc_stats.latency_sum_s += r.avg_query_latency_s * static_cast<double>(r.queries_answered);
    } catch (const std::exception& e) {
      ++rep.failed;
      std::printf("operation failed: rpcc statistics seed %d: %s\n", k, e.what());
    }
  }

  for (const cell& c : cells) {
    std::printf("cell %-20s repeats=%zu min_host_s=%.6f min_traced_host_s=%.6f digest=%016" PRIx64 "\n",
                c.label().c_str(), c.digests.size(), c.min_host, c.min_traced_host,
                c.digests.empty() ? 0 : c.digests.front());
  }
  // --- checks over the repeats
  for (const cell& c : cells) add_problems(rep, perfbench::check_digests(c.label(), c.digests));
  const auto totals = [&](const std::string& proto) {
    perfbench::protocol_totals t;
    for (const cell& c : cells) {
      if (c.protocol != proto) continue;
      t.frames += static_cast<std::uint64_t>(c.first.get("frames"));
      t.issued += static_cast<std::uint64_t>(c.first.get("issued"));
      t.answered += static_cast<std::uint64_t>(c.first.get("answered"));
      t.latency_sum_s += c.first.get("latency_sum_s");
    }
    return t;
  };
  rep.rpcc = totals("rpcc");
  rpcc_stats.frames += rep.rpcc.frames;
  rpcc_stats.issued += rep.rpcc.issued;
  rpcc_stats.answered += rep.rpcc.answered;
  rpcc_stats.latency_sum_s += rep.rpcc.latency_sum_s;
  if (w.name == "paper") {
    rep.push = totals("push");
    rep.pull = totals("pull");
    add_problems(rep, perfbench::check_paper_shape(rep.push, rep.pull, rep.rpcc, base.ttn));
  }
  for (const cell& c : cells) {
    if (c.first.v.empty() || (opt.trace && c.best_traced.v.empty())) {
      rep.problems.push_back(c.label() + ": no repeat completed");
    }
  }
  if (!rep.correct()) return rep;

  // --- end-to-end metrics
  const double node_s = static_cast<double>(w.n) * w.window * w.seeds;
  double host_sum = 0;
  for (const cell& c : cells) host_sum += c.min_host;
  auto& e2e = opt.trace ? rep.untraced : rep.metrics;
  e2e.push_back({"host_us_per_node_s", {host_sum * 1e6 / node_s, "us"}});
  e2e.push_back({"setup_s", {setup_s, "s"}});
  e2e.push_back({"rss_per_node_kib", {rss_per_node_kib, "KiB"}});
  e2e.push_back({"msgs_per_query", {static_cast<double>(rpcc_stats.frames) / static_cast<double>(rpcc_stats.issued), "frames"}});
  e2e.push_back({"query_latency_ms", {rpcc_stats.mean_latency_s() * 1e3, "ms"}});
  if (!opt.trace) return rep;

  // --- per-layer metrics from each cell's least-disturbed traced repeat
  const auto sum = [&](const std::string& key) {
    double x = 0;
    for (const cell& c : cells) x += c.best_traced.get(key);
    return x;
  };
  const auto most = [&](const std::string& key) {
    double x = 0;
    for (const cell& c : cells) x = std::max(x, c.best_traced.get(key));
    return x;
  };
  const double per_node_s_us = 1e6 / node_s;
  const double events = sum("events");
  rep.put("sim.events_per_node_s", events / node_s, "1/s");
  rep.put("sim.dispatch_self_us_per_node_s", sum("prof.self.event_dispatch") * per_node_s_us, "us");
  rep.put("sim.queue_pushes", sum("queue_pushes"), "count");
  rep.put("sim.queue_compactions", sum("m.sim.queue_compactions"), "count");
  rep.put("net.neighbor_query_calls", sum("prof.calls.neighbor_query"), "count");
  rep.put("net.neighbor_query_us_per_node_s", sum("prof.total.neighbor_query") * per_node_s_us, "us");
  rep.put("net.neighbors_probe_ns", sum("neighbors_probe_ns") / static_cast<double>(cells.size()), "ns");
  rep.put("net.grid_cell_moves", sum("m.grid.cell_moves"), "count");
  rep.put("net.grid_delta_passes", sum("m.grid.delta_passes"), "count");
  rep.put("net.grid_rebuilds", sum("m.grid.rebuilds"), "count");
  rep.put("net.tx_frames_per_node_s", sum("m.net.tx_frames") / node_s, "1/s");
  rep.put("net.rx_frames_per_node_s", sum("m.net.rx_frames") / node_s, "1/s");
  for (const std::string& k : flood_kinds()) {
    const std::string label = "protocol_handler[" + k + "]";
    const double calls = sum("prof.calls." + label);
    rep.put("net.flood_handler_us." + k, calls > 0 ? sum("prof.total." + label) * 1e6 / calls : 0, "us");
  }
  rep.put("net.payload_pool_high_water", most("m.net.payload_pool.high_water"), "count");
  rep.put("net.payload_heap_fallbacks", sum("m.net.payload_pool.heap_fallbacks"), "count");
  rep.put("routing.discoveries", sum("m.route.discoveries"), "count");
  rep.put("routing.tx_frames", sum("m.route.tx_frames"), "count");
  rep.put("routing.materialized_states", most("m.route.materialized_states"), "count");
  for (const std::string& k : handler_kinds()) {
    rep.put("consistency.handler_us." + k,
            sum("prof.self.protocol_handler[" + k + "]") * per_node_s_us, "us");
  }
  for (const char* proto : {"push", "pull", "rpcc"}) {
    double host = 0;
    for (const cell& c : cells) {
      if (c.protocol == proto) host += c.min_host;
    }
    rep.put(std::string("consistency.host_s.") + proto, host, "s");
  }
  rep.put("consistency.polls_sent", sum("m.rpcc.polls_sent") + sum("m.pull.polls_sent"), "count");
  double relay_peers = 0;
  int rpcc_cells = 0;
  for (const cell& c : cells) {
    if (c.protocol != "rpcc") continue;
    relay_peers += c.best_traced.get("relay_peers");
    ++rpcc_cells;
  }
  rep.put("consistency.relay_peers", rpcc_cells > 0 ? relay_peers / rpcc_cells : 0, "count");
  rep.put("cache.copies", sum("m.cache.copies") / static_cast<double>(cells.size()), "count");
  rep.put("cache.evictions", sum("m.cache.evictions"), "count");
  rep.put("metrics.summarize_ms", sum("summarize_s") * 1e3 / static_cast<double>(cells.size()), "ms");
  rep.put("process.allocs_per_event", events > 0 ? sum("allocs") / events : 0, "1/event");
  double traced_host = 0;
  for (const cell& c : cells) traced_host += c.min_traced_host;
  rep.put("unattributed_us_per_node_s", (traced_host - sum("prof.root")) * per_node_s_us, "us");
  rep.put("obs.profiler_overhead", traced_host / host_sum, "ratio");
  return rep;
}

// --- Output ------------------------------------------------------------------

std::string json_metrics(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>& ms) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"", ms[i].second.first);
    out += (i ? ", \"" : "\"") + ms[i].first + "\": " + buf + ms[i].second.second + "\"}";
  }
  return out + "}";
}

std::string json_line(const report& rep) {
  char head[128];
  std::snprintf(head, sizeof head, "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                rep.correct() ? "true" : "false", rep.attempted, rep.failed);
  return std::string(head) + ", \"metrics\": " + json_metrics(rep.metrics) + "}";
}

void print_report(const report& rep, const options& opt) {
  for (const std::string& p : rep.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("operations: attempted=%" PRIu64 " failed=%" PRIu64 "\n", rep.attempted, rep.failed);
  for (const auto& [name, vu] : rep.untraced) {
    std::printf("untraced %-34s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  for (const auto& [name, vu] : rep.metrics) {
    std::printf("%-43s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/" + rep.workload + (opt.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"result\": %s, \"untraced\": %s}\n",
                 rep.workload.c_str(), opt.seed, json_line(rep).c_str(),
                 json_metrics(rep.untraced).c_str());
    std::fclose(f);
  }
}

// --- Self-test ----------------------------------------------------------------

int selftest(const options& base) {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("selftest: %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  report paper;
  for (const char* name : {"paper", "swarm_steady", "swarm_cold"}) {
    options o = base;
    o.workload = name;
    o.seconds = 0;
    o.smoke = true;
    o.trace = true;
    const report rep = run_workload(o);
    print_report(rep, o);
    expect(rep.correct(), std::string(name) + " smoke run passes every check");
    if (o.workload == "paper") paper = rep;
  }
  // Each check must fail when fed a corrupted input.
  expect(!perfbench::check_digests("selftest", {7, 7, 8, 7}).empty(),
         "a perturbed digest in one repeat fails the determinism check");
  expect(perfbench::check_paper_shape(paper.push, paper.pull, paper.rpcc, 120).empty(),
         "smoke paper totals pass the Fig 7/8 relations");
  expect(!perfbench::check_paper_shape(paper.push, paper.rpcc, paper.pull, 120).empty(),
         "swapped pull/rpcc totals fail the Fig 7/8 relations");
  perfbench::query_tally off = paper.recomputed;
  ++off.stale;
  expect(!perfbench::check_tally(paper.summary, off).empty(),
         "a stale count off by one fails the trace recomputation");
  off = paper.recomputed;
  --off.answered;
  expect(!perfbench::check_tally(paper.summary, off).empty(),
         "an answered count off by one fails the trace recomputation");
  expect(!perfbench::check_relays("selftest", 3, 0).empty(),
         "a window ending without relays fails the steady-state precondition");
  expect(!perfbench::check_profile_bound("selftest", 1.5, 1.0).empty(),
         "profiled time above the window's host time fails the bound");
  report failed_op;
  failed_op.attempted = 1;
  failed_op.failed = 1;
  expect(!failed_op.correct(), "one failed operation makes the run incorrect");
  std::printf("selftest: %s\n", bad == 0 ? "all passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

options parse_args(int argc, char** argv, bool& selftest_mode) {
  options o;
  selftest_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::runtime_error("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--out") {
      o.out_dir = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--selftest") {
      selftest_mode = true;
    } else if (const std::size_t eq = a.find('='); eq != std::string::npos && a[0] != '-') {
      o.ov.emplace_back(a.substr(0, eq), a.substr(eq + 1));
    } else {
      throw std::runtime_error("unknown argument '" + a + "'");
    }
  }
  if (!selftest_mode && o.workload.empty()) throw std::runtime_error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool selftest_mode = false;
    const options opt = parse_args(argc, argv, selftest_mode);
    if (selftest_mode) return selftest(opt);
    const report rep = run_workload(opt);
    print_report(rep, opt);
    std::printf("%s\n", json_line(rep).c_str());
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
