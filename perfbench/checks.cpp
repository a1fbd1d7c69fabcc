#include "checks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "metrics/trace_format.hpp"

namespace perfbench {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::vector<std::string> check_digests(const std::string& label,
                                       const std::vector<std::uint64_t>& digests) {
  std::vector<std::string> out;
  if (digests.empty()) {
    out.push_back(label + ": no repeat completed");
    return out;
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      out.push_back(label + ": repeat " + std::to_string(i) + " digest " +
                    hex(digests[i]) + " != first repeat " + hex(digests[0]));
    }
  }
  return out;
}

std::vector<std::string> check_paper_shape(const protocol_totals& push,
                                           const protocol_totals& pull,
                                           const protocol_totals& rpcc,
                                           double ttn_s) {
  std::vector<std::string> out;
  if (!(pull.frames > rpcc.frames)) {
    out.push_back("Fig 7: pull frames " + std::to_string(pull.frames) +
                  " not above rpcc frames " + std::to_string(rpcc.frames));
  }
  const double lpush = push.mean_latency_s();
  const double lpull = pull.mean_latency_s();
  const double lrpcc = rpcc.mean_latency_s();
  if (!(lpush > lpull)) {
    out.push_back("Fig 8: push latency " + num(lpush) +
                  " s not above pull latency " + num(lpull) + " s");
  }
  if (!(lpull >= lrpcc)) {
    out.push_back("Fig 8: pull latency " + num(lpull) +
                  " s below rpcc latency " + num(lrpcc) + " s");
  }
  if (!(lpush >= ttn_s / 4 && lpush <= ttn_s)) {
    out.push_back("Fig 8: push latency " + num(lpush) + " s outside [TTN/4, TTN] = [" +
                  num(ttn_s / 4) + ", " + num(ttn_s) + "] s");
  }
  for (const protocol_totals* p : {&push, &pull, &rpcc}) {
    if (p->answered == 0) out.push_back("paper: a protocol answered no query");
  }
  return out;
}

bool tally_trace(const std::string& path, double warmup_s, query_tally& out,
                 std::string& error) {
  using manet::trace_ev;
  using manet::trace_record;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (!f) {
    error = "cannot open trace " + path;
    return false;
  }
  manet::trace_file_header header;
  if (std::fread(&header, sizeof header, 1, f.get()) != 1 ||
      std::memcmp(header.magic, manet::trace_magic, sizeof header.magic) != 0 ||
      header.record_size != sizeof(trace_record)) {
    error = "trace " + path + " lacks a binary trace header";
    return false;
  }
  struct open_query {
    double t = 0;
  };
  std::unordered_map<std::uint64_t, open_query> open;  // by trace id
  std::unordered_map<std::uint32_t, std::uint64_t> newest;  // item -> version
  query_tally t;
  double latency_sum = 0;
  std::uint64_t issued_after = 0;
  std::vector<trace_record> block(4096);
  std::size_t got = 0;
  while ((got = std::fread(block.data(), sizeof(trace_record), block.size(),
                           f.get())) > 0) {
    for (std::size_t i = 0; i < got; ++i) {
      const trace_record& r = block[i];
      switch (static_cast<trace_ev>(r.ev)) {
        case trace_ev::query:
          open[r.u64b] = open_query{r.t};
          if (r.t > warmup_s) ++issued_after;
          break;
        case trace_ev::update: {
          std::uint64_t& v = newest[r.b];
          if (r.u64a > v) v = r.u64a;
          break;
        }
        case trace_ev::answer: {
          const auto it = open.find(r.u64b);
          if (it == open.end()) {
            error = "answer at t=" + num(r.t) + " has no open query (trace id " +
                    std::to_string(r.u64b) + ")";
            return false;
          }
          const double issued_at = it->second.t;
          open.erase(it);
          if (r.t <= warmup_s) break;
          if (issued_at <= warmup_s) ++issued_after;  // open at the reset
          ++t.answered;
          latency_sum += r.t - issued_at;
          const auto nv = newest.find(r.b);
          if (nv != newest.end() && r.u64a < nv->second) ++t.stale;
          break;
        }
        default:
          break;
      }
    }
  }
  // Queries issued before the reset and never answered were open at it.
  for (const auto& [id, q] : open) {
    (void)id;
    if (q.t <= warmup_s) ++issued_after;
  }
  t.issued = issued_after;
  t.mean_latency_s = t.answered != 0 ? latency_sum / static_cast<double>(t.answered) : 0;
  out = t;
  return true;
}

std::vector<std::string> check_tally(const query_tally& summary,
                                     const query_tally& recomputed) {
  std::vector<std::string> out;
  if (summary.issued != recomputed.issued) {
    out.push_back("trace: issued " + std::to_string(recomputed.issued) +
                  " != summary " + std::to_string(summary.issued));
  }
  if (summary.answered != recomputed.answered) {
    out.push_back("trace: answered " + std::to_string(recomputed.answered) +
                  " != summary " + std::to_string(summary.answered));
  }
  if (summary.stale != recomputed.stale) {
    out.push_back("trace: stale answers " + std::to_string(recomputed.stale) +
                  " != summary " + std::to_string(summary.stale));
  }
  const double scale = std::max(std::fabs(summary.mean_latency_s), 1e-12);
  if (std::fabs(summary.mean_latency_s - recomputed.mean_latency_s) > 1e-9 * scale) {
    out.push_back("trace: mean latency " + num(recomputed.mean_latency_s) +
                  " s != summary " + num(summary.mean_latency_s) + " s");
  }
  if (summary.answered == 0) out.push_back("trace: no query answered");
  return out;
}

std::vector<std::string> check_relays(const std::string& label,
                                      std::size_t at_start, std::size_t at_end) {
  if (at_start > 0 && at_end > 0) return {};
  return {label + ": relays " + std::to_string(at_start) + " at window start, " +
          std::to_string(at_end) + " at its end (both must be above zero)"};
}

std::vector<std::string> check_profile_bound(const std::string& label,
                                             double profiled_root_s,
                                             double window_host_s) {
  if (profiled_root_s <= window_host_s) return {};
  return {label + ": profiler sections " + num(profiled_root_s) +
          " s exceed the window's host time " + num(window_host_s) + " s"};
}

}  // namespace perfbench
