// Correctness checks of the benchmark, kept as pure functions over plain
// data so the self-test can feed them corrupted inputs and watch each one
// fail. Every check returns the list of its failures (empty = pass).
#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every repeat of one identical deterministic scenario must reproduce the
/// first repeat's run digest. `label` names the scenario in messages.
std::vector<std::string> check_digests(const std::string& label,
                                       const std::vector<std::uint64_t>& digests);

/// One protocol's totals over the paper workload's seeds.
struct protocol_totals {
  std::uint64_t frames = 0;    ///< one-hop transmissions in the windows
  std::uint64_t issued = 0;    ///< queries issued in the windows
  std::uint64_t answered = 0;  ///< answered queries in the windows
  double latency_sum_s = 0;    ///< sum of answered-query latencies
  double mean_latency_s() const {
    return answered != 0 ? latency_sum_s / static_cast<double>(answered) : 0;
  }
};

/// The paper's Fig 7/8 relations: pull transmits more frames than RPCC;
/// mean latency is push > pull >= RPCC; push latency lies in [TTN/4, TTN].
std::vector<std::string> check_paper_shape(const protocol_totals& push,
                                           const protocol_totals& pull,
                                           const protocol_totals& rpcc,
                                           double ttn_s);

/// Query outcomes of one run: either as the run summary reports them, or
/// as recomputed from a binary trace's raw records.
struct query_tally {
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t stale = 0;
  double mean_latency_s = 0;
};

/// Recomputes the measured window's query outcomes from a binary trace
/// (metrics/trace_format.hpp layout), independently of the simulator's
/// query_log. Counting starts after `warmup_s`, where scenario::run()
/// resets its statistics: answers after it count, and a query counts as
/// issued when it comes after it or is still open at it. A query is matched
/// to its answer by trace id; an answer is stale when its version is below
/// the item's newest update record seen so far in file order. Returns false
/// with `error` set when the file cannot be read.
bool tally_trace(const std::string& path, double warmup_s, query_tally& out,
                 std::string& error);

/// The recomputed tally must equal the run summary: counts exactly, the
/// mean latency to a relative 1e-9 (the summary averages incrementally, the
/// recomputation sums, so the last bits may differ).
std::vector<std::string> check_tally(const query_tally& summary,
                                     const query_tally& recomputed);

/// The steady-state window must run with relays elected: RPCC's relay
/// count is above zero when the window starts and when it ends.
std::vector<std::string> check_relays(const std::string& label,
                                      std::size_t at_start, std::size_t at_end);

/// Section times of the profiler can never exceed the window's host time
/// measured around it from outside.
std::vector<std::string> check_profile_bound(const std::string& label,
                                             double profiled_root_s,
                                             double window_host_s);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_HPP
