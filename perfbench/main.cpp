// ssbench: closed-loop benchmark program for the SmartSouth simulator.
//
//   ssbench --workload NAME --seed N --seconds S --trace 0|1
//
// One client thread (pinned to one CPU when the affinity mask allows) runs
// one workload (workloads.cpp).  --trace 0 splits the S seconds into
// kSegments segments.  Each starts with timed set-up samples (setup_s is
// the median of all kSetupReps, spread over the run so that set-up sees the
// same host conditions as the ops), then runs up to kWarmupOps of warm-up
// (checked, not timed), then whole cycles of timed ops until its share of S
// has passed.  Every op is checked against its oracle; a failed op stays in
// the timing sample and is counted in "failed".
//
// --trace 0 reports the end-to-end metrics.  --trace 1 is a separate pass:
// fixed blocks of trace_ops() ops alternate untraced / traced (stage
// profiler armed, spans around module calls) until S seconds have passed.
// The per-layer metrics are medians over traced blocks, except op_ms_p50
// and mpps, which come from the untraced blocks; deterministic counts must
// repeat exactly in every traced block.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/profile.hpp"

using namespace perfbench;
namespace prof = ss::util::prof;

namespace {

constexpr int kSetupReps = 6;
constexpr int kSegments = 3;
constexpr double kSetupMinMs = 50.0;
// Untimed ops first: long enough for every switch's lazily built flow
// index to exist (FlowTable builds it after 16 lookups).
constexpr std::size_t kWarmupOps = 8;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <class Map>
double value_or_zero(const Map& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

Clock::time_point after_seconds(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Pin the process to the last CPU it may run on: one client thread, and
/// no migrations between cores mid-op.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

/// What one run of ops produced.
struct Block {
  std::vector<double> op_ms;
  double wall_ms = 0.0;
  SimDelta sim;
  Trace trace;
  prof::StageProfile profile;
};

/// Arms the stage profiler on this thread for one scope (nullptr: disarmed).
class ArmProfile {
 public:
  explicit ArmProfile(prof::StageProfile* p) : prev_(prof::set_thread_profile(p)) {}
  ~ArmProfile() { prof::set_thread_profile(prev_); }
  ArmProfile(const ArmProfile&) = delete;
  ArmProfile& operator=(const ArmProfile&) = delete;

 private:
  prof::StageProfile* prev_;
};

/// Run ops [first, first + count) — or, with count == 0, whole cycles from
/// `first` until `deadline` — through prepare / op / check.  An op that
/// throws or fails its check is counted failed and keeps its time sample.
Block run_ops(Workload& w, std::size_t first, std::size_t count, Clock::time_point deadline,
              bool traced, Tally& tally) {
  Block b;
  b.trace.on = traced;
  const auto start = Clock::now();
  for (std::size_t i = first;; ++i) {
    if (count != 0 ? i >= first + count
                   : (i - first) % w.cycle() == 0 && i != first && Clock::now() >= deadline)
      break;
    std::string err;
    try {
      w.prepare(i);
      const auto t0 = Clock::now();
      try {
        const ArmProfile arm(traced ? &b.profile : nullptr);
        w.op(i, b.trace);
      } catch (const std::exception& e) {
        err = std::string("op threw: ") + e.what();
      }
      b.op_ms.push_back(ms_between(t0, Clock::now()));
      if (err.empty()) {
        err = w.check(i, b.trace);
        b.sim += w.last_sim();
      }
    } catch (const std::exception& e) {
      err = std::string("prepare or check threw: ") + e.what();
    }
    ++tally.attempted;
    if (!err.empty()) {
      ++tally.failed;
      if (tally.first_error.empty()) tally.first_error = err;
    }
  }
  b.wall_ms = ms_between(start, Clock::now());
  return b;
}

void print_result(const Tally& tally, bool correct, const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(),
                  std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
    m += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), m.c_str());
  std::fflush(stdout);
}

/// One set-up sample: back-to-back set-ups until kSetupMinMs have passed,
/// so no sample is a sub-millisecond interval.  Returns seconds per set-up
/// and adds per-set-up spans to `spans`; the workload is left set up.
double setup_sample(Workload& w, std::uint64_t seed,
                    std::map<std::string, std::vector<double>>& spans) {
  Trace t;
  int n = 0;
  const auto t0 = Clock::now();
  do {
    w.setup(seed, t);
    ++n;
  } while (ms_between(t0, Clock::now()) < kSetupMinMs);
  for (const auto& [k, v] : t.ms) spans[k].push_back(v / n);
  return ms_between(t0, Clock::now()) / 1000.0 / n;
}

std::vector<Metric> end_to_end(Workload& w, std::uint64_t seed, double seconds, Tally& tally) {
  const std::size_t warmup = std::min<std::size_t>(w.cycle(), kWarmupOps);
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> spans;
  Block b;
  for (int r = 0; r < kSegments; ++r) {
    for (int k = 0; k < kSetupReps / kSegments; ++k)
      setup_s.push_back(setup_sample(w, seed, spans));
    run_ops(w, 0, warmup, Clock::now(), false, tally);
    const Block seg = run_ops(w, warmup, 0, after_seconds(seconds / kSegments), false, tally);
    b.op_ms.insert(b.op_ms.end(), seg.op_ms.begin(), seg.op_ms.end());
    b.sim += seg.sim;
  }
  double op_sum = 0.0;
  for (double x : b.op_ms) op_sum += x;
  // The median and the packet rate are printed but not reported here: on
  // a shared host the op times of one run mix a fast and a slow contention
  // regime, and the median lands in either.  Over ten runs on a 4-vCPU VM
  // its interquartile range reached 47% of the median, p90's at most 24%.
  // The traced run reports both.
  std::printf("timed ops: %zu (p50 %.4f ms, p90 %.4f ms), data-plane packets %llu (%.6f Mpps)\n",
              b.op_ms.size(), median(b.op_ms), quantile(b.op_ms, 0.9),
              static_cast<unsigned long long>(b.sim.packets()),
              ratio(static_cast<double>(b.sim.packets()), op_sum * 1000.0));
  return {
      {"op_ms_p90", quantile(b.op_ms, 0.9), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Deterministic counts of one traced block, in a fixed order.
std::map<std::string, double> block_counts(const Block& b) {
  std::map<std::string, double> c = b.trace.count;
  c["sim.events"] = static_cast<double>(b.sim.events);
  c["sim.sent"] = static_cast<double>(b.sim.sent);
  c["sim.delivered"] = static_cast<double>(b.sim.delivered);
  c["sim.dropped"] = static_cast<double>(b.sim.dropped);
  c["sim.packets"] = static_cast<double>(b.sim.packets());
  for (std::size_t s = 0; s < prof::kStageCount; ++s)
    c[std::string("prof.ops.") + prof::stage_name(static_cast<prof::Stage>(s))] =
        static_cast<double>(b.profile.stages[s].ops);
  return c;
}

std::vector<Metric> per_layer(Workload& w, double seconds,
                              const std::map<std::string, std::vector<double>>& setup_spans,
                              Tally& tally, bool& deterministic) {
  const std::size_t K = w.trace_ops();
  const auto deadline = after_seconds(seconds);
  run_ops(w, 0, K, Clock::now(), false, tally);  // warm-up

  std::vector<Block> traced;
  std::vector<double> overhead;
  std::vector<double> plain_ms;  // op times of the untraced blocks
  double plain_sum_ms = 0.0, plain_packets = 0.0;
  do {
    const Block u = run_ops(w, 0, K, Clock::now(), false, tally);
    traced.push_back(run_ops(w, 0, K, Clock::now(), true, tally));
    overhead.push_back(ratio(traced.back().wall_ms, u.wall_ms));
    plain_ms.insert(plain_ms.end(), u.op_ms.begin(), u.op_ms.end());
    for (double x : u.op_ms) plain_sum_ms += x;
    plain_packets += static_cast<double>(u.sim.packets());
  } while (Clock::now() < deadline);

  // Counts come from the first traced block; every other block must match.
  // Spans and stage times are medians over the traced blocks.
  Trace agg;
  agg.count = block_counts(traced.front());
  for (const Block& b : traced) {
    if (block_counts(b) != agg.count) deterministic = false;
    for (const auto& [k, v] : b.trace.ms) agg.ms[k] = 0.0;
  }
  for (auto& [k, v] : agg.ms) {
    std::vector<double> per_block;
    for (const Block& b : traced) per_block.push_back(value_or_zero(b.trace.ms, k));
    v = median(per_block);
  }
  auto stage_ns = [&](prof::Stage s) {
    std::vector<double> per_block;
    for (const Block& b : traced) per_block.push_back(static_cast<double>(b.profile.at(s).ns_sum));
    return median(per_block);
  };
  auto ops_of = [&](prof::Stage s) { return static_cast<double>(traced.front().profile.at(s).ops); };
  w.layer_values(agg, K);
  auto agg_ms = [&](const std::string& k) { return value_or_zero(agg.ms, k); };
  auto agg_count = [&](const std::string& k) { return value_or_zero(agg.count, k); };
  auto setup_med = [&](const std::string& k) {
    const auto it = setup_spans.find(k);
    return it == setup_spans.end() ? 0.0 : median(it->second);
  };

  const double k_ops = static_cast<double>(K);
  const double decode_ns = stage_ns(prof::Stage::kSweepDecode);
  const double run_ms = agg_ms("sim.run_ms") - decode_ns / 1e6;
  const double stage_sum_ns = stage_ns(prof::Stage::kFlowDispatch) +
                              stage_ns(prof::Stage::kGroupExec) +
                              stage_ns(prof::Stage::kStateLookup) +
                              stage_ns(prof::Stage::kStateStore);
  // Packet workloads: share of simulator time outside the profiled stages.
  // chaos_recovery has no separable simulator span, so its residual is
  // taken against the whole episode.
  const double base_ms = run_ms > 0.0 ? run_ms : agg_ms("scenario.run_ms");
  const double hits = agg_count("ofp.state_hits"), misses = agg_count("ofp.state_misses");
  const double divergences = agg_count("core.divergences");

  auto per_op = [&](prof::Stage s) { return ops_of(s) / k_ops; };
  auto ns_per = [&](prof::Stage s) { return ratio(stage_ns(s), ops_of(s)); };
  return {
      {"op_ms_p50", median(plain_ms), "ms"},
      {"mpps", ratio(plain_packets, plain_sum_ms * 1000.0), "Mpps"},
      {"graph.build_ms", setup_med("graph.build_ms"), "ms"},
      {"core.compile_ms", setup_med("core.compile_ms"), "ms"},
      {"core.install_ms", setup_med("core.install_ms"), "ms"},
      {"sim.flowgen_ms", setup_med("sim.flowgen_ms"), "ms"},
      {"sim.run_ms", run_ms / k_ops, "ms"},
      {"sim.events", agg_count("sim.events") / k_ops, "count"},
      {"sim.hops", agg_count("sim.sent") / k_ops, "count"},
      {"sim.packets", agg_count("sim.packets") / k_ops, "count"},
      {"sim.flows", agg_count("sim.flows") / k_ops, "count"},
      {"sim.ns_per_hop", ratio(run_ms * 1e6, agg_count("sim.sent")), "ns"},
      {"sim.delivered_ratio", ratio(agg_count("sim.delivered"), agg_count("sim.sent")), "ratio"},
      {"sim.drops", agg_count("sim.dropped") / k_ops, "count"},
      {"ofp.dispatch_ops", per_op(prof::Stage::kFlowDispatch), "count"},
      {"ofp.dispatch_ns_per_op", ns_per(prof::Stage::kFlowDispatch), "ns"},
      {"ofp.tables_per_pkt", ratio(ops_of(prof::Stage::kFlowDispatch), agg_count("sim.packets")),
       "count"},
      {"ofp.group_exec_ops", per_op(prof::Stage::kGroupExec), "count"},
      {"ofp.group_exec_ns_per_op", ns_per(prof::Stage::kGroupExec), "ns"},
      {"ofp.state_lookup_ops", per_op(prof::Stage::kStateLookup), "count"},
      {"ofp.state_lookup_ns_per_op", ns_per(prof::Stage::kStateLookup), "ns"},
      {"ofp.state_store_ops", per_op(prof::Stage::kStateStore), "count"},
      {"ofp.state_store_ns_per_op", ns_per(prof::Stage::kStateStore), "ns"},
      {"ofp.state_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"ofp.state_evictions", agg_count("ofp.state_evictions") / k_ops, "count"},
      {"ofp.tag_bits", agg_count("ofp.tag_bits"), "bits"},
      {"ofp.tag_inline", agg_count("ofp.tag_inline"), "bool"},
      {"residual_share", ratio(base_ms - stage_sum_ns / 1e6, base_ms), "ratio"},
      {"obs.sweep_ms", agg_ms("obs.sweep_ms") / k_ops, "ms"},
      {"obs.sweep_msgs", agg_count("obs.sweep_msgs") / k_ops, "count"},
      {"obs.decode_ns", ratio(decode_ns, ops_of(prof::Stage::kSweepDecode)), "ns"},
      {"obs.recall", agg_count("obs.recall") / k_ops, "ratio"},
      {"xfsm.pump_ms", agg_ms("xfsm.pump_ms") / k_ops, "ms"},
      {"xfsm.interp_ms", agg_ms("xfsm.interp_ms") / k_ops, "ms"},
      {"scenario.run_ms", agg_ms("scenario.run_ms") / k_ops, "ms"},
      {"scenario.expand_ms", setup_med("scenario.expand_ms"), "ms"},
      {"ofp.digest_switch_us", agg_count("ofp.digest_switch_us"), "us"},
      {"core.recovery_cycles", agg_count("core.recovery_cycles") / k_ops, "count"},
      {"core.divergences", divergences / k_ops, "count"},
      {"core.repair_ratio", ratio(agg_count("core.repaired"), divergences), "ratio"},
      {"trace_overhead", median(overhead), "ratio"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: ssbench --workload dfs_traversal|topk_pump|xfsm_police|chaos_recovery\n"
               "               --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const std::string a = argv[i], v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else return usage();
  }
  std::unique_ptr<Workload> w = make_workload(workload);
  if (w == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();
  pin_to_one_cpu();

  Tally tally;
  bool deterministic = true;
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = end_to_end(*w, seed, seconds, tally);
  } else {
    // The traced pass runs on the last of its set-ups; the layer spans of
    // set-up are medians over the samples.
    std::map<std::string, std::vector<double>> setup_spans;
    for (int r = 0; r < kSetupReps; ++r) setup_sample(*w, seed, setup_spans);
    metrics = per_layer(*w, seconds, setup_spans, tally, deterministic);
  }
  std::printf("workload %s seed %llu: %llu ops attempted, %llu failed%s%s\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.first_error.empty() ? "" : "; first failure: ", tally.first_error.c_str());
  if (!deterministic) std::printf("deterministic counts differ between traced blocks\n");
  print_result(tally, tally.failed == 0 && deterministic, metrics);
  return 0;
}
