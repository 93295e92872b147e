#pragma once
// Shared pieces of the end-to-end benchmark program: the workload interface
// the closed-loop harness (main.cpp) drives, and the span/count recorder the
// traced run fills from the benchmark's own calls into each library module.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-layer record of the traced run.  `ms` accumulates wall-clock spans
/// around module calls (named "<module>.<what>_ms"); `count` accumulates
/// deterministic counts.  Workloads only touch it while `on` is set, so the
/// untraced run pays one branch per op for it.
struct Trace {
  bool on = false;
  std::map<std::string, double> ms;
  std::map<std::string, double> count;

  void span(const std::string& name, Clock::time_point t0) {
    ms[name] += ms_between(t0, Clock::now());
  }
};

/// Simulator counter movement of one op (a sim::Stats difference).
struct SimDelta {
  std::uint64_t events = 0;
  std::uint64_t sent = 0;       // packets put on a wire (hops)
  std::uint64_t delivered = 0;  // wire crossings that arrived
  std::uint64_t dropped = 0;    // wire drops: link down, blackhole, loss
  std::uint64_t packet_outs = 0;

  /// Data-plane packets processed: every pipeline run is either a wire
  /// arrival or a controller packet-out.
  std::uint64_t packets() const { return delivered + packet_outs; }
  SimDelta& operator+=(const SimDelta& o);
};
SimDelta sim_delta(const ss::sim::Stats& before, const ss::sim::Stats& after);

/// One benchmark workload.  The harness runs, per op index i:
/// prepare(i) untimed, op(i) timed, check(i) untimed; ops run in whole
/// cycles of cycle() distinct inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from `seed`: topology, compiled service, installed
  /// network, generated traffic.  Records per-phase spans into `spans`.
  virtual void setup(std::uint64_t seed, Trace& spans) = 0;

  virtual std::size_t cycle() const = 0;
  /// Ops in one traced block: ops [0, trace_ops()), run from op 0 each time.
  virtual std::size_t trace_ops() const = 0;

  virtual void prepare(std::size_t /*i*/) {}
  virtual void op(std::size_t i, Trace& t) = 0;
  /// Oracle check of op i; empty on success, else what went wrong.  Adds
  /// the op's outcome counts to `t` when it is on.
  virtual std::string check(std::size_t i, Trace& t) = 0;
  /// Simulator movement of the op just checked.
  virtual SimDelta last_sim() const = 0;

  /// Layer values that are properties of the installed workload rather
  /// than sums over ops (tag width, state-table counters, digest cost, ...),
  /// added to `t` after a traced block of `ops` ops.
  virtual void layer_values(Trace& t, std::size_t ops) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
