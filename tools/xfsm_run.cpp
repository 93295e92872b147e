// xfsm_run: per-flow state machines compiled into the data plane, end to
// end.  Each trial builds a topology with H host switches running one of
// the canned XFSM machines (MAC learning / token policer / port-health load
// balancer), drives the machine-specific workload through the compiled
// pipeline AND the reference-interpreter mirror, runs one SmartSouth DFS
// sweep to CRT-decode the guard/occupancy banks, and gates on all three
// observables (deliveries, state tables, counters) plus the machine's own
// service property (convergence / conformance / failover).
//
//   xfsm_run [--machine mac|policer|lb|all] [--topo KIND] [--n N]
//            [--hosts H] [--bucket B] [--flip-after F] [--elephants E]
//            [--mice M] [--rounds R] [--seed S] [--trials T] [--threads T]
//            [--out FILE] [--stream FILE] [--window N]
//
// --stream attaches a flight recorder (obs::Recorder) to every machine run:
// windowed probe samples, online alerts, and — when a machine run fails —
// its post-mortem bundle, written to FILE in (trial, machine) order behind
// {"type":"machine_stream"} separator lines.  --window sets the sampling
// window in simulator events (default 256).
//
// Output is byte-identical at any --threads: see the episode harness
// contract in docs/observability.md.
//
// Exit codes: 0 = every trial's every machine validated against the
// interpreter and met its service property; 1 = a trial missed; 2 = usage /
// setup error.

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "tools/episode.hpp"
#include "util/strings.hpp"

using namespace ss;

namespace {

struct Config {
  episode::Sweep sweep;
  std::string machine = "all";  // mac | policer | lb | all
  std::string topo = "torus";
  std::size_t n = 24;
  std::uint32_t hosts = 4;
  std::uint32_t bucket = 4;
  std::uint32_t flip_after = 16;  // must equal the default guard modulus
  std::uint32_t elephants = 16;
  std::uint32_t mice = 4000;
  std::uint32_t elephant_min = 64;
  std::uint32_t elephant_max = 256;
  std::uint32_t rounds = 3;
  std::uint64_t window = 256;
};

struct MachineResult {
  std::string machine;
  std::uint64_t seed = 0;
  bool ground_truth_ok = false;
  std::string detail;
  obs::XfsmReportSection sec;
  episode::Recording rec;
};

using TrialResult = std::vector<MachineResult>;

std::string spec_json(const Config& cfg, const std::string& machine,
                      std::uint64_t seed) {
  return util::cat(
      "{\"name\":\"xfsm_", machine, "\",\"topology\":{\"kind\":\"", cfg.topo,
      "\",\"n\":", cfg.n, "},\"seed\":", seed,
      ",\"root\":1,\"service\":\"xfsm\",\"xfsm\":{\"machine\":\"", machine,
      "\",\"hosts\":", cfg.hosts, ",\"bucket\":", cfg.bucket,
      ",\"flip_after\":", cfg.flip_after, ",\"elephants\":", cfg.elephants,
      ",\"mice\":", cfg.mice, ",\"elephant_min\":", cfg.elephant_min,
      ",\"elephant_max\":", cfg.elephant_max, ",\"rounds\":", cfg.rounds,
      "},\"schedule\":[]}");
}

std::vector<std::string> machine_list(const Config& cfg) {
  if (cfg.machine == "all") return {"mac", "policer", "lb"};
  return {cfg.machine};
}

TrialResult run_trial(const Config& cfg, std::uint64_t trial_seed) {
  TrialResult out;
  for (const std::string& m : machine_list(cfg)) {
    std::string err;
    const auto spec = scenario::parse_scenario(spec_json(cfg, m, trial_seed),
                                               &err);
    if (!spec) throw std::runtime_error(util::cat("machine ", m, ": ", err));
    MachineResult mr;
    const scenario::ScenarioResult r =
        cfg.sweep.recording() ? episode::run_recorded(*spec, cfg.window, mr.rec)
                              : scenario::run_scenario(*spec);
    mr.machine = m;
    mr.seed = trial_seed;
    mr.ground_truth_ok = r.ground_truth_ok;
    mr.detail = r.ground_truth_detail;
    mr.sec = r.xfsm;
    out.push_back(std::move(mr));
  }
  return out;
}

bool machine_ok(const MachineResult& m) {
  return m.ground_truth_ok && m.sec.complete && m.sec.deliveries_ok &&
         m.sec.states_ok && m.sec.counts_ok;
}

void write_output(std::ostream& os, const Config& cfg,
                  const std::vector<TrialResult>& trials) {
  {
    obs::JsonObj o;
    o.add("type", "xfsm_run")
        .add("machine", cfg.machine)
        .add("topology", cfg.topo)
        .add("n", cfg.n)
        .add("hosts", cfg.hosts)
        .add("bucket", cfg.bucket)
        .add("flip_after", cfg.flip_after)
        .add("seed", cfg.sweep.seed)
        .add("trials", cfg.sweep.items);
    os << o.str() << "\n";
  }
  bool all_ok = true;
  std::uint64_t injected = 0, delivered = 0, dropped = 0, evictions = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    for (const MachineResult& m : trials[i]) {
      const obs::XfsmReportSection& x = m.sec;
      obs::JsonObj o;
      o.add("type", "trial")
          .add("index", i)
          .add("machine", m.machine)
          .add("seed", m.seed)
          .add("states", x.num_states)
          .add("injected", x.injected)
          .add("delivered", x.delivered)
          .add("dropped", x.expected_drops)
          .add("state_entries", x.state_entries)
          .add("evictions", x.evictions)
          .add("fragments", x.fragments)
          .add("sweep_complete", x.complete)
          .add("deliveries_ok", x.deliveries_ok)
          .add("states_ok", x.states_ok)
          .add("counts_ok", x.counts_ok);
      if (m.machine == "mac")
        o.add("converged", x.converged)
            .add("flood_deliveries", x.flood_deliveries)
            .add("settled_deliveries", x.settled_deliveries);
      if (m.machine == "policer")
        o.add("policer_in_bounds", x.policer_in_bounds)
            .add("flows", x.flows)
            .add("worst_excess", x.worst_excess);
      if (m.machine == "lb") o.add("failover_ok", x.failover_ok);
      o.add("ok", machine_ok(m)).add("detail", m.detail);
      os << o.str() << "\n";
      all_ok = all_ok && machine_ok(m);
      injected += x.injected;
      delivered += x.delivered;
      dropped += x.expected_drops;
      evictions += x.evictions;
    }
  }
  obs::JsonObj o;
  o.add("type", "xfsm_summary")
      .add("trials", trials.size())
      .add("injected", injected)
      .add("delivered", delivered)
      .add("dropped", dropped)
      .add("evictions", evictions)
      .add("all_ok", all_ok);
  os << o.str() << "\n";
}

constexpr const char* kUsage =
    "usage: xfsm_run [--machine mac|policer|lb|all] [--topo KIND] [--n N]\n"
    "                [--hosts H] [--bucket B] [--flip-after F]\n"
    "                [--elephants E] [--mice M] [--rounds R] [--seed S]\n"
    "                [--trials T] [--threads T] [--out FILE]\n"
    "                [--stream FILE] [--window N]\n";

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  episode::Flags flags(kUsage);
  flags.sweep(cfg.sweep, "--trials")
      .str("--machine", cfg.machine)
      .str("--topo", cfg.topo)
      .num("--n", cfg.n)
      .num("--hosts", cfg.hosts)
      .num("--bucket", cfg.bucket)
      .num("--flip-after", cfg.flip_after)
      .num("--elephants", cfg.elephants)
      .num("--mice", cfg.mice)
      .num("--elephant-min", cfg.elephant_min)
      .num("--elephant-max", cfg.elephant_max)
      .num("--rounds", cfg.rounds)
      .num("--window", cfg.window);
  if (!flags.parse(argc, argv) || cfg.sweep.items == 0 || cfg.hosts == 0 ||
      cfg.window == 0)
    return flags.usage();
  if (cfg.machine != "all" && cfg.machine != "mac" && cfg.machine != "policer" &&
      cfg.machine != "lb")
    return flags.usage();

  // Validate the spec once up front so a bad topology/host combination is a
  // usage error, not a pile of per-trial failures.
  {
    std::string err;
    if (!scenario::parse_scenario(
            spec_json(cfg, machine_list(cfg).front(), cfg.sweep.seed), &err)) {
      std::fprintf(stderr, "xfsm_run: %s\n", err.c_str());
      return 2;
    }
  }

  return episode::run_sweep(
      episode::Driver<TrialResult>{
          .name = "xfsm_run",
          .run = [&cfg](std::uint64_t s, std::size_t) { return run_trial(cfg, s); },
          .emit = [&cfg](std::ostream& os, const std::vector<TrialResult>& trials) {
            write_output(os, cfg, trials);
          },
          .sections = [](const TrialResult& t, std::size_t i) {
            std::vector<episode::Section> out;
            for (const MachineResult& m : t)
              out.emplace_back(m.rec,
                               episode::separator("machine_stream")
                                   .add("trial", i)
                                   .add("machine", m.machine)
                                   .add("seed", m.seed)
                                   .str(),
                               episode::separator("bundle")
                                   .add("trial", i)
                                   .add("machine", m.machine)
                                   .str());
            return out;
          },
          .gate = [](const std::vector<TrialResult>& trials) {
            std::uint64_t ok = 0, total = 0;
            for (const TrialResult& t : trials)
              for (const MachineResult& m : t) {
                ++total;
                ok += machine_ok(m) ? 1 : 0;
              }
            std::fprintf(stderr, "xfsm_run: %llu/%llu machine run(s) ok\n",
                         static_cast<unsigned long long>(ok),
                         static_cast<unsigned long long>(total));
            return ok == total ? 0 : 1;
          }},
      cfg.sweep);
}
