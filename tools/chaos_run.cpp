// chaos_run: the adversarial robustness harness.  Runs N seeded chaos
// episodes — each a hardened service run on its own network, with a
// chaos-generated fault schedule (power-cycles, silent rule corruption,
// in-flight header corruption) and the self-healing recovery service armed
// — then aggregates MTTR (hops-to-repair and time-to-repair) histograms
// across episodes.  Episodes rotate through --services (default
// plain,snapshot,anycast,critical), so repair is exercised under every pipeline
// shape, and the recovery service runs with its in-band riders on: the
// audit probe relays to a sink switch and background data bursts keep the
// hop clock moving while a divergence is open (MTTR in hops > 0).
//
//   chaos_run [--episodes N] [--seed S] [--threads T] [--out FILE]
//             [--topo KIND] [--n N] [--faults F] [--services A,B,..]
//             [--burst B] [--stream FILE] [--window N] [--poison]
//             [--bundle-dir DIR]
//
// Flight recorder: --stream attaches an obs::Recorder to every episode and
// writes the concatenated per-episode window streams (each prefixed by an
// {"type":"episode_stream"} separator) to FILE; --window sets the sampling
// window in simulator events.  --bundle-dir DIR writes each episode's
// post-mortem bundle (if one triggered) as DIR/postmortem-ep<K>.jsonl.
// --poison disables the recovery service and injects one guaranteed
// rule-corruption fault per episode, so the hardened run fails and the
// flight recorder MUST produce a bundle whose last-K events contain the
// corrupting fault — the ctest assertion for the post-mortem path.
//
// Output is byte-identical at any --threads: see the episode harness
// contract in docs/observability.md.
//
// Exit codes: 0 = every episode ended with a clean final audit and every
// divergence repaired; 1 = at least one episode left damage behind;
// 2 = usage / setup error.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/parallel.hpp"
#include "core/fields.hpp"
#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "scenario/chaos.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "tools/episode.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace ss;

namespace {

struct EpisodeResult {
  std::uint64_t seed = 0;
  std::string service;
  std::string verdict;
  std::string retry_outcome;
  std::uint32_t attempts = 0;
  std::size_t faults = 0;
  bool final_audit_clean = false;
  bool all_repaired = false;
  std::uint64_t divergences = 0;
  std::uint64_t repairs = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t probes_delivered = 0;
  std::uint64_t probes_verified = 0;
  std::uint64_t background_packets = 0;
  obs::Histogram mttr_hops;
  obs::Histogram mttr_time;
  episode::Recording rec;
};

struct Config {
  episode::Sweep sweep{20};  // --episodes default
  std::string topo = "torus";
  std::size_t n = 16;
  std::uint32_t faults = 6;
  std::vector<std::string> services = {"plain", "snapshot", "anycast",
                                       "critical"};
  std::uint32_t burst = 4;
  std::uint64_t window = 256;  // recorder sampling window (events)
  bool poison = false;

  bool recording() const { return sweep.recording() || poison; }
};

EpisodeResult run_episode(const Config& cfg, std::uint64_t ep_seed,
                          std::size_t index) {
  scenario::ScenarioSpec spec;
  spec.name = util::cat("chaos-", index);
  spec.topology.kind = cfg.topo;
  spec.topology.n = cfg.n;
  spec.topology.seed = 1;
  std::string err;
  spec.graph = scenario::build_topology(spec.topology, &err);
  if (!err.empty() || spec.graph.node_count() == 0)
    throw std::runtime_error(util::cat("chaos_run: bad topology: ", err));
  spec.seed = ep_seed;
  spec.root = 0;
  spec.service = cfg.services[index % cfg.services.size()];
  spec.header_guard = true;
  if (spec.service == "anycast") {
    // Two members away from the root; chaos may take either down, and the
    // episode is still judged on repair, not delivery.
    spec.anycast_gid = 1;
    spec.anycast_members = {
        static_cast<graph::NodeId>(spec.graph.node_count() / 2),
        static_cast<graph::NodeId>(spec.graph.node_count() - 1)};
  }

  core::RetryPolicy retry;
  retry.timeout = 400;  // > one full torus-16 traversal, so repairs land
  retry.max_attempts = 8;
  spec.retry = retry;

  core::RecoveryPolicy rec;
  rec.probe_interval = 24;
  rec.backoff_base = 16;
  rec.max_repair_attempts = 8;
  rec.quarantine_for = 128;
  rec.probe_root = spec.root;
  rec.max_cycles = 4096;  // terminates pathological episodes deterministically
  // In-band riders: the audit probe relays to the far corner of the torus,
  // and bursts of data packets ride the data.fwd rules while any divergence
  // is open, so repair_hop - detect_hop counts real forwarded traffic.
  rec.inband_sink = static_cast<graph::NodeId>(spec.graph.node_count() - 1);
  rec.background_burst = cfg.burst;
  spec.recovery = rec;

  const core::TagLayout layout(spec.graph);
  scenario::ChaosSpec chaos;
  chaos.faults = cfg.faults;
  chaos.start = 0;
  chaos.end = 200;
  chaos.restart_after = 24;
  chaos.hdr_off = layout.start().offset;
  chaos.hdr_width = layout.start().width;
  chaos.hdr_val = 3;  // poison value outside the start field's alphabet
  for (graph::NodeId v = 0; v < spec.graph.node_count(); ++v)
    if (v != spec.root) chaos.switches.push_back(v);

  util::Rng rng(ep_seed);
  spec.schedule = scenario::expand_chaos(chaos, rng);
  if (cfg.poison) {
    // Unrepairable damage on purpose: no recovery service, plus one
    // guaranteed mid-run rule corruption the flight ring must capture.
    spec.recovery.reset();
    scenario::FaultEvent ev;
    ev.at = 40;
    ev.op = scenario::FaultOp::kRuleCorrupt;
    ev.sw = 1;
    ev.salt = ep_seed;
    spec.schedule.push_back(ev);
  }
  scenario::sort_schedule(spec.schedule);

  EpisodeResult out;
  const scenario::ScenarioResult res =
      cfg.recording() ? episode::run_recorded(spec, cfg.window, out.rec)
                      : scenario::run_scenario(spec);
  out.seed = ep_seed;
  out.service = spec.service;
  out.verdict = res.verdict;
  out.retry_outcome = res.hardened_outcome;
  out.attempts = res.attempts;
  out.faults = spec.schedule.size();
  out.final_audit_clean = res.final_audit_clean;
  out.divergences = res.divergences;
  out.repairs = res.repairs_done;
  out.quarantines = res.quarantines;
  out.probes_delivered = res.probes_delivered;
  out.probes_verified = res.probes_verified;
  out.background_packets = res.background_packets;
  out.all_repaired = res.final_audit_clean;
  for (const core::RepairRecord& rr : res.repair_records) {
    if (!rr.repaired) {
      out.all_repaired = false;
      continue;
    }
    out.mttr_hops.record(rr.repair_hop - rr.detect_hop);
    out.mttr_time.record(rr.repaired_at - rr.detected_at);
  }
  return out;
}

void write_output(std::ostream& os, const Config& cfg,
                  const std::vector<EpisodeResult>& eps) {
  {
    obs::JsonObj o;
    o.add("type", "chaos_run")
        .add("episodes", cfg.sweep.items)
        .add("seed", cfg.sweep.seed)
        .add("topology", cfg.topo)
        .add("n", cfg.n)
        .add("faults_per_episode", cfg.faults)
        .add("services", util::join(cfg.services, ","))
        .add("background_burst", cfg.burst);
    os << o.str() << "\n";
  }
  std::uint64_t repaired = 0;
  for (std::size_t k = 0; k < eps.size(); ++k) {
    const EpisodeResult& e = eps[k];
    repaired += e.all_repaired ? 1 : 0;
    obs::JsonObj o;
    o.add("type", "episode")
        .add("index", k)
        .add("seed", e.seed)
        .add("service", e.service)
        .add("faults", e.faults)
        .add("verdict", e.verdict)
        .add("retry_outcome", e.retry_outcome)
        .add("attempts", e.attempts)
        .add("final_audit_clean", e.final_audit_clean)
        .add("all_repaired", e.all_repaired)
        .add("divergences", e.divergences)
        .add("repairs", e.repairs)
        .add("quarantines", e.quarantines)
        .add("probes_delivered", e.probes_delivered)
        .add("probes_verified", e.probes_verified)
        .add("background_packets", e.background_packets);
    if (cfg.recording())
      o.add("alerts", e.rec.alerts).add("bundled", !e.rec.bundle.empty());
    os << o.str() << "\n";
  }
  const obs::Histogram mttr_hops = bench::merge_hist_shards(
      eps, [](const EpisodeResult& e) { return e.mttr_hops; });
  const obs::Histogram mttr_time = bench::merge_hist_shards(
      eps, [](const EpisodeResult& e) { return e.mttr_time; });
  os << mttr_hops.to_json("mttr_hops") << "\n";
  os << mttr_time.to_json("mttr_time") << "\n";
  obs::JsonObj o;
  o.add("type", "chaos_summary")
      .add("episodes", eps.size())
      .add("repaired", repaired)
      .add("all_repaired", repaired == eps.size())
      .add("mttr_hops", mttr_hops.summary())
      .add("mttr_time", mttr_time.summary());
  os << o.str() << "\n";
}

constexpr const char* kUsage =
    "usage: chaos_run [--episodes N] [--seed S] [--threads T]\n"
    "                 [--out FILE] [--topo KIND] [--n N] [--faults F]\n"
    "                 [--services A,B,..] [--burst B]\n"
    "                 [--stream FILE] [--window N] [--poison]\n"
    "                 [--bundle-dir DIR]\n"
    "services: any of plain,snapshot,anycast,critical (episodes rotate)\n"
    "--stream: windowed recorder JSONL (deterministic across --threads)\n"
    "--poison: disable recovery + inject an unrepaired rule corruption\n";

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  episode::Flags flags(kUsage);
  flags.sweep(cfg.sweep, "--episodes")
      .str("--topo", cfg.topo)
      .num("--n", cfg.n)
      .num("--faults", cfg.faults)
      .csv("--services", cfg.services)
      .num("--burst", cfg.burst)
      .num("--window", cfg.window)
      .on("--poison", cfg.poison)
      .str("--bundle-dir", cfg.sweep.bundle_dir);
  if (!flags.parse(argc, argv) || cfg.window == 0 || cfg.sweep.items == 0 ||
      cfg.services.empty())
    return flags.usage();
  for (const std::string& s : cfg.services)
    if (s != "plain" && s != "snapshot" && s != "anycast" && s != "critical")
      return flags.usage();

  return episode::run_sweep(
      episode::Driver<EpisodeResult>{
          .name = "chaos_run",
          .run = [&cfg](std::uint64_t s,
                        std::size_t i) { return run_episode(cfg, s, i); },
          .emit = [&cfg](std::ostream& os,
                         const std::vector<EpisodeResult>& eps) {
            write_output(os, cfg, eps);
          },
          .sections = [](const EpisodeResult& e, std::size_t k) {
            return std::vector<episode::Section>{
                {e.rec, episode::separator("episode_stream")
                             .add("episode", k)
                             .add("seed", e.seed)
                             .add("service", e.service)
                             .str()}};
          },
          .gate = [](const std::vector<EpisodeResult>& eps) {
            std::uint64_t repaired = 0;
            for (const EpisodeResult& e : eps) repaired += e.all_repaired ? 1 : 0;
            std::fprintf(stderr, "chaos_run: %llu/%llu episode(s) fully repaired\n",
                         static_cast<unsigned long long>(repaired),
                         static_cast<unsigned long long>(eps.size()));
            return repaired == eps.size() ? 0 : 1;
          }},
      cfg.sweep);
}
