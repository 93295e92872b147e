// attack_run: the adversarial discovery harness.  Runs N seeded attack
// episodes — each an adversarial discovery arena (scenario service
// "discovery") on its own twin networks, with an attack schedule expanded
// from the episode's seed — and aggregates time-to-correct-map (in hops)
// histograms across episodes for BOTH mechanisms: the attack-hardened
// in-band snapshot and the unhardened LLDP baseline.  Episodes rotate
// through --attacks (default lldp_spoof,probe_wormhole,flap_storm), so
// every defense layer is exercised: the probe nonce against forged
// finishes, ingress consistency against wormhole-relayed probes, and the
// rate guard against flap storms.
//
//   attack_run [--episodes N] [--seed S] [--threads T] [--out FILE]
//              [--topo KIND] [--n N] [--attacks A,B,..] [--budget B]
//              [--placement P] [--rounds R] [--window W] [--no-defense]
//              [--stream FILE] [--bundle-dir DIR] [--recorder-window N]
//
// Flight recorder: --stream attaches an obs::Recorder to every episode's
// defended network and writes the concatenated per-episode window streams
// to FILE; --bundle-dir DIR writes each episode's post-mortem bundle (an
// episode that trips kNoFabricatedLink or fails ground truth bundles).
//
// Ablation switches: --no-nonce / --no-ingress / --no-rate-guard disable
// one defense layer, --no-defense all three.  Under any ablation the gate
// INVERTS: the run exits 0 when at least one episode's snapshot map was
// poisoned — proof the removed defense was load-bearing.  A partial
// ablation (e.g. --no-nonce --no-ingress) still counts as DEFENDED, so a
// poisoned map trips kNoFabricatedLink and leaves a post-mortem bundle —
// the invariant-to-bundle path exercised end to end.
//
// Output is byte-identical at any --threads: see the episode harness
// contract in docs/observability.md.
//
// Exit codes: 0 = the security gate held: EVERY episode's hardened map had
// zero fabricated links at every round and converged to ground truth,
// while for every attack kind exercised the LLDP baseline admitted at
// least one fabricated link somewhere (under ablation the inverted gate
// above applies instead); 1 = the gate failed; 2 = usage/setup error.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/parallel.hpp"
#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "scenario/adversary.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "tools/episode.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace ss;

namespace {

struct EpisodeResult {
  std::uint64_t seed = 0;
  std::string attack;
  std::string verdict;
  std::size_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rounds_deferred = 0;
  std::uint64_t relayed = 0;
  std::uint64_t snapshot_fabricated = 0;
  std::uint64_t snapshot_fabricated_peak = 0;
  bool snapshot_correct = false;
  bool snapshot_converged = false;
  std::uint64_t snapshot_msgs = 0;
  std::uint64_t snapshot_hops = 0;
  std::uint64_t reports_rejected = 0;
  std::uint64_t edges_quarantined = 0;
  std::uint64_t lldp_fabricated_peak = 0;
  bool lldp_correct = false;
  bool lldp_converged = false;
  std::uint64_t lldp_msgs = 0;
  std::uint64_t lldp_hops = 0;
  bool ground_truth_ok = false;
  obs::Histogram hops_snapshot;  // time-to-correct-map, hardened side
  obs::Histogram hops_lldp;      // time-to-correct-map, baseline side
  episode::Recording rec;
};

struct Config {
  episode::Sweep sweep{60};  // --episodes default
  std::string topo = "torus";
  std::size_t n = 16;
  std::vector<std::string> attacks = {"lldp_spoof", "probe_wormhole",
                                      "flap_storm"};
  std::uint32_t budget = 4;
  std::string placement = "random";
  std::uint32_t rounds = 6;
  sim::Time window = 50;
  bool no_defense = false;
  bool no_nonce = false;
  bool no_ingress = false;
  bool no_rate_guard = false;
  std::uint64_t recorder_window = 256;

  bool nonce_on() const { return !no_defense && !no_nonce; }
  bool ingress_on() const { return !no_defense && !no_ingress; }
  bool rate_guard_on() const { return !no_defense && !no_rate_guard; }
  bool ablated() const {
    return no_defense || no_nonce || no_ingress || no_rate_guard;
  }
};

EpisodeResult run_episode(const Config& cfg, std::uint64_t ep_seed,
                          std::size_t index) {
  scenario::ScenarioSpec spec;
  spec.name = util::cat("attack-", index);
  spec.topology.kind = cfg.topo;
  spec.topology.n = cfg.n;
  spec.topology.seed = 1;
  std::string err;
  spec.graph = scenario::build_topology(spec.topology, &err);
  if (!err.empty() || spec.graph.node_count() == 0)
    throw std::runtime_error(util::cat("attack_run: bad topology: ", err));
  spec.seed = ep_seed;
  spec.root = 0;
  spec.service = "discovery";
  spec.discovery.rounds = cfg.rounds;
  spec.discovery.round_window = cfg.window;
  spec.discovery.nonce = cfg.nonce_on();
  spec.discovery.ingress_check = cfg.ingress_on();
  spec.discovery.rate_guard = cfg.rate_guard_on();

  scenario::AdversarySpec a;
  a.kind = *scenario::attack_kind_from(cfg.attacks[index % cfg.attacks.size()]);
  a.placement = *scenario::attack_placement_from(cfg.placement);
  a.budget = cfg.budget;
  a.start = 0;
  a.end = static_cast<sim::Time>(cfg.rounds) * cfg.window * 2 / 3;
  a.root = spec.root;
  util::Rng rng(ep_seed);
  spec.schedule = scenario::expand_adversary(a, spec.graph, rng);
  spec.discovery.attack = scenario::attack_kind_name(a.kind);
  scenario::sort_schedule(spec.schedule);

  EpisodeResult out;
  const scenario::ScenarioResult res =
      cfg.sweep.recording()
          ? episode::run_recorded(spec, cfg.recorder_window, out.rec)
          : scenario::run_scenario(spec);
  const obs::DiscoveryReportSection& d = res.discovery;
  out.seed = ep_seed;
  out.attack = d.attack;
  out.verdict = res.verdict;
  out.events = spec.schedule.size();
  out.rounds = d.rounds;
  out.rounds_deferred = d.rounds_deferred;
  out.relayed = d.relayed;
  out.snapshot_fabricated = d.snapshot_fabricated;
  out.snapshot_fabricated_peak = d.snapshot_fabricated_peak;
  out.snapshot_correct = d.snapshot_correct;
  out.snapshot_converged = d.snapshot_converged;
  out.snapshot_msgs = d.snapshot_msgs;
  out.snapshot_hops = d.snapshot_hops_to_correct;
  out.reports_rejected = d.reports_rejected;
  out.edges_quarantined = d.edges_quarantined;
  out.lldp_fabricated_peak = d.lldp_fabricated_peak;
  out.lldp_correct = d.lldp_correct;
  out.lldp_converged = d.lldp_converged;
  out.lldp_msgs = d.lldp_msgs;
  out.lldp_hops = d.lldp_hops_to_correct;
  out.ground_truth_ok = res.ground_truth_ok;
  if (d.snapshot_converged) out.hops_snapshot.record(d.snapshot_hops_to_correct);
  if (d.lldp_converged) out.hops_lldp.record(d.lldp_hops_to_correct);
  return out;
}

/// The security gate's counts.  "Clean" means the PEAK: zero fabricated
/// links in the hardened map at every round, not just the final one — a map
/// that was poisoned mid-attack and healed afterwards already tripped
/// kNoFabricatedLink, and the gate must agree with it.
struct Tally {
  std::uint64_t clean = 0;
  std::uint64_t converged = 0;
  std::map<std::string, std::uint64_t> baseline_fabricated;  // per attack kind
  bool baseline_fooled = true;  // every --attacks kind fooled it at least once
};

Tally tally(const Config& cfg, const std::vector<EpisodeResult>& eps) {
  Tally t;
  for (const EpisodeResult& e : eps) {
    t.clean += e.snapshot_fabricated_peak == 0 ? 1 : 0;
    t.converged += e.snapshot_converged ? 1 : 0;
    t.baseline_fabricated[e.attack] += e.lldp_fabricated_peak >= 1 ? 1 : 0;
  }
  for (const std::string& kind : cfg.attacks)
    t.baseline_fooled = t.baseline_fooled && t.baseline_fabricated[kind] >= 1;
  return t;
}

void write_output(std::ostream& os, const Config& cfg,
                  const std::vector<EpisodeResult>& eps) {
  {
    obs::JsonObj o;
    o.add("type", "attack_run")
        .add("episodes", cfg.sweep.items)
        .add("seed", cfg.sweep.seed)
        .add("topology", cfg.topo)
        .add("n", cfg.n)
        .add("attacks", util::join(cfg.attacks, ","))
        .add("budget", cfg.budget)
        .add("placement", cfg.placement)
        .add("rounds", cfg.rounds)
        .add("window", cfg.window)
        .add("defended",
             cfg.nonce_on() || cfg.ingress_on() || cfg.rate_guard_on())
        .add("ablated", cfg.ablated());
    os << o.str() << "\n";
  }
  for (std::size_t k = 0; k < eps.size(); ++k) {
    const EpisodeResult& e = eps[k];
    obs::JsonObj o;
    o.add("type", "episode")
        .add("index", k)
        .add("seed", e.seed)
        .add("attack", e.attack)
        .add("events", e.events)
        .add("verdict", e.verdict)
        .add("rounds", e.rounds)
        .add("rounds_deferred", e.rounds_deferred)
        .add("relayed", e.relayed)
        .add("snapshot_fabricated", e.snapshot_fabricated)
        .add("snapshot_fabricated_peak", e.snapshot_fabricated_peak)
        .add("snapshot_correct", e.snapshot_correct)
        .add("snapshot_converged", e.snapshot_converged)
        .add("snapshot_msgs", e.snapshot_msgs)
        .add("snapshot_hops_to_correct", e.snapshot_hops)
        .add("reports_rejected", e.reports_rejected)
        .add("edges_quarantined", e.edges_quarantined)
        .add("lldp_fabricated_peak", e.lldp_fabricated_peak)
        .add("lldp_correct", e.lldp_correct)
        .add("lldp_converged", e.lldp_converged)
        .add("lldp_msgs", e.lldp_msgs)
        .add("lldp_hops_to_correct", e.lldp_hops)
        .add("ground_truth_ok", e.ground_truth_ok);
    if (cfg.sweep.recording())
      o.add("alerts", e.rec.alerts).add("bundled", !e.rec.bundle.empty());
    os << o.str() << "\n";
  }
  const obs::Histogram hops_snapshot = bench::merge_hist_shards(
      eps, [](const EpisodeResult& e) { return e.hops_snapshot; });
  const obs::Histogram hops_lldp = bench::merge_hist_shards(
      eps, [](const EpisodeResult& e) { return e.hops_lldp; });
  os << hops_snapshot.to_json("hops_to_correct_snapshot") << "\n";
  os << hops_lldp.to_json("hops_to_correct_lldp") << "\n";

  const Tally t = tally(cfg, eps);
  obs::JsonObj o;
  o.add("type", "attack_summary")
      .add("episodes", eps.size())
      .add("snapshot_clean", t.clean)
      .add("snapshot_converged", t.converged)
      .add("gate_snapshot_clean", t.clean == eps.size())
      .add("gate_snapshot_converged", t.converged == eps.size())
      .add("gate_baseline_fooled", t.baseline_fooled)
      .add("hops_snapshot", hops_snapshot.summary())
      .add("hops_lldp", hops_lldp.summary());
  for (const auto& [kind, count] : t.baseline_fabricated)
    o.add(util::cat("baseline_fabricated_", kind), count);
  os << o.str() << "\n";
}

constexpr const char* kUsage =
    "usage: attack_run [--episodes N] [--seed S] [--threads T]\n"
    "                  [--out FILE] [--topo KIND] [--n N]\n"
    "                  [--attacks A,B,..] [--budget B]\n"
    "                  [--placement random|near_root|far_from_root]\n"
    "                  [--rounds R] [--window W]\n"
    "                  [--no-defense] [--no-nonce] [--no-ingress]\n"
    "                  [--no-rate-guard]\n"
    "                  [--stream FILE] [--bundle-dir DIR]\n"
    "                  [--recorder-window N]\n"
    "attacks: any of lldp_spoof,probe_wormhole,flap_storm (episodes rotate)\n"
    "ablations (--no-*): the gate inverts — exit 0 when the\n"
    "attack poisoned at least one ablated map\n";

/// The security gate: every hardened map clean and converged, and every
/// attack kind fooled the baseline at least once (otherwise the episodes
/// prove nothing about the defense).  Under ablation the gate inverts: the
/// ablation is the experiment — removing a defense must let the attack land
/// somewhere, or the defense wasn't doing anything.
int gate(const Config& cfg, const std::vector<EpisodeResult>& eps) {
  const Tally t = tally(cfg, eps);
  const bool held =
      cfg.ablated() ? t.clean < eps.size()
                    : t.clean == eps.size() && t.converged == eps.size() &&
                          t.baseline_fooled;
  std::fprintf(stderr,
               "attack_run: %llu/%llu %s map(s) clean, %llu converged; "
               "%sgate %s\n",
               static_cast<unsigned long long>(t.clean),
               static_cast<unsigned long long>(eps.size()),
               cfg.ablated() ? "ablated" : "hardened",
               static_cast<unsigned long long>(t.converged),
               cfg.ablated() ? "ablation " : "", held ? "HELD" : "FAILED");
  return held ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  episode::Flags flags(kUsage);
  flags.sweep(cfg.sweep, "--episodes")
      .str("--topo", cfg.topo)
      .num("--n", cfg.n)
      .csv("--attacks", cfg.attacks)
      .num("--budget", cfg.budget)
      .str("--placement", cfg.placement)
      .num("--rounds", cfg.rounds)
      .num("--window", cfg.window)
      .on("--no-defense", cfg.no_defense)
      .on("--no-nonce", cfg.no_nonce)
      .on("--no-ingress", cfg.no_ingress)
      .on("--no-rate-guard", cfg.no_rate_guard)
      .num("--recorder-window", cfg.recorder_window)
      .str("--bundle-dir", cfg.sweep.bundle_dir);
  if (!flags.parse(argc, argv) || cfg.sweep.items == 0 || cfg.attacks.empty() ||
      cfg.rounds == 0 || cfg.window == 0 || cfg.budget == 0 ||
      cfg.recorder_window == 0)
    return flags.usage();
  for (const std::string& s : cfg.attacks)
    if (!scenario::attack_kind_from(s)) return flags.usage();
  if (!scenario::attack_placement_from(cfg.placement)) return flags.usage();

  return episode::run_sweep(
      episode::Driver<EpisodeResult>{
          .name = "attack_run",
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
                            .add("attack", e.attack)
                            .str()}};
          },
          .gate = [&cfg](const std::vector<EpisodeResult>& eps) {
            return gate(cfg, eps);
          }},
      cfg.sweep);
}
