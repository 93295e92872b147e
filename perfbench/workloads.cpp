// The four benchmark workloads.  Each one is a closed loop driven by one
// client thread; every op does the same deterministic work each cycle and is
// checked against its oracle (ground truth, count-min bounds, the reference
// interpreter, the recovery audit).
//
//   dfs_traversal   hardened snapshot service on torus 20x20 with a few
//                   links down: per-hop cost with heap-spilled tags and
//                   cold flow indexes.
//   topk_pump       top-K sketches on torus 6x6: bulk traffic, warm indexes,
//                   inline tags, SELECT-group smart counters, sweep decode.
//   xfsm_police     token-bucket policer on ring-16: a state-table read and
//                   write on every packet, small tables, FIFO evictions.
//   chaos_recovery  seeded chaos episodes on torus-16 with the recovery
//                   service: control-side integrity digests and audits.

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "core/eth_types.hpp"
#include "core/recovery.hpp"
#include "core/services.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/topk.hpp"
#include "ofp/integrity.hpp"
#include "scenario/chaos.hpp"
#include "scenario/runner.hpp"
#include "sim/flowgen.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "xfsm/interp.hpp"
#include "xfsm/machines.hpp"
#include "xfsm/service.hpp"

namespace perfbench {

using namespace ss;

SimDelta& SimDelta::operator+=(const SimDelta& o) {
  events += o.events;
  sent += o.sent;
  delivered += o.delivered;
  dropped += o.dropped;
  packet_outs += o.packet_outs;
  return *this;
}

SimDelta sim_delta(const sim::Stats& a, const sim::Stats& b) {
  SimDelta d;
  d.events = b.events - a.events;
  d.sent = b.sent - a.sent;
  d.delivered = b.delivered - a.delivered;
  d.dropped = (b.dropped_down - a.dropped_down) +
              (b.dropped_blackhole - a.dropped_blackhole) +
              (b.dropped_loss - a.dropped_loss);
  d.packet_outs = b.packet_outs - a.packet_outs;
  return d;
}

namespace {

void tag_values(Trace& t, const core::TagLayout& layout, std::uint16_t eth) {
  const ofp::Packet pkt = layout.make_packet(eth);
  t.count["ofp.tag_bits"] = static_cast<double>(pkt.tag.size_bits());
  t.count["ofp.tag_inline"] = pkt.tag.inline_storage() ? 1.0 : 0.0;
}

/// Link `e` as a snapshot line, "u:pu-v:pv" with u <= v.
std::string link_line(const graph::Graph& g, graph::EdgeId e) {
  graph::Endpoint lo = g.edge(e).a, hi = g.edge(e).b;
  if (hi.node < lo.node) std::swap(lo, hi);
  return util::cat(lo.node, ":", lo.port, "-", hi.node, ":", hi.port);
}

/// Graph::canonical() restricted to the links in `up`: the "u:pu-v:pv"
/// line set a snapshot of a connected network with those links must equal.
std::string live_canonical(const graph::Graph& g, const std::vector<bool>& up) {
  std::vector<std::string> lines;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
    if (up[e]) lines.push_back(link_line(g, e));
  std::sort(lines.begin(), lines.end());
  return util::join(lines, "\n");
}

/// The scenario runner judges a snapshot or anycast claim against the
/// network at the verdict instant.  A snapshot records each link when the
/// token crosses it, so a switch that crashes after its visit and before the
/// verdict makes a correct snapshot differ from that instant's network; an
/// anycast delivery made at the instant its switch crashes does the same.
/// This judges the claim against the network over the accepted attempt,
/// from its injection ((attempts - 1) * timeout: the watchdog re-injects
/// once per timeout) to the verdict.  A snapshot must report only links that
/// were live links of the root's component at some instant of it, and every
/// link that was one throughout; an anycast delivery must reach a group
/// member that was reachable from the root at some instant of it.
bool held_during_attempt(const scenario::ScenarioSpec& spec,
                         const scenario::ScenarioResult& r) {
  if (!r.complete || !spec.retry) return false;
  const graph::Graph& g = spec.graph;
  const sim::Time from = (r.attempts - 1) * spec.retry->timeout;
  if (r.verdict_at < from) return false;
  std::vector<sim::Time> instants{from};
  for (const scenario::FaultEvent& ev : spec.schedule)
    if (ev.at > from && ev.at <= r.verdict_at) instants.push_back(ev.at);

  std::vector<bool> ever(g.edge_count(), false), always(g.edge_count(), true);
  bool delivery_reachable = false;
  for (const sim::Time t : instants) {
    const graph::EdgeAlive alive = scenario::alive_at(spec, t);
    const std::vector<bool> reach = graph::reachable_from(g, spec.root, alive);
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      const bool live = alive(e) && reach[g.edge(e).a.node] && reach[g.edge(e).b.node];
      ever[e] = ever[e] || live;
      always[e] = always[e] && live;
    }
    if (r.delivered_at) delivery_reachable = delivery_reachable || reach[*r.delivered_at];
  }

  if (spec.service == "anycast") {
    const auto& m = spec.anycast_members;
    return r.delivered_at && delivery_reachable &&
           std::find(m.begin(), m.end(), *r.delivered_at) != m.end();
  }
  if (spec.service != "snapshot") return false;
  std::map<std::string, graph::EdgeId> edge_of;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) edge_of[link_line(g, e)] = e;
  std::vector<bool> reported(g.edge_count(), false);
  std::istringstream lines(r.snapshot_canonical);
  for (std::string line; std::getline(lines, line);) {
    const auto it = edge_of.find(line);
    if (it == edge_of.end() || !ever[it->second] || reported[it->second]) return false;
    reported[it->second] = true;
  }
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e)
    if (always[e] && !reported[e]) return false;
  return true;
}

/// `budget` packets drawn from `flows` in a seeded random flow order (the
/// last flow taken may be cut short), returned in key order: equal-size op
/// batches whatever sizes the seed's heavy-tailed draw gave the flows.
std::vector<sim::FlowSpec> packet_budget(std::vector<sim::FlowSpec> flows,
                                         std::uint64_t budget, std::uint64_t seed) {
  util::Rng rng(seed);
  std::shuffle(flows.begin(), flows.end(), rng.engine());
  std::vector<sim::FlowSpec> out;
  for (sim::FlowSpec f : flows) {
    if (budget == 0) break;
    f.packets = static_cast<std::uint32_t>(std::min<std::uint64_t>(f.packets, budget));
    f.bytes = std::uint64_t{f.packets} * sim::flow_packet_bytes(f.fkey);
    budget -= f.packets;
    out.push_back(f);
  }
  if (budget != 0) throw std::logic_error("flow workload smaller than the packet budget");
  std::sort(out.begin(), out.end(),
            [](const sim::FlowSpec& a, const sim::FlowSpec& b) { return a.fkey < b.fkey; });
  return out;
}

// ---------------------------------------------------------------------------
// dfs_traversal
// ---------------------------------------------------------------------------
class DfsTraversal final : public Workload {
 public:
  void setup(std::uint64_t seed, Trace& spans) override {
    auto t0 = Clock::now();
    g_ = graph::make_torus(20, 20);
    spans.span("graph.build_ms", t0);

    // Fragment budget as a deployment would size it (bench/lookup.cpp
    // uses the same rule): finer fragments on bigger networks.
    t0 = Clock::now();
    const auto frag = static_cast<std::uint32_t>(
        std::max<std::size_t>(12, g_.node_count() / 8));
    svc_.emplace(g_, frag, /*dedup=*/true, /*inband_collector=*/std::nullopt,
                 /*epoch_guard=*/true);
    spans.span("core.compile_ms", t0);

    t0 = Clock::now();
    net_.emplace(g_, 1, seed);
    svc_->install(*net_);
    spans.span("core.install_ms", t0);

    // Inputs from the seed: the traversal roots, and a few links taken
    // down (the torus stays connected) so fast-failover buckets fire and
    // the DFS shape, hence every count, depends on the seed.
    t0 = Clock::now();
    util::Rng rng(seed);
    std::vector<bool> up;
    do {
      up.assign(g_.edge_count(), true);
      const std::uint64_t down = rng.uniform(kMinLinksDown, 2 * kMinLinksDown);
      for (std::uint64_t k = 0; k < down;) {
        const std::uint64_t e = rng.uniform(0, g_.edge_count() - 1);
        if (!up[e]) continue;
        up[e] = false;
        ++k;
      }
    } while (!graph::is_connected(g_, [&up](graph::EdgeId e) { return up[e]; }));
    for (graph::EdgeId e = 0; e < g_.edge_count(); ++e)
      if (!up[e]) net_->set_link_up(e, false);
    roots_.clear();
    while (roots_.size() < kRoots) {
      const auto r = static_cast<graph::NodeId>(rng.uniform(0, g_.node_count() - 1));
      if (std::find(roots_.begin(), roots_.end(), r) == roots_.end())
        roots_.push_back(r);
    }
    want_ = live_canonical(g_, up);
    spans.span("sim.flowgen_ms", t0);

    // A watchdog well beyond one traversal's duration (about 2400 time
    // units): with no fault during a run, every op must finish on its first
    // attempt.  Each op advances the network clock by the timeout; keep it
    // small, as hardened runs were seen to fail once the clock of one
    // network passed about 2^32 units.
    retry_.timeout = 20'000;
    retry_.max_attempts = 2;
  }

  std::size_t cycle() const override { return kRoots; }
  std::size_t trace_ops() const override { return 2 * kRoots; }

  void prepare(std::size_t) override {
    net_->clear_logs();
    before_ = net_->stats();
  }

  void op(std::size_t i, Trace& t) override {
    const auto t0 = Clock::now();
    res_ = svc_->run_hardened(*net_, roots_[i % kRoots], retry_, &hs_);
    if (t.on) t.span("sim.run_ms", t0);
  }

  std::string check(std::size_t i, Trace&) override {
    last_ = sim_delta(before_, net_->stats());
    if (!res_.complete) return "traversal incomplete";
    if (hs_.outcome != core::HardenedOutcome::kVerdict || hs_.attempts != 1)
      return util::cat("hardened outcome ", core::hardened_outcome_name(hs_.outcome),
                       " after ", hs_.attempts, " attempts");
    if (res_.canonical() != want_)
      return util::cat("snapshot from root ", roots_[i % kRoots],
                       " differs from the live topology");
    return {};
  }

  SimDelta last_sim() const override { return last_; }

  void layer_values(Trace& t, std::size_t) override {
    tag_values(t, svc_->layout(), core::kEthTraversal);
  }

 private:
  static constexpr std::size_t kRoots = 8;
  static constexpr std::uint64_t kMinLinksDown = 4;
  graph::Graph g_;
  std::optional<core::SnapshotService> svc_;
  std::optional<sim::Network> net_;
  std::vector<graph::NodeId> roots_;
  std::string want_;
  core::RetryPolicy retry_;
  core::SnapshotResult res_;
  core::HardenedStats hs_;
  sim::Stats before_;
  SimDelta last_;
};

// ---------------------------------------------------------------------------
// topk_pump
// ---------------------------------------------------------------------------
class TopkPump final : public Workload {
 public:
  void setup(std::uint64_t seed, Trace& spans) override {
    seed_ = seed;
    auto t0 = Clock::now();
    g_ = graph::make_torus(6, 6);
    spans.span("graph.build_ms", t0);

    t0 = Clock::now();
    obs::TopkParams p;
    for (std::uint32_t e = 0; e < kSketches; ++e)
      p.sketches.push_back(static_cast<graph::NodeId>(e * g_.node_count() / kSketches));
    p.rows = 4;
    p.row_bits = 6;
    // Four signature rows (the default is two): with two, about one seed
    // in 250 reports a ghost key above the count-min error bound.
    p.sig_rows = 4;
    p.k = 10;
    base_.emplace(g_, p);
    spans.span("core.compile_ms", t0);

    t0 = Clock::now();
    fresh_network();
    spans.span("core.install_ms", t0);
    fresh_ = true;

    t0 = Clock::now();
    sim::FlowWorkloadConfig wl;
    wl.seed = seed;
    wl.key_bits = p.rows * p.row_bits;
    wl.elephants = kElephants;
    wl.mice = kMice;
    wl.elephant_min = 64;
    wl.elephant_max = 256;
    flows_ = packet_budget(sim::make_flow_workload(wl), kPackets, seed);
    spans.span("sim.flowgen_ms", t0);
  }

  std::size_t cycle() const override { return 1; }
  std::size_t trace_ops() const override { return 4; }

  // Sketch cells only count up, so each epoch starts from a freshly
  // installed network (untimed); the op is the epoch's pump + sweep.
  void prepare(std::size_t) override {
    if (!fresh_) fresh_network();
    fresh_ = false;
    before_ = net_->stats();
  }

  void op(std::size_t, Trace& t) override {
    auto t0 = Clock::now();
    svc_->pump(*net_, flows_);
    if (t.on) t.span("sim.run_ms", t0);
    t0 = Clock::now();
    res_ = svc_->sweep(*net_, 0);
    if (t.on) {
      // The sweep's traversal drains the event loop (sim.run_ms); its
      // decode is the profiled sweep-decode stage, taken out by the harness.
      t.span("obs.sweep_ms", t0);
      t.span("sim.run_ms", t0);
    }
  }

  std::string check(std::size_t, Trace& t) override {
    last_ = sim_delta(before_, net_->stats());
    const obs::TopkValidation v = svc_->validate(res_, flows_);
    if (t.on) {
      t.count["sim.flows"] += static_cast<double>(flows_.size());
      t.count["obs.sweep_msgs"] += static_cast<double>(res_.stats.inband_msgs);
      t.count["obs.recall"] += v.recall;
    }
    if (!res_.complete) return "sweep incomplete";
    if (!res_.row_sums_consistent) return "sketch rows disagree on packet count";
    if (!v.lower_bound_ok) return "estimate below the true count";
    if (!v.error_bound_ok) return "estimate above the count-min error bound";
    return {};
  }

  SimDelta last_sim() const override { return last_; }

  void layer_values(Trace& t, std::size_t) override {
    tag_values(t, svc_->layout(), core::kEthFlow);
  }

 private:
  static constexpr std::uint32_t kSketches = 4;
  static constexpr std::uint32_t kElephants = 12;
  static constexpr std::uint32_t kMice = 600;
  static constexpr std::uint64_t kPackets = 2000;  // flow packets per epoch

  void fresh_network() {
    net_.emplace(g_, 1, seed_);
    svc_.emplace(*base_);
    svc_->install(*net_);
  }

  std::uint64_t seed_ = 0;
  graph::Graph g_;
  std::optional<obs::TopkService> base_, svc_;
  std::optional<sim::Network> net_;
  bool fresh_ = false;
  std::vector<sim::FlowSpec> flows_;
  obs::TopkResult res_;
  sim::Stats before_;
  SimDelta last_;
};

// ---------------------------------------------------------------------------
// xfsm_police
// ---------------------------------------------------------------------------
class XfsmPolice final : public Workload {
 public:
  void setup(std::uint64_t seed, Trace& spans) override {
    seed_ = seed;
    auto t0 = Clock::now();
    g_ = graph::make_ring(16);
    spans.span("graph.build_ms", t0);

    t0 = Clock::now();
    params_.hosts = {0};
    params_.program = xfsm::make_policer(kBucket);
    // Fewer state slots than distinct flows per batch: every batch evicts.
    params_.capacity = kCapacity;
    base_.emplace(g_, params_);
    spans.span("core.compile_ms", t0);

    t0 = Clock::now();
    fresh_network();
    spans.span("core.install_ms", t0);
    fresh_ = true;

    t0 = Clock::now();
    sim::FlowWorkloadConfig wl;
    wl.seed = seed;
    wl.key_bits = 20;
    wl.elephants = 8;
    wl.mice = kMice;
    wl.elephant_min = 16;
    wl.elephant_max = 64;
    flows_ = packet_budget(sim::make_flow_workload(wl), kPackets, seed);
    spans.span("sim.flowgen_ms", t0);
    if (flows_.size() <= kCapacity)
      throw std::logic_error("xfsm_police: batch does not overflow the state table");
  }

  // One cycle is one network lifetime: a freshly installed network takes
  // kBatches equal batches, then a counter sweep checked against the
  // reference interpreter.  Short lifetimes bound the delivery log.
  std::size_t cycle() const override { return kBatches; }
  std::size_t trace_ops() const override { return kBatches; }

  void prepare(std::size_t i) override {
    if (i % kBatches == 0 && !fresh_) fresh_network();
    fresh_ = false;
    before_ = net_->stats();
  }

  void op(std::size_t, Trace& t) override {
    const auto t0 = Clock::now();
    svc_->pump_flows(*net_, flows_);
    if (t.on) t.span("xfsm.pump_ms", t0);
  }

  std::string check(std::size_t i, Trace& t) override {
    last_ = sim_delta(before_, net_->stats());
    if (t.on) t.count["sim.flows"] += static_cast<double>(flows_.size());
    const xfsm::XfsmValidation v = svc_->validate(*net_);
    if (!v.deliveries_ok) return "deliveries differ from the interpreter";
    if (!v.states_ok) return "state table differs from the interpreter";
    if (i % kBatches != kBatches - 1) return {};
    const ofp::StateTable& st = net_->sw(params_.hosts[0]).state();
    if (t.on) {
      t.count["ofp.state_hits"] += static_cast<double>(st.hits());
      t.count["ofp.state_misses"] += static_cast<double>(st.misses());
      t.count["ofp.state_evictions"] += static_cast<double>(st.evictions());
    }
    if (st.evictions() == 0) return "no state-table evictions";
    const xfsm::XfsmSweepResult sw = svc_->sweep(*net_, 8);
    const xfsm::XfsmValidation vs = svc_->validate(*net_, &sw);
    if (!sw.complete) return "counter sweep incomplete";
    if (!vs.ok()) return "swept counters differ from the interpreter";
    return {};
  }

  SimDelta last_sim() const override { return last_; }

  void layer_values(Trace& t, std::size_t ops) override {
    tag_values(t, svc_->layout(), core::kEthFlow);
    // The reference interpreter alone on the same packets, one fresh
    // machine per network lifetime, repeated until the interval is long
    // enough to time.
    const graph::PortNo deg = g_.degree(params_.hosts[0]);
    std::size_t lifetimes = 0;
    const auto t0 = Clock::now();
    do {
      xfsm::XfsmInterp interp(params_.program, params_.moduli, params_.capacity, deg);
      for (std::size_t b = 0; b < kBatches; ++b)
        for (const sim::FlowSpec& f : flows_) {
          xfsm::XfsmInput in;
          in.flow_key = f.fkey;
          in.out_tag = 1 + f.fkey % deg;
          for (std::uint32_t p = 0; p < f.packets; ++p) interp.step(in);
        }
      ++lifetimes;
    } while (ms_between(t0, Clock::now()) < 50.0);
    t.ms["xfsm.interp_ms"] =
        ms_between(t0, Clock::now()) * static_cast<double>(ops) /
        static_cast<double>(lifetimes * kBatches);
    // pump_flows steps the interpreter mirror beside the network; the rest
    // of its time is the simulator's.
    t.ms["sim.run_ms"] = t.ms["xfsm.pump_ms"] - t.ms["xfsm.interp_ms"];
  }

 private:
  static constexpr std::size_t kBatches = 4;
  static constexpr std::uint32_t kBucket = 4;
  static constexpr std::uint32_t kCapacity = 1024;
  static constexpr std::uint32_t kMice = 2000;
  static constexpr std::uint64_t kPackets = 4096;  // packets per batch

  void fresh_network() {
    net_.emplace(g_, 1, seed_);
    svc_.emplace(*base_);
    svc_->install(*net_);
  }

  std::uint64_t seed_ = 0;
  graph::Graph g_;
  xfsm::XfsmParams params_;
  std::optional<xfsm::XfsmService> base_, svc_;
  std::optional<sim::Network> net_;
  bool fresh_ = false;
  std::vector<sim::FlowSpec> flows_;
  sim::Stats before_;
  SimDelta last_;
};

// ---------------------------------------------------------------------------
// chaos_recovery
// ---------------------------------------------------------------------------
class ChaosRecovery final : public Workload {
 public:
  void setup(std::uint64_t seed, Trace& spans) override {
    auto t0 = Clock::now();
    scenario::TopoRef topo;
    topo.kind = "torus";
    topo.n = 16;
    topo.seed = 1;
    std::string err;
    g_ = scenario::build_topology(topo, &err);
    if (!err.empty() || g_.node_count() == 0)
      throw std::runtime_error("chaos_recovery: bad topology: " + err);
    spans.span("graph.build_ms", t0);

    // The episodes' shared fixed cost, paid once here: compile the snapshot
    // variant with the recovery riders, install it, and build the recovery
    // service's golden images.  The installed network is also what the
    // traced run digests for ofp.digest_switch_us.
    const core::PipelineExtras extras{kSink(), true};
    t0 = Clock::now();
    svc_.emplace(g_, 0, true, std::nullopt, true, true, extras);
    spans.span("core.compile_ms", t0);
    t0 = Clock::now();
    net_.emplace(g_);
    svc_->install(*net_);
    rec_.emplace(g_, svc_->layout(), svc_->compiler(), policy());
    spans.span("core.install_ms", t0);

    t0 = Clock::now();
    specs_.clear();
    util::Rng seeds(seed);
    for (std::size_t k = 0; k < kEpisodes; ++k)
      specs_.push_back(episode(seeds.engine()(), k));
    spans.span("scenario.expand_ms", t0);
  }

  std::size_t cycle() const override { return kEpisodes; }
  std::size_t trace_ops() const override { return kTraceEpisodes; }

  void op(std::size_t i, Trace& t) override {
    const auto t0 = Clock::now();
    res_ = scenario::run_scenario(specs_[i % kEpisodes]);
    if (t.on) t.span("scenario.run_ms", t0);
  }

  std::string check(std::size_t i, Trace& t) override {
    const sim::Stats& s = res_.sim;
    last_ = sim_delta(sim::Stats{}, s);
    if (t.on) {
      std::uint64_t repaired = 0;
      for (const core::RepairRecord& rr : res_.repair_records)
        repaired += rr.repaired ? 1 : 0;
      t.count["core.divergences"] += static_cast<double>(res_.divergences);
      t.count["core.repaired"] += static_cast<double>(repaired);
    }
    const scenario::ScenarioSpec& spec = specs_[i % kEpisodes];
    if (!res_.final_audit_clean)
      return util::cat("episode ", i % kEpisodes, " (", spec.service,
                       ") ended with a divergent switch");
    if (!res_.ground_truth_ok && !held_during_attempt(spec, res_))
      return util::cat("episode ", i % kEpisodes, " (", spec.service,
                       "): ", res_.ground_truth_detail);
    return {};
  }

  SimDelta last_sim() const override { return last_; }

  void layer_values(Trace& t, std::size_t ops) override {
    tag_values(t, svc_->layout(), core::kEthTraversal);

    // Digest every installed switch, repeated until the interval is long
    // enough to time (a single pass over 16 switches is microseconds).
    std::uint64_t passes = 0;
    const auto t0 = Clock::now();
    do {
      for (graph::NodeId v = 0; v < g_.node_count(); ++v) ofp::digest_switch(net_->sw(v));
      ++passes;
    } while (ms_between(t0, Clock::now()) < 50.0);
    t.count["ofp.digest_switch_us"] =
        ms_between(t0, Clock::now()) * 1000.0 / static_cast<double>(passes);
    if (!rec_->all_clean(*net_)) throw std::logic_error("golden audit not clean");

    // Probe cycles per episode, read from a flight recorder's recovery
    // counter over one separate pass (the recorder is never attached to
    // the timed episodes).  The recorder latches the counter only while the
    // recovery service is alive, so it must sample after every event.
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      obs::RecorderConfig rc;
      rc.window_events = 1;
      obs::Recorder recorder(rc);
      (void)scenario::run_scenario(specs_[i % kEpisodes], nullptr, &recorder);
      cycles += recovery_cycles(recorder.stream());
    }
    t.count["core.recovery_cycles"] = static_cast<double>(cycles);
  }

 private:
  // Episodes differ in cost (service, fault draw); many per cycle keep the
  // per-seed mix, hence p90, steady across seeds.
  static constexpr std::size_t kEpisodes = 64;
  static constexpr std::size_t kTraceEpisodes = 16;
  static constexpr std::uint64_t kMaxCycles = 32;

  graph::NodeId kSink() const {
    return static_cast<graph::NodeId>(g_.node_count() - 1);
  }

  core::RecoveryPolicy policy() const {
    // tools/chaos_run's recovery policy, with an explicit probe-cycle cap.
    core::RecoveryPolicy rec;
    rec.probe_interval = 24;
    rec.backoff_base = 16;
    rec.max_repair_attempts = 8;
    rec.quarantine_for = 128;
    rec.probe_root = 0;
    rec.max_cycles = kMaxCycles;
    rec.inband_sink = kSink();
    rec.background_burst = 4;
    return rec;
  }

  scenario::ScenarioSpec episode(std::uint64_t ep_seed, std::size_t index) const {
    static const char* const kServices[] = {"plain", "snapshot", "anycast", "critical"};
    scenario::ScenarioSpec spec;
    spec.name = util::cat("chaos-", index);
    spec.topology.kind = "torus";
    spec.topology.n = 16;
    spec.topology.seed = 1;
    spec.graph = g_;
    spec.seed = ep_seed;
    spec.root = 0;
    spec.service = kServices[index % 4];
    spec.header_guard = true;
    if (spec.service == "anycast") {
      spec.anycast_gid = 1;
      spec.anycast_members = {static_cast<graph::NodeId>(g_.node_count() / 2), kSink()};
    }
    core::RetryPolicy retry;
    retry.timeout = 400;  // longer than one torus-16 traversal
    retry.max_attempts = 8;
    spec.retry = retry;
    spec.recovery = policy();

    const core::TagLayout layout(g_);
    scenario::ChaosSpec chaos;
    chaos.faults = 6;
    chaos.start = 0;
    chaos.end = 200;
    chaos.restart_after = 24;
    chaos.hdr_off = layout.start().offset;
    chaos.hdr_width = layout.start().width;
    chaos.hdr_val = 3;  // outside the start field's {0,1,2} alphabet
    for (graph::NodeId v = 0; v < g_.node_count(); ++v)
      if (v != spec.root) chaos.switches.push_back(v);
    util::Rng rng(ep_seed);
    spec.schedule = scenario::expand_chaos(chaos, rng);
    scenario::sort_schedule(spec.schedule);
    return spec;
  }

  // Sum of the "recovery_cycles" counter deltas over a recorder stream.
  static std::uint64_t recovery_cycles(const std::string& stream) {
    std::uint64_t total = 0;
    std::size_t from = 0;
    while (from < stream.size()) {
      std::size_t to = stream.find('\n', from);
      if (to == std::string::npos) to = stream.size();
      const auto v = obs::json_parse(std::string_view(stream).substr(from, to - from));
      if (v && v->is_object() && v->str("type") == "window")
        if (const obs::JsonValue* c = v->get("counters"); c != nullptr)
          total += c->u64("recovery_cycles", 0);
      from = to + 1;
    }
    return total;
  }

  graph::Graph g_;
  std::optional<core::SnapshotService> svc_;
  std::optional<sim::Network> net_;
  std::optional<core::RecoveryService> rec_;
  std::vector<scenario::ScenarioSpec> specs_;
  scenario::ScenarioResult res_;
  SimDelta last_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "dfs_traversal") return std::make_unique<DfsTraversal>();
  if (name == "topk_pump") return std::make_unique<TopkPump>();
  if (name == "xfsm_police") return std::make_unique<XfsmPolice>();
  if (name == "chaos_recovery") return std::make_unique<ChaosRecovery>();
  return nullptr;
}

}  // namespace perfbench
