// topk_run: network-wide top-K flow telemetry, end to end.  Builds a
// topology with E sketch switches compiled for ServiceKind::kTopkSweep,
// injects a deterministic heavy-tailed flow workload (millions of packets,
// counted purely by match-action rules + smart counters), runs one
// SmartSouth DFS sweep to read every sketch into the label stack, decodes
// the network-wide top-K, and validates recall + the count-min (eps, delta)
// error bounds against the omniscient ground truth.
//
//   topk_run [--topo KIND] [--n N] [--sketches E] [--rows D] [--row-bits B]
//            [--k K] [--elephants E] [--mice M] [--seed S] [--trials T]
//            [--threads T] [--out FILE] [--min-recall R]
//            [--stream FILE] [--window N]
//
// --stream attaches a flight recorder per trial (windowed probe samples,
// sketch-fill gauge, online sweep-verdict alerts) and writes the buffered
// per-trial streams to FILE in trial order, each behind a
// {"type":"trial_stream"} separator.  --window sets the sampling window in
// simulator events.
//
// Output is byte-identical at any --threads: see the episode harness
// contract in docs/observability.md.
//
// Exit codes: 0 = every trial swept completely, every estimate respected
// both count-min bounds, and recall >= --min-recall; 1 = a trial missed;
// 2 = usage / setup error.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/parallel.hpp"
#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/topk.hpp"
#include "scenario/spec.hpp"
#include "sim/flowgen.hpp"
#include "tools/episode.hpp"
#include "util/strings.hpp"

using namespace ss;

namespace {

struct Config {
  episode::Sweep sweep;
  std::string topo = "torus";
  std::size_t n = 225;
  std::uint32_t sketches = 8;
  std::uint32_t rows = 4;
  std::uint32_t row_bits = 6;
  std::uint32_t k = 20;
  std::uint32_t elephants = 64;
  std::uint32_t mice = 1'000'000;
  // Elephant packet range: must clear the count-min noise floor (~N_s / w
  // mouse packets per cell) while keeping worst-case cell counts — a few
  // colliding elephants plus noise — inside the CRT range (240240 with the
  // default moduli).  A wrapped cell shows up as a row-sum inconsistency.
  std::uint32_t elephant_min = 16'384;
  std::uint32_t elephant_max = 65'536;
  double min_recall = 0.9;
  std::uint64_t window = 65536;  // trials are packet-heavy; sample coarsely
};

struct TrialResult {
  std::uint64_t seed = 0;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  bool complete = false;
  bool row_sums_ok = false;
  std::size_t fragments = 0;
  std::size_t sketches_read = 0;
  double recall = 0.0;
  bool bounds_ok = false;
  std::uint64_t max_overestimate = 0;
  std::uint64_t worst_allowed = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t max_wire_bytes = 0;
  std::vector<obs::FlowEstimate> top;
  obs::Histogram flow_packets;
  obs::Histogram flow_bytes;
  episode::Recording rec;
};

TrialResult run_trial(const Config& cfg, const graph::Graph& g,
                      std::uint64_t trial_seed) {
  obs::TopkParams p;
  for (std::uint32_t e = 0; e < cfg.sketches; ++e)
    p.sketches.push_back(static_cast<graph::NodeId>(
        (static_cast<std::uint64_t>(e) * g.node_count()) / cfg.sketches));
  p.rows = cfg.rows;
  p.row_bits = cfg.row_bits;
  p.k = cfg.k;

  obs::TopkService svc(g, p);
  sim::Network net(g);
  svc.install(net);

  std::optional<obs::Recorder> recorder;
  if (cfg.sweep.recording()) {
    obs::RecorderConfig rc;
    rc.window_events = cfg.window;
    recorder.emplace(rc);
    recorder->attach(net);
    // Sketch cell fill: count-min cells are flow rules on the sketch hosts.
    recorder->add_gauge("sketch_cells_hit", [&net, hosts = p.sketches] {
      std::uint64_t t = 0;
      for (graph::NodeId h : hosts)
        for (const ofp::FlowTable& ft : net.sw(h).tables())
          for (const ofp::FlowEntry& e : ft.entries()) t += e.hit_count > 0 ? 1 : 0;
      return t;
    });
    net.set_trace_ring(64);  // bounded hop tail for a potential bundle
  }

  sim::FlowWorkloadConfig wl;
  wl.seed = trial_seed;
  wl.key_bits = cfg.rows * cfg.row_bits;
  wl.elephants = cfg.elephants;
  wl.mice = cfg.mice;
  wl.elephant_min = cfg.elephant_min;
  wl.elephant_max = cfg.elephant_max;
  const auto flows = sim::make_flow_workload(wl);
  svc.pump(net, flows);

  const obs::TopkResult res = svc.sweep(net, 0);
  const obs::TopkValidation val = svc.validate(res, flows);

  TrialResult out;
  out.seed = trial_seed;
  out.flows = val.flows_total;
  out.packets = val.packets_total;
  out.complete = res.complete;
  out.row_sums_ok = res.row_sums_consistent;
  out.fragments = res.fragments;
  out.sketches_read = res.sketches_read;
  out.recall = val.recall;
  out.bounds_ok = val.lower_bound_ok && val.error_bound_ok;
  out.max_overestimate = val.max_overestimate;
  out.worst_allowed = val.worst_allowed;
  out.wire_msgs = res.stats.inband_msgs;
  out.max_wire_bytes = res.stats.max_wire_bytes;
  out.top = res.top;
  obs::TopkService::workload_hists(flows, out.flow_packets, out.flow_bytes);
  if (recorder) {
    const bool sketch_ok =
        res.row_sums_consistent && val.lower_bound_ok && val.error_bound_ok;
    recorder->note_sweep(sketch_ok, util::cat("topk sweep: k=", cfg.k, " bounds=",
                                              sketch_ok ? "ok" : "broken"));
    const bool tok = out.complete && out.row_sums_ok && out.bounds_ok &&
                     out.recall >= cfg.min_recall;
    recorder->finish(net, !tok);
    out.rec.take(*recorder);
  }
  return out;
}

bool trial_ok(const Config& cfg, const TrialResult& t) {
  return t.complete && t.row_sums_ok && t.bounds_ok &&
         t.recall >= cfg.min_recall;
}

void write_output(std::ostream& os, const Config& cfg, const graph::Graph& g,
                  const std::vector<TrialResult>& trials) {
  obs::TopkParams geom;
  geom.rows = cfg.rows;
  geom.row_bits = cfg.row_bits;
  geom.k = cfg.k;
  {
    obs::JsonObj o;
    o.add("type", "topk_run")
        .add("topology", cfg.topo)
        .add("n", g.node_count())
        .add("sketches", cfg.sketches)
        .add("rows", cfg.rows)
        .add("row_bits", cfg.row_bits)
        .add("k", cfg.k)
        .add("epsilon", geom.epsilon())
        .add("delta", geom.delta())
        .add("crt_range", geom.range())
        .add("seed", cfg.sweep.seed)
        .add("trials", cfg.sweep.items);
    os << o.str() << "\n";
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& t = trials[i];
    obs::JsonObj o;
    o.add("type", "trial")
        .add("index", i)
        .add("seed", t.seed)
        .add("flows", t.flows)
        .add("packets", t.packets)
        .add("complete", t.complete)
        .add("row_sums_ok", t.row_sums_ok)
        .add("fragments", t.fragments)
        .add("sketches_read", t.sketches_read)
        .add("recall", t.recall)
        .add("bounds_ok", t.bounds_ok)
        .add("max_overestimate", t.max_overestimate)
        .add("worst_allowed", t.worst_allowed)
        .add("sweep_wire_msgs", t.wire_msgs)
        .add("sweep_max_wire_bytes", t.max_wire_bytes)
        .add("ok", trial_ok(cfg, t));
    os << o.str() << "\n";
    for (const obs::FlowEstimate& fe : t.top) {
      obs::JsonObj fo;
      fo.add("type", "flow")
          .add("trial", i)
          .add("fkey", fe.fkey)
          .add("estimate", fe.estimate)
          .add("sketch", fe.sketch);
      os << fo.str() << "\n";
    }
  }
  const obs::Histogram pk = bench::merge_hist_shards(
      trials, [](const TrialResult& t) { return t.flow_packets; });
  const obs::Histogram by = bench::merge_hist_shards(
      trials, [](const TrialResult& t) { return t.flow_bytes; });
  os << pk.to_json("flow_packets") << "\n";
  os << by.to_json("flow_bytes") << "\n";

  double min_recall = 1.0;
  bool all_ok = true;
  for (const TrialResult& t : trials) {
    min_recall = std::min(min_recall, t.recall);
    all_ok = all_ok && trial_ok(cfg, t);
  }
  obs::JsonObj o;
  o.add("type", "topk_summary")
      .add("trials", trials.size())
      .add("min_recall", trials.empty() ? 0.0 : min_recall)
      .add("all_ok", all_ok)
      .add("flow_packets", pk.summary())
      .add("flow_bytes", by.summary());
  os << o.str() << "\n";
}

constexpr const char* kUsage =
    "usage: topk_run [--topo KIND] [--n N] [--sketches E] [--rows D]\n"
    "                [--row-bits B] [--k K] [--elephants E] [--mice M]\n"
    "                [--seed S] [--trials T] [--threads T] [--out FILE]\n"
    "                [--min-recall R] [--stream FILE] [--window N]\n";

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  episode::Flags flags(kUsage);
  flags.sweep(cfg.sweep, "--trials")
      .str("--topo", cfg.topo)
      .num("--n", cfg.n)
      .num("--sketches", cfg.sketches)
      .num("--rows", cfg.rows)
      .num("--row-bits", cfg.row_bits)
      .num("--k", cfg.k)
      .num("--elephants", cfg.elephants)
      .num("--mice", cfg.mice)
      .num("--elephant-min", cfg.elephant_min)
      .num("--elephant-max", cfg.elephant_max)
      .num("--min-recall", cfg.min_recall)
      .num("--window", cfg.window);
  if (!flags.parse(argc, argv) || cfg.sweep.items == 0 || cfg.sketches == 0 ||
      cfg.window == 0)
    return flags.usage();

  scenario::TopoRef topo;
  topo.kind = cfg.topo;
  topo.n = cfg.n;
  topo.seed = 1;
  std::string err;
  const graph::Graph g = scenario::build_topology(topo, &err);
  if (!err.empty() || g.node_count() == 0) {
    std::fprintf(stderr, "topk_run: bad topology: %s\n", err.c_str());
    return 2;
  }
  if (cfg.sketches > g.node_count()) {
    std::fprintf(stderr, "topk_run: more sketches than switches\n");
    return 2;
  }

  return episode::run_sweep(
      episode::Driver<TrialResult>{
          .name = "topk_run",
          .run = [&](std::uint64_t s, std::size_t) { return run_trial(cfg, g, s); },
          .emit = [&](std::ostream& os, const std::vector<TrialResult>& trials) {
            write_output(os, cfg, g, trials);
          },
          .sections = [](const TrialResult& t, std::size_t i) {
            return std::vector<episode::Section>{
                {t.rec,
                 episode::separator("trial_stream")
                     .add("trial", i)
                     .add("seed", t.seed)
                     .str(),
                 episode::separator("bundle").add("trial", i).str()}};
          },
          .gate = [&cfg](const std::vector<TrialResult>& trials) {
            std::uint64_t ok = 0;
            double min_recall = 1.0;
            for (const TrialResult& t : trials) {
              ok += trial_ok(cfg, t) ? 1 : 0;
              min_recall = std::min(min_recall, t.recall);
            }
            std::fprintf(
                stderr,
                "topk_run: %llu/%llu trial(s) ok, min recall %.3f (gate %.3f)\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(trials.size()), min_recall,
                cfg.min_recall);
            return ok == trials.size() ? 0 : 1;
          }},
      cfg.sweep);
}
