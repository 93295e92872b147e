// obs_report: run one scenario spec with the causal timeline attached and
// render the unified run report — fault/epoch/verdict timeline, per-switch
// hop heatmap, histogram percentiles, fault->reaction latencies, per-epoch
// anomalies, and the invariant verdict — plus an optional Prometheus-style
// text snapshot.
//
//   obs_report <scenario.json> [--out FILE] [--prom FILE]
//              [--expect-clean]             zero anomalies AND zero violations
//              [--expect-anomalies a,b]     exact anomaly-kind set (sorted)
//              [--expect-reaction KIND]     some fault reacted via KIND
//                                           ("failover" | "wire_drop") with a
//                                           fault->verdict latency recorded
//
// Offline mode — audit a previously exported trace without re-running:
//
//   obs_report --trace <trace.jsonl> [--expect-clean] [--expect-anomalies a,b]
//
// reads "hop" lines back through the same parse path the exporter wrote
// them with (obs::hop_from_json_line), reconstructs the DFS structure, and
// applies the same anomaly gate.  Non-hop lines are skipped, so a mixed
// JSONL stream (metrics + hops) audits as-is.
//
// Follow mode — render a flight-recorder window stream (the --stream output
// of chaos_run / scenario_run / topk_run / xfsm_run) without re-running:
//
//   obs_report --follow <stream.jsonl> [--expect-alerts N]
//
// prints one line per window (event/delivery/drop deltas), every online
// alert, each run summary, and a compact view of any post-mortem bundle.
// Records with a schema_version newer than this build are skipped with one
// warning (via obs::read_stream); malformed/truncated lines are skipped and
// counted, never fatal.  --expect-alerts N arms a gate: exit non-zero
// unless exactly N alert lines were seen across the whole stream.
//
// Any --expect-* flag also arms the health gate: invariant violations or a
// failed scenario "expect" block exit non-zero.
//
// Exit codes: 0 = ran (and every armed expectation held); 1 = an
// expectation or health check failed; 2 = unreadable/invalid spec or usage.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/inspect.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "tools/episode.hpp"

using namespace ss;

namespace {

std::string join_csv(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) out += ',';
    out += s;
  }
  return out.empty() ? "none" : out;
}

int usage() {
  std::fprintf(stderr,
               "usage: obs_report <scenario.json> [--out FILE] [--prom FILE]\n"
               "                  [--expect-clean] [--expect-anomalies a,b]\n"
               "                  [--expect-reaction KIND] [--expect-fabricated N]\n"
               "       obs_report --trace <trace.jsonl> [--expect-clean]\n"
               "                  [--expect-anomalies a,b]\n"
               "       obs_report --follow <stream.jsonl> [--expect-alerts N]\n");
  return 2;
}

/// Follow mode: render a flight-recorder window stream and (optionally)
/// gate on the total number of alert lines.
int run_follow(const std::string& stream_path, bool have_expect_alerts,
               std::uint64_t expect_alerts) {
  std::ifstream in(stream_path);
  if (!in) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", stream_path.c_str());
    return 2;
  }

  // Rendering pass: one line per interesting record.  Unknown-version and
  // malformed lines are handled exactly like the tallying pass below.
  std::cout << "== flight-recorder stream: " << stream_path << " ==\n";
  obs::for_each_jsonl(in, [&](const obs::JsonValue& v) {
    if (obs::schema_version_of(v) > obs::kStreamSchemaVersion) return;
    const std::string type = v.str("type");
    if (type == "episode_stream" || type == "trial_stream" ||
        type == "machine_stream") {
      std::cout << "-- " << type << " "
                << v.u64(type == "episode_stream" ? "episode" : "trial");
      const std::string m = v.str("machine");
      if (!m.empty()) std::cout << " machine=" << m;
      std::cout << " seed=" << v.u64("seed") << " --\n";
    } else if (type == "window") {
      std::uint64_t delivered = 0, drops = 0;
      if (const obs::JsonValue* c = v.get("counters")) {
        delivered = c->u64("sim_delivered");
        drops = c->u64("sim_dropped_down") + c->u64("sim_dropped_blackhole") +
                c->u64("sim_dropped_loss");
      }
      std::cout << "  w" << v.u64("window") << " t=[" << v.u64("t_start")
                << "," << v.u64("t_end") << ") events=" << v.u64("events")
                << " delivered=" << delivered << " drops=" << drops;
      if (v.u64("alerts") != 0) std::cout << " alerts=" << v.u64("alerts");
      std::cout << "\n";
    } else if (type == "alert") {
      std::cout << "  ALERT w" << v.u64("window") << " " << v.str("kind")
                << ": " << v.str("detail") << "\n";
    } else if (type == "summary") {
      std::cout << "  summary: windows=" << v.u64("windows")
                << " alerts=" << v.u64("alerts")
                << " events=" << v.u64("events")
                << " failed=" << (v.boolean_or("failed") ? "yes" : "no")
                << "\n";
    } else if (type == "bundle") {
      std::cout << "  -- post-mortem bundle --\n";
    } else if (type == "bundle_header") {
      std::cout << "  bundle: trip_time=" << v.u64("trip_time")
                << " fr_events=" << v.u64("fr_events")
                << " suspects=" << v.u64("suspects")
                << " failed=" << (v.boolean_or("failed") ? "yes" : "no")
                << "\n";
    } else if (type == "fr_event") {
      std::cout << "    fr_event t=" << v.u64("time") << " w="
                << v.u64("window") << " " << v.str("label") << "\n";
    } else if (type == "fr_switch") {
      std::cout << "    fr_switch sw=" << v.u64("switch")
                << " up=" << (v.boolean_or("up") ? "yes" : "no")
                << " flow_entries=" << v.u64("flow_entries") << "\n";
    }
    // fr_window / fr_schedule / hop lines render as counts via the tally.
  });

  // Tallying pass through the SAME reader the tests pin down.
  std::ifstream again(stream_path);
  const obs::StreamStats st = obs::read_stream(again, &std::cerr);
  std::cout << "  totals: " << st.windows << " window(s), " << st.alerts
            << " alert(s), " << st.summaries << " summar(ies), "
            << st.jsonl.malformed << " malformed, " << st.unknown_schema
            << " unknown-schema\n";

  bool ok = true;
  if (have_expect_alerts && st.alerts != expect_alerts) {
    std::fprintf(stderr,
                 "obs_report: expectation failed: wanted %llu alert(s), "
                 "got %llu\n",
                 static_cast<unsigned long long>(expect_alerts),
                 static_cast<unsigned long long>(st.alerts));
    ok = false;
  }
  return ok ? 0 : 1;
}

/// Offline audit of an exported trace: parse hop lines, inspect, gate.
int run_offline(const std::string& trace_path, bool expect_clean,
                bool have_expect_anomalies,
                const std::vector<std::string>& expect_anomalies) {
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", trace_path.c_str());
    return 2;
  }
  std::vector<obs::HopRecord> hops;
  std::size_t lines = 0, skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    obs::HopRecord h;
    if (obs::hop_from_json_line(line, h))
      hops.push_back(std::move(h));
    else
      ++skipped;
  }
  const obs::InspectReport rep = obs::inspect_hops(hops);

  std::vector<std::string> kinds;
  for (const obs::Anomaly& a : rep.anomalies) {
    const std::string name = obs::anomaly_kind_name(a.kind);
    if (std::find(kinds.begin(), kinds.end(), name) == kinds.end())
      kinds.push_back(name);
  }
  std::sort(kinds.begin(), kinds.end());

  std::cout << "== offline trace audit ==\n";
  std::cout << "  " << trace_path << ": " << lines << " line(s), "
            << hops.size() << " hop(s), " << skipped << " other\n";
  std::cout << "  delivered=" << rep.delivered_count
            << " failovers=" << rep.failover_count
            << " switches_visited=" << rep.visit_order.size() << "\n";
  for (const obs::Anomaly& a : rep.anomalies)
    std::cout << "  anomaly " << obs::anomaly_kind_name(a.kind) << " hop="
              << a.hop_index << ": " << a.detail << "\n";
  if (rep.anomalies.empty()) std::cout << "  anomalies: none\n";

  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "obs_report: expectation failed: %s\n", what.c_str());
    ok = false;
  };
  if (expect_clean && !kinds.empty())
    fail("wanted zero anomalies, got " + join_csv(kinds));
  if (have_expect_anomalies && kinds != expect_anomalies)
    fail("wanted anomalies {" + join_csv(expect_anomalies) + "}, got {" +
         join_csv(kinds) + "}");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, out_path, prom_path, expect_reaction, trace_path;
  std::string follow_path;
  bool expect_clean = false, have_expect_anomalies = false, gated = false;
  bool have_expect_alerts = false, have_expect_fabricated = false;
  std::uint64_t expect_alerts = 0, expect_fabricated = 0;
  std::vector<std::string> expect_anomalies;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--out") == 0 && k + 1 < argc) {
      out_path = argv[++k];
    } else if (std::strcmp(argv[k], "--prom") == 0 && k + 1 < argc) {
      prom_path = argv[++k];
    } else if (std::strcmp(argv[k], "--trace") == 0 && k + 1 < argc) {
      trace_path = argv[++k];
    } else if (std::strcmp(argv[k], "--follow") == 0 && k + 1 < argc) {
      follow_path = argv[++k];
    } else if (std::strcmp(argv[k], "--expect-alerts") == 0 && k + 1 < argc) {
      if (!episode::parse_num(argv[++k], expect_alerts)) return usage();
      have_expect_alerts = true;
    } else if (std::strcmp(argv[k], "--expect-fabricated") == 0 && k + 1 < argc) {
      if (!episode::parse_num(argv[++k], expect_fabricated)) return usage();
      have_expect_fabricated = gated = true;
    } else if (std::strcmp(argv[k], "--expect-clean") == 0) {
      expect_clean = gated = true;
    } else if (std::strcmp(argv[k], "--expect-anomalies") == 0 && k + 1 < argc) {
      expect_anomalies = episode::split_csv(argv[++k]);
      std::sort(expect_anomalies.begin(), expect_anomalies.end());
      have_expect_anomalies = gated = true;
    } else if (std::strcmp(argv[k], "--expect-reaction") == 0 && k + 1 < argc) {
      expect_reaction = argv[++k];
      gated = true;
    } else if (path.empty() && argv[k][0] != '-') {
      path = argv[k];
    } else {
      return usage();
    }
  }
  if (!follow_path.empty()) {
    if (!path.empty() || !trace_path.empty() || gated) return usage();
    return run_follow(follow_path, have_expect_alerts, expect_alerts);
  }
  if (have_expect_alerts) return usage();  // --expect-alerts needs --follow
  if (!trace_path.empty()) {
    if (!path.empty() || !expect_reaction.empty()) return usage();
    return run_offline(trace_path, expect_clean, have_expect_anomalies,
                       expect_anomalies);
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "obs_report: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  std::string error;
  const auto spec = scenario::parse_scenario(buf.str(), &error);
  if (!spec) {
    std::fprintf(stderr, "obs_report: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }

  obs::Timeline tl(spec->graph);
  const scenario::ScenarioResult res = scenario::run_scenario(*spec, &tl);

  obs::RunHeader h;
  h.name = spec->name;
  h.topology = spec->topology.kind;
  h.nodes = spec->graph.node_count();
  h.edges = spec->graph.edge_count();
  h.seed = spec->seed;
  h.root = spec->root;
  h.service = spec->service;
  h.hardened = spec->retry.has_value();
  h.verdict = res.verdict;
  h.attempts = res.attempts;
  h.final_epoch = res.final_epoch;
  h.retry_outcome = res.hardened_outcome;
  h.ground_truth_ok = res.ground_truth_ok;
  h.ground_truth_detail = res.ground_truth_detail;
  h.recovery_enabled = res.recovery_enabled;
  h.final_audit_clean = res.final_audit_clean;
  h.divergences = res.divergences;
  h.repairs = res.repairs_done;
  h.quarantines = res.quarantines;
  h.topk = res.topk;
  h.xfsm = res.xfsm;
  h.discovery = res.discovery;

  if (out_path.empty()) {
    obs::write_report(std::cout, h, tl);
  } else {
    std::ofstream os(out_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "obs_report: cannot write %s\n", out_path.c_str());
      return 2;
    }
    obs::write_report(os, h, tl);
  }
  if (!prom_path.empty()) {
    std::ofstream os(prom_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "obs_report: cannot write %s\n", prom_path.c_str());
      return 2;
    }
    obs::write_prom_snapshot(os, h, tl);
  }

  const std::vector<std::string> kinds = tl.anomaly_kinds();
  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "obs_report: expectation failed: %s\n", what.c_str());
    ok = false;
  };
  if (gated) {
    if (!tl.violations().empty())
      fail(std::to_string(tl.violations().size()) + " invariant violation(s)");
    if (!res.expect_ok) fail("scenario expect block failed");
  }
  if (expect_clean && !kinds.empty())
    fail("wanted zero anomalies, got " + join_csv(kinds));
  if (have_expect_anomalies && kinds != expect_anomalies)
    fail("wanted anomalies {" + join_csv(expect_anomalies) + "}, got {" +
         join_csv(kinds) + "}");
  if (have_expect_fabricated) {
    if (!res.discovery.enabled)
      fail("--expect-fabricated needs a \"discovery\" scenario");
    else if (res.discovery.snapshot_fabricated != expect_fabricated)
      fail("wanted " + std::to_string(expect_fabricated) +
           " fabricated link(s) in the hardened map, got " +
           std::to_string(res.discovery.snapshot_fabricated));
  }
  if (!expect_reaction.empty()) {
    bool found = false;
    for (const obs::FaultReaction& r : tl.reactions())
      found = found || (r.reaction_seq && r.reaction_kind == expect_reaction &&
                        r.verdict_latency_hops.has_value());
    if (!found)
      fail("no fault reacted via \"" + expect_reaction +
           "\" with a fault->verdict latency");
  }

  std::fprintf(stderr,
               "%s: %s, %zu hop(s), %zu fault(s), anomalies={%s}, "
               "%zu violation(s)%s\n",
               spec->name.c_str(), res.verdict.c_str(),
               static_cast<std::size_t>(tl.hop_count()), tl.faults().size(),
               join_csv(kinds).c_str(), tl.violations().size(),
               gated ? (ok ? ", expectations ok" : ", expectations FAILED") : "");
  return ok ? 0 : 1;
}
