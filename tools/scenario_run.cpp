// scenario_run: execute one scenario spec file and emit the JSONL result.
//
//   scenario_run <scenario.json> [--out FILE] [--stream FILE] [--window N]
//
// stdout (or --out): the deterministic result stream — one "scenario"
// header line, one "scenario_event" line per applied fault, one
// "scenario_result" line.  Replaying the same file yields byte-identical
// output.  stderr: a one-line human summary.
//
// --stream FILE attaches a flight recorder (obs::Recorder): the windowed
// probe stream — plus any online alerts, the run summary, and (appended
// after a "bundle" separator) the post-mortem bundle when the run failed —
// is written to FILE; --window sets the sampling window in simulator
// events (default 256).  The stream is deterministic for a given spec.
//
// The run is a one-item sweep of the episode harness (docs/observability.md)
// whose item ignores the harness seed: all randomness comes from the spec.
//
// Exit codes: 0 = ran and every "expect" assertion held; 1 = an expect
// assertion failed; 2 = unreadable/invalid spec.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "tools/episode.hpp"

using namespace ss;

namespace {

constexpr const char* kUsage =
    "usage: scenario_run <scenario.json> [--out FILE]\n"
    "                    [--stream FILE] [--window N]\n";

struct Run {
  scenario::ScenarioResult res;
  episode::Recording rec;
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  episode::Sweep sw;
  std::uint64_t window = 256;
  episode::Flags flags(kUsage);
  flags.positional(path)
      .str("--out", sw.out)
      .str("--stream", sw.stream)
      .num("--window", window);
  if (!flags.parse(argc, argv) || path.empty() || window == 0)
    return flags.usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "scenario_run: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  std::string error;
  const auto spec = scenario::parse_scenario(buf.str(), &error);
  if (!spec) {
    std::fprintf(stderr, "scenario_run: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }

  return episode::run_sweep(
      episode::Driver<Run>{
          .name = "scenario_run",
          .run = [&](std::uint64_t, std::size_t) {
            Run r;
            r.res = sw.recording() ? episode::run_recorded(*spec, window, r.rec)
                                   : scenario::run_scenario(*spec);
            return r;
          },
          .emit = [&](std::ostream& os, const std::vector<Run>& runs) {
            scenario::write_result_jsonl(os, *spec, runs.front().res);
          },
          .sections = [](const Run& r, std::size_t) {
            return std::vector<episode::Section>{
                {r.rec, "", episode::separator("bundle").str()}};
          },
          .gate = [&](const std::vector<Run>& runs) {
            const scenario::ScenarioResult& res = runs.front().res;
            std::fprintf(
                stderr,
                "%s: %s in %u attempt(s), ground_truth=%s, %zu event(s), "
                "expect %s\n",
                spec->name.c_str(), res.verdict.c_str(), res.attempts,
                res.ground_truth_ok ? "ok" : "FAIL", res.timeline.size(),
                res.expect_ok ? "ok" : "FAILED");
            for (const std::string& f : res.expect_failures)
              std::fprintf(stderr, "  expect failed: %s\n", f.c_str());
            return res.expect_ok ? 0 : 1;
          }},
      sw);
}
