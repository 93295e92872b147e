#pragma once
// Episode harness: the skeleton shared by the seeded run drivers (chaos_run,
// topk_run, xfsm_run, attack_run, scenario_run).  A driver supplies its own
// flags and a Driver<Result>:
//
//   run(seed, index) -> Result      one item (episode / trial / scenario)
//   emit(ostream&, results)         stdout or --out
//   sections(result, index)         its recordings and their separator lines
//   gate(results) -> exit code      prints the summary line(s)
//
// run_sweep owns the rest: seed pre-draw, the parallel fan-out and its
// error path, the stdout-or---out sink, the --stream file and --bundle-dir.
//
// Determinism contract (docs/observability.md, "Episode harness"): item
// seeds are pre-drawn from Rng(seed) in item order, each item derives all of
// its randomness from its own seed and owns its network, items fan out over
// bench::parallel_sweep (results in item order), histograms fold with
// obs::Histogram::merge, every recorder buffers its stream in memory and the
// buffers are written in item order after the sweep, and when items fail the
// lowest-index item's error is the one reported.  So stdout, --out,
// --stream, every bundle, stderr and the exit code are byte-identical at ANY
// --threads.  No wall-clock value is emitted.
//
// Exit codes: 0 = the driver's gate held; 1 = it failed; 2 = usage, setup
// or I/O error.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench/parallel.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ss::episode {

/// "a,,b" -> {"a", "b"}: a comma-separated list, empty pieces dropped.
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= s.size()) {
    const std::size_t comma = s.find(',', from);
    const std::size_t to = comma == std::string::npos ? s.size() : comma;
    if (to > from) out.push_back(s.substr(from, to - from));
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

/// Parses ALL of `s` as a number of type T: false (and `out` untouched) on
/// an empty string, trailing characters ("2e4" for an integer, "2x"), a
/// value out of T's range, or a non-finite float.
template <typename T>
bool parse_num(std::string_view s, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Flags every sweep driver shares.
struct Sweep {
  explicit Sweep(std::uint64_t default_items = 1) : items(default_items) {}

  std::uint64_t items;      // --episodes / --trials
  std::uint64_t seed = 1;
  unsigned threads = 1;     // 0 = one per core
  std::string out;          // "" = stdout
  std::string stream;       // --stream FILE
  std::string bundle_dir;   // --bundle-dir DIR

  bool recording() const { return !stream.empty() || !bundle_dir.empty(); }
};

/// One driver's command line.  Numbers go through parse_num, so a malformed
/// value is a usage error rather than a silently truncated run.
class Flags {
 public:
  explicit Flags(const char* usage) : usage_(usage) {}

  Flags& str(const char* name, std::string& dst) {
    return add(name, true, [&dst](const char* v) {
      dst = v;
      return true;
    });
  }
  template <typename T>
  Flags& num(const char* name, T& dst) {
    return add(name, true, [&dst](const char* v) { return parse_num(v, dst); });
  }
  Flags& csv(const char* name, std::vector<std::string>& dst) {
    return add(name, true, [&dst](const char* v) {
      dst = split_csv(v);
      return true;
    });
  }
  /// A switch: present = true, takes no value.
  Flags& on(const char* name, bool& dst) {
    return add(name, false, [&dst](const char*) { return dst = true; });
  }
  /// The single bare (non-dash) argument.
  Flags& positional(std::string& dst) {
    positional_ = &dst;
    return *this;
  }
  /// The item count flag plus --seed, --threads, --out and --stream.
  Flags& sweep(Sweep& sw, const char* items_flag) {
    return num(items_flag, sw.items)
        .num("--seed", sw.seed)
        .num("--threads", sw.threads)
        .str("--out", sw.out)
        .str("--stream", sw.stream);
  }

  /// False on an unknown flag, a flag missing its value, a malformed number
  /// or a second positional argument.
  bool parse(int argc, char** argv) const {
    for (int k = 1; k < argc; ++k) {
      const auto f = std::find_if(flags_.begin(), flags_.end(),
                                  [&](const Flag& g) { return g.name == argv[k]; });
      if (f != flags_.end() && !f->takes_value) {
        f->set(nullptr);
      } else if (f != flags_.end() && k + 1 < argc) {
        if (!f->set(argv[++k])) return false;
      } else if (positional_ != nullptr && positional_->empty() &&
                 argv[k][0] != '-') {
        *positional_ = argv[k];
      } else {
        return false;
      }
    }
    return true;
  }

  /// Prints the usage text to stderr; returns exit code 2.
  int usage() const {
    std::fputs(usage_, stderr);
    return 2;
  }

 private:
  struct Flag {
    std::string_view name;
    bool takes_value;
    std::function<bool(const char*)> set;
  };
  Flags& add(const char* name, bool takes_value,
             std::function<bool(const char*)> set) {
    flags_.push_back({name, takes_value, std::move(set)});
    return *this;
  }

  const char* usage_;
  std::vector<Flag> flags_;
  std::string* positional_ = nullptr;
};

/// One flight recorder's buffered output.
struct Recording {
  std::string stream;  // window stream
  std::string bundle;  // post-mortem bundle, empty unless one triggered
  std::uint64_t alerts = 0;

  void take(const obs::Recorder& r) {
    stream = r.stream();
    bundle = r.bundle();
    alerts = r.alert_count();
  }
};

/// run_scenario with a timeline and a flight recorder sampling every
/// `window` simulator events attached; the recorder's output lands in `rec`.
inline scenario::ScenarioResult run_recorded(const scenario::ScenarioSpec& spec,
                                             std::uint64_t window, Recording& rec) {
  obs::Timeline tl(spec.graph);
  obs::RecorderConfig rc;
  rc.window_events = window;
  obs::Recorder recorder(rc);
  scenario::ScenarioResult res = scenario::run_scenario(spec, &tl, &recorder);
  rec.take(recorder);
  return res;
}

/// {"type":<type>,"schema_version":N}: the start of every separator line in
/// a --stream file; drivers append the fields naming the recording.
inline obs::JsonObj separator(std::string_view type) {
  obs::JsonObj o;
  o.add("type", type).add_u("schema_version", obs::kStreamSchemaVersion);
  return o;
}

/// One recording's place in the --stream file.
struct Section {
  Section(const Recording& r, std::string head_line,
          std::string bundle_head_line = "")
      : rec(&r), head(std::move(head_line)),
        bundle_head(std::move(bundle_head_line)) {}

  const Recording* rec;
  std::string head;         // separator line before the stream; "" = none
  std::string bundle_head;  // separator line before the bundle, inlined
                            // after the stream; "" = not inlined
};

template <typename Result>
struct Driver {
  const char* name;  // stderr prefix
  std::function<Result(std::uint64_t seed, std::size_t index)> run;
  std::function<void(std::ostream&, const std::vector<Result>&)> emit;
  std::function<std::vector<Section>(const Result&, std::size_t index)> sections;
  std::function<int(const std::vector<Result>&)> gate;
};

/// Runs `write` on stdout when `path` is empty, else on `path` (truncated);
/// false after a "cannot write" line when the file cannot be opened.
template <typename Write>
bool write_to(const char* name, const std::string& path, Write write) {
  if (path.empty()) {
    write(std::cout);
    return true;
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "%s: cannot write %s\n", name, path.c_str());
    return false;
  }
  write(os);
  return true;
}

/// The whole run: pre-draw sw.items seeds, fan the items out, write
/// stdout/--out, --stream and --bundle-dir, then return the gate's code.
template <typename Result>
int run_sweep(const Driver<Result>& d, const Sweep& sw) {
  util::Rng seeder(sw.seed);
  std::vector<std::uint64_t> seeds(sw.items);
  for (std::uint64_t& s : seeds) s = seeder.uniform(1, ~std::uint64_t{0} - 1);

  std::vector<std::optional<std::string>> errors(seeds.size());
  const std::vector<Result> results = bench::parallel_sweep(
      seeds,
      [&](const std::uint64_t& s, std::size_t i) -> Result {
        try {
          return d.run(s, i);
        } catch (const std::exception& ex) {
          errors[i] = ex.what();
          return Result{};
        }
      },
      sw.threads);
  for (const std::optional<std::string>& e : errors)
    if (e) {
      std::fprintf(stderr, "%s: %s\n", d.name, e->c_str());
      return 2;
    }

  if (!write_to(d.name, sw.out, [&](std::ostream& os) { d.emit(os, results); }))
    return 2;

  if (!sw.stream.empty() && !write_to(d.name, sw.stream, [&](std::ostream& os) {
        for (std::size_t i = 0; i < results.size(); ++i)
          for (const Section& s : d.sections(results[i], i)) {
            if (!s.head.empty()) os << s.head << "\n";
            os << s.rec->stream;
            if (!s.bundle_head.empty() && !s.rec->bundle.empty())
              os << s.bundle_head << "\n" << s.rec->bundle;
          }
      }))
    return 2;

  // Post-mortem bundles, one file per item that triggered one.
  std::uint64_t bundles = 0;
  if (!sw.bundle_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(sw.bundle_dir, ec);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::string bundle;
      for (const Section& s : d.sections(results[i], i)) bundle += s.rec->bundle;
      if (bundle.empty()) continue;
      const std::string path =
          util::cat(sw.bundle_dir, "/postmortem-ep", i, ".jsonl");
      if (!write_to(d.name, path, [&](std::ostream& os) { os << bundle; }))
        return 2;
      ++bundles;
    }
  }

  const int code = d.gate(results);
  if (!sw.bundle_dir.empty())
    std::fprintf(stderr, "%s: %llu post-mortem bundle(s) written\n", d.name,
                 static_cast<unsigned long long>(bundles));
  return code;
}

}  // namespace ss::episode
