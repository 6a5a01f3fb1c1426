// Ablation: period-detector sets across the paper's evaluation workloads.
// Runs the registry pipeline under increasingly rich detector selections
// on the Fig. 7 semi-synthetic sweep and the Fig. 10-12 application
// traces (LAMMPS, Nek5000 reduced window, HACC-IO), reporting whether
// the fused prediction lands on the known ground truth and what the
// extra detectors cost per analysis.
//
// A second table runs ground-truth scenarios built from the Fig. 7
// generator over many seeds — a linear bandwidth ramp (trend), sampling
// below the Nyquist rate of the I/O period, and nested periods — and
// counts, per detector set, the trials whose fused period lands within
// 15% of the truth. These are the scenarios where a non-default
// detector has to change the outcome to justify its cost.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ftio.hpp"
#include "trace/formats.hpp"
#include "workloads/apps.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace {

namespace core = ftio::core;

struct DetectorConfig {
  const char* label;
  std::vector<core::DetectorSelection> selection;  // empty = seed default
  bool with_acf = true;
};

std::vector<DetectorConfig> configs() {
  return {
      {"dft", {{"dft", 1.0}}, false},
      {"dft+acf (paper)", {}, true},
      {"dft+autoperiod", {{"dft", 1.0}, {"autoperiod", 1.0}}, true},
      {"dft+cfd-auto", {{"dft", 1.0}, {"cfd-autoperiod", 1.0}}, true},
      {"dft+lomb-scargle", {{"dft", 1.0}, {"lomb-scargle", 1.0}}, true},
      {"all",
       {{"dft", 1.0},
        {"acf", 1.0},
        {"autoperiod", 1.0},
        {"cfd-autoperiod", 1.0},
        {"lomb-scargle", 1.0}},
       true},
  };
}

struct Workload {
  std::string label;
  double truth = 0.0;  ///< ground-truth period in seconds
  /// Runs one full analysis with the given base options.
  std::function<core::FtioResult(const core::FtioOptions&)> run;
  core::FtioOptions base;
};

// --- ground-truth scenarios ------------------------------------------------

/// Detector sets of the scenario table: the paper pipeline alone, then
/// with each non-default detector added to it (Lomb–Scargle also at
/// double weight, so it can outvote an aliased dft+acf pair).
std::vector<DetectorConfig> scenario_configs() {
  const auto with = [](const char* name, double weight) {
    return std::vector<core::DetectorSelection>{
        {"dft", 1.0}, {"acf", 1.0}, {name, weight}};
  };
  return {
      {"dft+acf (paper)", {}, true},
      {"+autoperiod", with("autoperiod", 1.0), true},
      {"+cfd-autoperiod", with("cfd-autoperiod", 1.0), true},
      {"+lomb-scargle", with("lomb-scargle", 1.0), true},
      {"+lomb-scargle x2", with("lomb-scargle", 2.0), true},
  };
}

/// One generated trial: the curve to analyse, the sampling rate, and the
/// periods that count as correct.
struct Trial {
  ftio::signal::StepFunction curve;
  double fs = 1.0;
  std::vector<double> truths;
};

struct Scenario {
  const char* label;
  std::function<Trial(std::uint64_t seed)> make;
};

ftio::workloads::SemiSyntheticApp fig07_app(
    const std::vector<ftio::workloads::PhaseTrace>& library,
    std::uint64_t seed, double tcpu_mean, int iterations) {
  ftio::workloads::SemiSyntheticConfig c;
  c.iterations = iterations;
  c.tcpu_mean = tcpu_mean;
  c.tcpu_sigma = 0.25 * tcpu_mean;
  c.seed = seed;
  return ftio::workloads::generate_semisynthetic(c, library);
}

/// `curve` plus a linear ramp from 0 at its start to `height` at its end.
/// The ramp steps every `step` seconds (merged with the curve's own
/// knots), far below the 1 s sampling interval it is analysed at.
ftio::signal::StepFunction add_ramp(const ftio::signal::StepFunction& curve,
                                    double height, double step) {
  const double t0 = curve.start_time();
  const double t1 = curve.end_time();
  std::vector<double> times(curve.times().begin(), curve.times().end());
  for (double t = t0 + step; t < t1; t += step) times.push_back(t);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<double> values(times.size() - 1);
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    const double mid = 0.5 * (times[i] + times[i + 1]);
    values[i] = curve.value_at(times[i]) + height * (mid - t0) / (t1 - t0);
  }
  return {std::move(times), std::move(values)};
}

std::vector<Scenario> scenarios(
    const std::vector<ftio::workloads::PhaseTrace>& library) {
  const auto ramp = [&library](double multiple) {
    return [&library, multiple](std::uint64_t seed) {
      const auto app = fig07_app(library, seed, 11.0, 20);
      const auto curve = ftio::trace::bandwidth_signal(app.trace);
      const double mean = curve.total_integral() /
                          (curve.end_time() - curve.start_time());
      return Trial{add_ramp(curve, multiple * mean, 0.1), 1.0,
                   {app.mean_period}};
    };
  };
  return {
      {"linear ramp to 4x window mean, fs 1 Hz", ramp(4.0)},
      {"linear ramp to 16x window mean, fs 1 Hz", ramp(16.0)},
      {"sub-Nyquist: fs 0.06 Hz, ~13 s period",
       [&library](std::uint64_t seed) {
         const auto app = fig07_app(library, seed, 2.5, 60);
         return Trial{ftio::trace::bandwidth_signal(app.trace), 0.06,
                      {app.mean_period}};
       }},
      {"nested: every 4th I/O phase 4x the bytes, fs 1 Hz",
       [&library](std::uint64_t seed) {
         auto app = fig07_app(library, seed, 11.0, 32);
         const auto& starts = app.phase_starts;
         for (auto& r : app.trace.requests) {
           const auto phase = static_cast<std::size_t>(
               std::upper_bound(starts.begin(), starts.end(), r.start) -
               starts.begin());
           if (phase > 0 && (phase - 1) % 4 == 0) r.bytes *= 4;
         }
         return Trial{ftio::trace::bandwidth_signal(app.trace), 1.0,
                      {app.mean_period, 4.0 * app.mean_period}};
       }},
  };
}

void print_row(const char* label, bool found, double period, double truth,
               double micros) {
  if (found) {
    std::printf("  %-18s %-6s %10.2f s %8.1f%% %12.1f us\n", label, "yes",
                period, 100.0 * std::abs(period - truth) / truth, micros);
  } else {
    std::printf("  %-18s %-6s %10s   %8s %12.1f us\n", label, "no", "-", "-",
                micros);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::print_header(
      "Ablation: period-detector sets on the paper's workloads",
      "fused prediction vs ground truth; us/call = one full analysis");

  std::vector<Workload> workloads;

  // Fig. 7 flavour: one semi-synthetic app with mild compute variability.
  {
    ftio::workloads::PhaseLibraryConfig lib_config;
    lib_config.phase_count = 30;
    const auto library = ftio::workloads::make_phase_library(lib_config);
    ftio::workloads::SemiSyntheticConfig c;
    c.tcpu_mean = 11.0;
    c.tcpu_sigma = 2.75;
    c.seed = args.seed;
    auto app = ftio::workloads::generate_semisynthetic(c, library);
    Workload w;
    w.label = "fig07 semi-synthetic";
    w.truth = app.mean_period;
    w.base.sampling_frequency = 1.0;
    w.base.with_metrics = false;
    w.run = [app = std::move(app)](const core::FtioOptions& opts) {
      return core::detect(app.trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 10: LAMMPS dumps, ~27.4 s real cadence.
  {
    ftio::workloads::LammpsConfig c;
    c.ranks = 512;
    auto trace = ftio::workloads::generate_lammps_trace(c);
    Workload w;
    w.label = "fig10 LAMMPS";
    w.truth = c.step_seconds * c.dump_every;
    w.base.sampling_frequency = 10.0;
    w.base.with_metrics = false;
    w.run = [trace = std::move(trace)](const core::FtioOptions& opts) {
      return core::detect(trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 11: Nek5000 heatmap, reduced window (paper: 4642.1 s at 85.4%).
  {
    ftio::workloads::NekConfig c;
    const auto heatmap = ftio::workloads::generate_nek5000_heatmap(c);
    auto bandwidth = heatmap.bandwidth();
    Workload w;
    w.label = "fig11 Nek5000 (reduced window)";
    w.truth = c.regular_period;
    w.base.sampling_frequency = heatmap.implied_sampling_frequency();
    w.base.sampling_mode = ftio::signal::SamplingMode::kBinAverage;
    w.base.window_end = 56'000.0;
    w.base.with_metrics = false;
    w.run = [bandwidth = std::move(bandwidth)](
                const core::FtioOptions& opts) {
      return core::analyze_bandwidth(bandwidth, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 12: HACC-IO loop, true mean period ~8.7 s.
  {
    ftio::workloads::HaccIoConfig c;
    auto trace = ftio::workloads::generate_haccio_trace(c);
    double gap_sum = 0.0;
    for (double g : c.phase_gaps) gap_sum += g;
    Workload w;
    w.label = "fig12 HACC-IO";
    w.truth = gap_sum / static_cast<double>(c.phase_gaps.size());
    w.base.sampling_frequency = 10.0;
    w.base.candidates.tolerance = 0.55;  // the paper's two-candidate knob
    w.base.with_metrics = false;
    w.run = [trace = std::move(trace)](const core::FtioOptions& opts) {
      return core::detect(trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  const std::size_t reps = args.full ? 9 : 3;
  for (const auto& w : workloads) {
    std::printf("%s (truth %.1f s)\n", w.label.c_str(), w.truth);
    std::printf("  %-18s %-6s %12s %9s %15s\n", "detectors", "found",
                "fused period", "error", "time/call");
    for (const auto& config : configs()) {
      core::FtioOptions opts = w.base;
      opts.with_autocorrelation = config.with_acf;
      opts.detectors.detectors = config.selection;
      core::FtioResult r;
      double best_seconds = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        r = w.run(opts);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (rep == 0 || s < best_seconds) best_seconds = s;
      }
      print_row(config.label, r.fused.found(), r.fused.period, w.truth,
                1e6 * best_seconds);
    }
    std::printf("\n");
  }

  ftio::workloads::PhaseLibraryConfig lib_config;
  lib_config.phase_count = 30;
  const auto library = ftio::workloads::make_phase_library(lib_config);
  const std::size_t trials = bench::trace_count(args, 8, 24);
  std::printf("Ground-truth scenarios (fig07 generator, %zu seeds from %llu; "
              "hit = fused period within 15%% of a true period)\n",
              trials, static_cast<unsigned long long>(args.seed));
  const auto set = scenario_configs();
  std::printf("  %-50s", "scenario");
  for (const auto& config : set) std::printf(" %17s", config.label);
  std::printf("\n");
  for (const auto& scenario : scenarios(library)) {
    std::vector<std::size_t> hits(set.size(), 0);
    for (std::size_t t = 0; t < trials; ++t) {
      const Trial trial = scenario.make(args.seed + t);
      for (std::size_t k = 0; k < set.size(); ++k) {
        core::FtioOptions opts;
        opts.sampling_frequency = trial.fs;
        opts.with_metrics = false;
        opts.with_autocorrelation = set[k].with_acf;
        opts.detectors.detectors = set[k].selection;
        const auto r = core::analyze_bandwidth(trial.curve, opts);
        if (!r.fused.found()) continue;
        for (double truth : trial.truths) {
          if (std::abs(r.fused.period - truth) <= 0.15 * truth) {
            ++hits[k];
            break;
          }
        }
      }
    }
    std::printf("  %-50s", scenario.label);
    for (std::size_t h : hits) std::printf(" %11zu / %-3zu", h, trials);
    std::printf("\n");
  }
  return 0;
}
