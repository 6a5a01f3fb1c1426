// offline_paper: closed loop, one thread, core::detect() over a fixed
// rotation of paper-application traces at paper rank counts, fs = 10 Hz.
// The trace sweep dominates detect() here and the transforms are light.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/ftio.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/plan.hpp"
#include "signal/spectrum.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/rng.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"

namespace perfbench {
namespace {

namespace core = ftio::core;

struct PaperTrace {
  std::string label;
  ftio::trace::Trace trace;
  double truth = 0.0;  ///< period [s] from the generator configuration
};

/// Draws of one seed timed in rotation, and drawn for the quality figures
/// (period error, detected share). IOR at 1024 ranks misses its period on
/// about half the draws, so the quality figures average over more draws
/// than the timed rotation holds.
constexpr std::size_t kRotationDraws = 2;
constexpr std::size_t kQualityDraws = 16;
/// Traces per draw (three IOR sizes, LAMMPS, HACC-IO).
constexpr std::size_t kAppsPerDraw = 5;
/// Decoding a draw takes about 0.1 s, so it is repeated this often and
/// the median reported.
constexpr std::size_t kDecodeReps = 5;

/// Draw `draw` of one seed: IOR at 1024, 2048 and 3072 ranks on the
/// contended file system of the paper's 9216-rank run (Fig. 2), LAMMPS and
/// HACC-IO at 3072 ranks. The seed draws the IOR compute gaps, the HACC-IO
/// phase gaps and every generator's jitter stream.
std::vector<PaperTrace> make_draw(std::uint64_t seed, std::size_t draw) {
  ftio::util::Rng rng(seed * 1'000'003u + draw);
  std::vector<PaperTrace> rotation;
  for (int ranks : {1024, 2048, 3072}) {
    ftio::workloads::IorConfig c = ftio::workloads::ior_fig2_preset();
    c.ranks = ranks;
    c.compute_seconds = rng.uniform(70.0, 130.0);
    c.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    rotation.push_back({"ior/" + std::to_string(ranks),
                        ftio::workloads::generate_ior_trace(c),
                        ior_phase_seconds(c) + c.compute_seconds});
  }
  {
    ftio::workloads::LammpsConfig c;
    c.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    rotation.push_back({"lammps/3072", ftio::workloads::generate_lammps_trace(c),
                        c.step_seconds * static_cast<double>(c.dump_every)});
  }
  {
    ftio::workloads::HaccIoConfig c;
    double sum = 0.0;
    for (double& gap : c.phase_gaps) {
      gap *= rng.uniform(0.97, 1.03);
      sum += gap;
    }
    rotation.push_back({"hacc-io/3072", ftio::workloads::generate_haccio_trace(c),
                        sum / static_cast<double>(c.phase_gaps.size())});
  }
  return rotation;
}

using Digest = std::vector<std::uint64_t>;

void append_bits(Digest& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

/// Bit pattern of every number a detect() result reports, so two results
/// compare bit-identically.
Digest digest(const core::FtioResult& r) {
  Digest d;
  append_bits(d, r.dft.dominant_frequency.value_or(-1.0));
  append_bits(d, r.dft.confidence);
  append_bits(d, r.dft.max_zscore);
  for (const auto& c : r.dft.candidates) {
    append_bits(d, c.frequency);
    append_bits(d, c.power);
    append_bits(d, c.confidence);
  }
  append_bits(d, r.refined_confidence);
  append_bits(d, r.fused.frequency.value_or(-1.0));
  append_bits(d, r.fused.confidence);
  if (r.acf) {
    append_bits(d, r.acf->period);
    append_bits(d, r.acf->confidence);
  }
  if (r.metrics) {
    append_bits(d, r.metrics->sigma_vol);
    append_bits(d, r.metrics->time_ratio_io);
    append_bits(d, r.metrics->sigma_time);
    append_bits(d, r.metrics->bytes_per_period);
  }
  append_bits(d, r.window_start);
  append_bits(d, r.window_end);
  append_bits(d, static_cast<double>(r.sample_count));
  append_bits(d, r.abstraction_error);
  return d;
}

/// detect() rebuilt from its documented composition, one span per layer
/// call: sweep -> window selection + discretisation -> spectrum -> ACF ->
/// candidates/outliers/detectors/fusion -> metrics.
core::FtioResult traced_detect(const ftio::trace::Trace& trace,
                               const core::FtioOptions& options, Tracer& tracer,
                               std::uint64_t op, std::vector<double>& lengths) {
  const SpanScope root(tracer, "core.detect", 0, op);
  ftio::trace::BandwidthOptions bw_options;
  bw_options.kind = options.kind;
  ftio::signal::StepFunction bandwidth;
  {
    const SpanScope s(tracer, "trace.sweep", root.id(), op);
    bandwidth = ftio::trace::bandwidth_signal(trace, bw_options);
  }
  core::AnalysisWindow window;
  std::vector<double> samples;
  {
    const SpanScope s(tracer, "core.window", root.id(), op);
    window = core::select_analysis_window(bandwidth, options);
    core::discretize_window(bandwidth, window, options, 0, samples);
  }
  lengths.push_back(static_cast<double>(samples.size()));
  ftio::signal::Spectrum spectrum;
  {
    const SpanScope s(tracer, "signal.spectrum", root.id(), op);
    spectrum = ftio::signal::compute_spectrum(samples, options.sampling_frequency);
  }
  std::vector<double> acf;
  core::AnalysisArtifacts artifacts;
  artifacts.source_curve = &bandwidth;
  if (options.with_autocorrelation) {
    const SpanScope s(tracer, "signal.acf", root.id(), op);
    acf = ftio::signal::autocorrelation(samples);
    artifacts.acf = &acf;
  }
  core::FtioResult result;
  {
    const SpanScope s(tracer, "core.analyze", root.id(), op);
    result = core::analyze_samples_prepared(samples, options, window.start,
                                            std::move(spectrum), artifacts);
  }
  {
    const SpanScope s(tracer, "core.metrics", root.id(), op);
    core::finish_bandwidth_result(bandwidth, window, samples, options, result);
  }
  return result;
}

bool same_requests(const ftio::trace::Trace& a, const ftio::trace::Trace& b) {
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const auto& x = a.requests[i];
    const auto& y = b.requests[i];
    if (x.rank != y.rank || x.start != y.start || x.end != y.end ||
        x.bytes != y.bytes || x.kind != y.kind) {
      return false;
    }
  }
  return true;
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

Result run_offline_paper(const Args& args) {
  Result result;
  core::FtioOptions options;
  options.sampling_frequency = 10.0;

  // Set-up: generate the rotation and run the first cold pass (empty plan
  // cache), which also yields the reference results the timed calls must
  // reproduce. Repeated, and the median reported.
  std::vector<PaperTrace> rotation;
  std::vector<Digest> reference;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    ftio::signal::plan_cache().clear();
    rotation.clear();
    for (std::size_t draw = 0; draw < kRotationDraws; ++draw) {
      for (auto& entry : make_draw(args.seed, draw)) {
        rotation.push_back(std::move(entry));
      }
    }
    reference.clear();
    for (const auto& entry : rotation) {
      reference.push_back(digest(core::detect(entry.trace, options)));
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  // Quality against generator truth, one evaluation per drawn trace. A
  // trace without a detected period is a miss, counted in detected_frac; a
  // detected period outside the tolerance fails the run.
  std::vector<double> errors;
  std::size_t evaluations = 0;
  for (std::size_t draw = 0; draw < kQualityDraws; ++draw) {
    for (const auto& entry : make_draw(args.seed, draw)) {
      const auto r = core::detect(entry.trace, options);
      ++evaluations;
      if (!r.periodic()) continue;
      const double error = std::abs(r.period() - entry.truth) / entry.truth;
      errors.push_back(error);
      result.check(error <= kPeriodTolerance,
                   entry.label + ": period " + std::to_string(r.period()) +
                       " s outside tolerance of truth " +
                       std::to_string(entry.truth));
    }
  }

  // The timed loop. In the traced run, rotation passes alternate between
  // detect() and its traced decomposition, so both see the same inputs and
  // the same host conditions; the overhead figure compares the two.
  Tracer tracer(args.trace);
  std::vector<double> latencies;
  std::vector<double> traced_latencies;
  std::vector<double> lengths;
  std::size_t requests = 0;
  std::size_t traced_requests = 0;
  const auto plans_before = ftio::signal::plan_cache().stats();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const std::size_t k = i % rotation.size();
    const bool traced = args.trace && (i / rotation.size()) % 2 == 1;
    const auto t0 = Clock::now();
    const core::FtioResult r =
        traced ? traced_detect(rotation[k].trace, options, tracer, i, lengths)
               : core::detect(rotation[k].trace, options);
    const double elapsed = seconds_between(t0, Clock::now());
    ++result.attempted;
    const std::size_t n = rotation[k].trace.requests.size();
    requests += n;
    if (traced) {
      traced_latencies.push_back(elapsed);
      traced_requests += n;
    } else {
      latencies.push_back(elapsed);
    }
    if (digest(r) != reference[k]) {
      result.fail(rotation[k].label +
                  (traced ? ": traced decomposition differs from detect()"
                          : ": detect() differs from its reference"));
    }
  }
  const double timed_seconds = seconds_between(start, Clock::now());
  const auto plans = ftio::signal::plan_cache().stats();

  if (!args.trace) {
    result.add("setup_s", median(setup_times), "s");
    result.add("latency_us_p50", quantile(latencies, 0.50) * 1e6, "us");
    result.add("throughput_per_s",
               static_cast<double>(requests) / timed_seconds, "1/s");
    result.add("period_error_pct", mean(errors) * 100.0, "%");
    result.add("detected_frac",
               static_cast<double>(errors.size()) / static_cast<double>(evaluations),
               "ratio");
    result.add("analysed_frac", 1.0, "ratio");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // An offline analysis restarts from its trace files: decode the first
  // draw's traces from the MessagePack form TMIO writes; each must
  // round-trip exactly.
  std::vector<std::vector<std::uint8_t>> encoded;
  for (std::size_t k = 0; k < kAppsPerDraw; ++k) {
    encoded.push_back(ftio::trace::to_msgpack(rotation[k].trace));
  }
  std::vector<double> decode_times;
  for (std::size_t rep = 0; rep < kDecodeReps; ++rep) {
    const SpanScope s(tracer, "trace.decode", 0, rep);
    const auto t0 = Clock::now();
    std::vector<ftio::trace::Trace> decoded;
    for (const auto& bytes : encoded) {
      decoded.push_back(ftio::trace::from_msgpack(bytes));
    }
    decode_times.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t k = 0; rep == 0 && k < decoded.size(); ++k) {
      result.check(same_requests(decoded[k], rotation[k].trace),
                   rotation[k].label + ": msgpack round trip differs");
    }
  }

  result.add("core.detect_ms_p99", ms(quantile(latencies, 0.99)), "ms");
  result.add("trace.decode_ms", ms(median(decode_times)), "ms");
  const std::vector<double> sweeps = tracer.durations("trace.sweep");
  result.add("trace.sweep_ms", ms(median(sweeps)), "ms");
  result.add("trace.events",
             2.0 * static_cast<double>(traced_requests) /
                 static_cast<double>(std::max<std::size_t>(1, sweeps.size())),
             "count");
  result.add("core.window_ms", ms(median(tracer.durations("core.window"))), "ms");
  result.add("signal.spectrum_ms", ms(median(tracer.durations("signal.spectrum"))), "ms");
  result.add("signal.acf_ms", ms(median(tracer.durations("signal.acf"))), "ms");
  result.add("core.analyze_ms", ms(median(tracer.durations("core.analyze"))), "ms");
  result.add("core.metrics_ms", ms(median(tracer.durations("core.metrics"))), "ms");
  add_window_length_metrics(result, lengths);
  add_plan_cache_metrics(result, plans_before, plans);
  result.add("bench.trace_overhead_frac",
             mean(traced_latencies) / mean(latencies) - 1.0, "ratio");
  tracer.write_csv(args.workdir + "/spans-offline_paper.csv");
  return result;
}

}  // namespace perfbench
