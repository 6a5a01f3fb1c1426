#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id,parent,op,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.op << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

bool is_smooth5(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t p : {2u, 3u, 5u}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

}  // namespace

void add_window_length_metrics(Result& result,
                               const std::vector<double>& lengths) {
  double pow2 = 0.0;
  double smooth = 0.0;
  for (double len : lengths) {
    const auto n = static_cast<std::size_t>(len);
    pow2 += is_pow2(n) ? 1.0 : 0.0;
    smooth += is_smooth5(n) ? 1.0 : 0.0;
  }
  const double count = std::max<double>(1.0, static_cast<double>(lengths.size()));
  result.add("signal.samples_p50", median(lengths), "count");
  result.add("signal.len_pow2_frac", pow2 / count, "ratio");
  result.add("signal.len_smooth5_frac", smooth / count, "ratio");
}

double ior_phase_seconds(const ftio::workloads::IorConfig& config) {
  const auto per_segment =
      (config.block_size + config.transfer_size - 1) / config.transfer_size;
  return static_cast<double>(config.segments) *
         static_cast<double>(per_segment) *
         config.filesystem.transfer_seconds(ftio::trace::IoKind::kWrite,
                                            config.transfer_size, config.ranks);
}

void add_plan_cache_metrics(Result& result,
                            const ftio::signal::PlanCache::Stats& before,
                            const ftio::signal::PlanCache::Stats& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  result.add("signal.plan_hits", hits, "count");
  result.add("signal.plan_misses", misses, "count");
  result.add("signal.plan_evictions",
             static_cast<double>(after.evictions - before.evictions), "count");
  result.add("signal.plan_hit_ratio", hits / std::max(1.0, hits + misses),
             "ratio");
}

}  // namespace perfbench
