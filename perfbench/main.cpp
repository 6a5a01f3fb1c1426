// End-to-end benchmark of the three FTIO paths. One process runs one
// workload; run.py builds this binary and invokes it once per run.
//
//   ftio_perfbench --workload offline_paper|online_multitenant|daemon_zipf
//                  --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Prints failed checks to stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "       [--workdir DIR]\n",
               argv0);
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0';
    auto num = [&]() {
      if (!numeric) usage(argv[0], "not a number: " + flag + " " + value);
      return number;
    };
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(num());
    else if (flag == "--seconds") args.seconds = num();
    else if (flag == "--trace") args.trace = num() != 0.0;
    else if (flag == "--workdir") args.workdir = value;
    else usage(argv[0], "unknown flag " + flag);
  }
  if (args.workload.empty()) usage(argv[0], "--workload is required");
  if (args.seconds <= 0.0) usage(argv[0], "--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  perfbench::Result result;
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "offline_paper") {
      result = perfbench::run_offline_paper(args);
    } else if (args.workload == "online_multitenant") {
      result = perfbench::run_online_multitenant(args);
    } else if (args.workload == "daemon_zipf") {
      result = perfbench::run_daemon_zipf(args);
    } else {
      usage(argv[0], "unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    ++result.attempted;
    result.fail(std::string("exception: ") + e.what());
  }

  for (const auto& what : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  const bool correct = result.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", result.attempted,
              result.failed_ops + result.failures.size());
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
