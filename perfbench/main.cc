// Command-line entry of the end-to-end benchmark. run.py builds this
// binary and invokes it as
//   perfbench_main --workload <name> --seed <n> --seconds <s> --trace <0|1>
// The last line of standard output is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// preceded by a provenance line, a line of exact counts and notes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsObject(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_main --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--src-digest <hex>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  std::printf(
      "{\"provenance\": {\"git_sha\": %s, \"src_digest\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s}}\n",
      JsonString(git_sha).c_str(), JsonString(src_digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed),
      JsonNumber(opts.seconds).c_str(), opts.trace ? "true" : "false");
  std::fflush(stdout);

  perfbench::Report r = perfbench::RunWorkload(opts);
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  if (!r.error.empty()) std::printf("# error: %s\n", r.error.c_str());
  if (r.attempted == 0) {
    std::fprintf(stderr, "no user op was attempted: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("# error_rate %s (%llu failed of %llu attempted)\n",
              JsonNumber(static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted))
                  .c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("{\"counts\": %s}\n", MetricsObject(r.counts).c_str());
  const bool correct = r.correct && r.failed == 0 && r.error.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      MetricsObject(r.metrics).c_str());
  return correct ? 0 : 1;
}
