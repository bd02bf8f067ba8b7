// DrugTree benchmark entry point.
//
//   drugtree_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   drugtree_bench --list-metrics
//
// --rate sets analyst_mix's offered load (requests per second) in place of
// the recorded one, for measuring capacity.
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics. Exits
// non-zero on bad arguments or when the workload cannot run.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "spans.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: drugtree_bench --workload mobile_browse|analyst_mix "
               "--seed N --seconds S --trace 0|1 [--rate R]\n"
               "       drugtree_bench --list-metrics\n");
  return 2;
}

void ListMetrics() {
  auto print = [](const char* title, const auto& metrics) {
    std::printf("%s\n", title);
    for (const auto& [name, unit] : metrics) {
      std::printf("  %s %s\n", name.c_str(), unit.c_str());
    }
  };
  print("end_to_end", perfbench::EndToEndMetrics());
  print("per_layer", perfbench::LayerMetrics());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0.0 ||
          args.seconds > 600.0) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--rate") {
      args.rate_per_s = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.rate_per_s <= 0.0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();

  drugtree::util::Result<perfbench::RunResult> result =
      drugtree::util::Status::InvalidArgument("unknown workload");
  if (args.workload == "mobile_browse") {
    result = perfbench::RunMobileBrowse(args);
  } else if (args.workload == "analyst_mix") {
    result = perfbench::RunAnalystMix(args);
  } else {
    return Usage();
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  if (args.trace) {
    perfbench::MetricSet layer = perfbench::NewLayerMetrics();
    perfbench::SetSpanMetrics(&result->layer);
    for (const auto& [name, metric] : result->layer) {
      auto it = layer.find(name);
      if (it == layer.end()) {
        std::fprintf(stderr, "unlisted per-layer metric %s\n", name.c_str());
        return 1;
      }
      it->second.value = metric.value;
    }
    result->layer = std::move(layer);
    mkdir(args.out_dir.c_str(), 0755);
    std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".jsonl";
    if (!perfbench::SpanRecorder::Get().WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  perfbench::PrintResult(*result, args.trace);
  return 0;
}
