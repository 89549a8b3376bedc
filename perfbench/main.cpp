// sitam performance benchmark binary.
//
//   sitam_perfbench --workload <paper_table_30k|restart_sweep_10k|serve_mix>
//                   --seed <n> --seconds <s> --trace <0|1> [--smoke]
//   sitam_perfbench --profile
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with 1).
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "util/json.h"
#include "util/log.h"

namespace {

void print_report(const perfbench::Report& report) {
  for (const std::string& note : report.notes) std::cout << note << '\n';
  sitam::JsonWriter out;
  out.begin_object()
      .kv("correct", report.correct)
      .kv("attempted", report.attempted)
      .kv("failed", report.failed)
      .key("metrics")
      .begin_object();
  for (const perfbench::Report::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) throw std::runtime_error("non-finite " + m.name);
    out.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  }
  out.end_object().end_object();
  std::cout << out.str() << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "sitam_perfbench: " << why
            << "\nusage: sitam_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] | --profile\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sitam::set_log_level(sitam::LogLevel::kWarn);
  perfbench::RunOptions options;
  bool profile = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--profile") {
        profile = true;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& err) {
    return usage(err.what());
  }
  if (profile) return perfbench::run_reference_profile();

  perfbench::Report report;
  if (options.workload == "paper_table_30k") {
    report = perfbench::run_paper_table(options);
  } else if (options.workload == "restart_sweep_10k") {
    report = perfbench::run_restart_sweep(options);
  } else if (options.workload == "serve_mix") {
    report = perfbench::run_serve_mix(options);
  } else {
    return usage("unknown workload '" + options.workload + "'");
  }
  print_report(report);
  return 0;
}
