// perfbench_runner: runs one benchmark workload in this process and prints
// a provenance line, then the result as the last line of standard output.
//
//   perfbench_runner --workload attribution|binary|serve
//                    --seed N --seconds S --trace 0|1
//                    [--reference FILE] [--record]
//
// perfbench/run.py builds this binary and is the command to use; see
// perfbench/README.md.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace {

int usage(const char* why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload "
               "attribution|binary|serve --seed N --seconds S "
               "--trace 0|1 [--reference FILE] [--record]\n";
  return 2;
}

/// Why this build may not report timings, or nullptr when it may.
const char* unfitBuild() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation";
#elif defined(PERFBENCH_SANITIZED)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
}

void printProvenance(const perfbench::Options& options) {
  const char* sha = std::getenv("SCA_GIT_SHA");
  std::cout << sca::util::JsonObjectBuilder()
                   .add("provenance", "perfbench")
                   .add("workload", options.workload)
                   .addUint("seed", options.seed)
                   .addInt("trace", options.trace ? 1 : 0)
                   .add("git_sha", sha != nullptr && *sha != '\0' ? sha
                                                                  : "unknown")
                   .addUint("nproc", std::thread::hardware_concurrency())
                   .addInt("sca_threads", perfbench::threadCount())
#if defined(__clang__)
                   .add("compiler", "clang " __VERSION__)
#else
                   .add("compiler", "gcc " __VERSION__)
#endif
                   .str()
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool haveWorkload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
        haveWorkload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--reference") {
        options.referencePath = value();
      } else if (arg == "--record") {
        options.record = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  if (!haveWorkload) return usage("--workload is required");
  if (options.seconds <= 0) return usage("--seconds must be positive");
  if (const char* why = unfitBuild()) {
    std::cerr << "perfbench_runner: refusing to report timings: " << why
              << "\n";
    return 3;
  }

  using Runner = perfbench::Report (*)(const perfbench::Options&);
  Runner runner = nullptr;
  if (options.workload == "attribution") runner = perfbench::runAttribution;
  if (options.workload == "binary") runner = perfbench::runBinary;
  if (options.workload == "serve") runner = perfbench::runServe;
  if (runner == nullptr) {
    return usage(("unknown workload " + options.workload).c_str());
  }

  // The timed run never traces; the traced run switches spans on and off
  // around the regions it attributes to layers.
  sca::obs::Tracer::global().setEnabled(false);
  printProvenance(options);
  perfbench::Report report;
  try {
    report = runner(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_runner: " << options.workload
              << " failed: " << error.what() << "\n";
    return 1;
  }
  if (options.trace) report.fillLayerDefaults();
  report.print();
  return 0;
}
