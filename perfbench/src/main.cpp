// perfbench: end-to-end benchmark of libmontage and montage_kv_server.
//
//   perfbench --workload <queue-16b|kv-ycsba-1k|server-ack-1k> --seed <n>
//             --seconds <s> --trace <0|1> [--bin-dir <dir>] [--work-dir <dir>]
//   perfbench --selftest
//
// --transient 1 runs an in-process workload on EpochSys::Options::transient
// (Montage(T)): the timed window only, as a reference figure.
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer ones (see README.md). Exits 1
// after printing when a check rejected the run.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checker.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <queue-16b|kv-ycsba-1k|server-ack-1k> "
               "--seed <n> --seconds <s> --trace <0|1> [--bin-dir <dir>] "
               "[--work-dir <dir>] [--transient 1]\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

int selftest() {
  const auto bad = perfbench::checker_selftest();
  for (const auto& b : bad) std::printf("selftest FAILED: %s\n", b.c_str());
  std::printf("checker selftest: %s\n", bad.empty() ? "every case judged right"
                                                    : "FAILED");
  return bad.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  a.bin_dir = ".";
  a.work_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") return selftest();
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--transient") {
      a.transient = std::strcmp(v, "1") == 0;
    } else if (k == "--bin-dir") {
      a.bin_dir = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage(argv[0]);
  ::mkdir(a.work_dir.c_str(), 0755);

  Result r;
  try {
    if (a.workload == "queue-16b") {
      r = run_queue(a);
    } else if (a.workload == "kv-ycsba-1k") {
      r = run_kv(a);
    } else if (a.workload == "server-ack-1k") {
      r = run_server(a);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // The checkers' self-test runs with every workload: a checker that
  // accepts a broken history would make every "correct" above meaningless.
  for (const auto& b : checker_selftest()) r.reject("checker self-test: " + b);
  print_result(a, r);
  return r.correct ? 0 : 1;
}
