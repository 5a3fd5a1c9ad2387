// gz_perfbench: runs one benchmark workload and prints, as the last
// stdout line, {"correct", "attempted", "failed", "metrics"}. Human-
// readable parameters, the trace summary and failures go to stderr.
//
//   gz_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR --trace-out FILE
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, from spans recorded around this program's calls into the
// library and written to --trace-out. Only measured metrics are printed:
// run.py checks them against BENCHMARK.json, the one list of metric names,
// and fills in 0 for the per-layer metrics of layers a workload leaves idle.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gz_perfbench --workload "
               "ingest_dense|ingest_disk|serve_mixed\n"
               "       --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--trace-out FILE\n");
  return 2;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      options.work_dir.empty() || options.trace_path.empty()) {
    return Usage();
  }
  if (::mkdir(options.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  if (options.trace) ::unlink(options.trace_path.c_str());
  std::fprintf(stderr, "workload=%s seed=%llu seconds=%g trace=%d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0);

  perfbench::Report report;
  if (options.workload == "ingest_dense") {
    perfbench::RunIngest(options, /*on_disk=*/false, &report);
  } else if (options.workload == "ingest_disk") {
    perfbench::RunIngest(options, /*on_disk=*/true, &report);
  } else if (options.workload == "serve_mixed") {
    perfbench::RunServeMixed(options, &report);
  } else {
    return Usage();
  }

  // Clean teardown: no child process and no backing file may outlive
  // the workload.
  int status = 0;
  const pid_t child = ::waitpid(-1, &status, WNOHANG);
  if (child != -1 || errno != ECHILD) {
    report.Fail("a child process outlived the workload");
  }
  for (const std::string& name : ListDir(options.work_dir)) {
    report.Fail("left behind in the work directory: " + name);
    ::unlink((options.work_dir + "/" + name).c_str());
  }
  ::rmdir(options.work_dir.c_str());

  std::fprintf(stderr, "ops_failed_ratio=%g (%llu failed of %llu attempted)\n",
               double(report.failed()) /
                   double(std::max<uint64_t>(report.attempted(), 1)),
               static_cast<unsigned long long>(report.failed()),
               static_cast<unsigned long long>(report.attempted()));
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
