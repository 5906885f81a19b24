// perfbench: runs one workload once and prints one JSON object.
//
//   perfbench --workload lookup|churn --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 1 records spans and adds the per-layer metrics; --trace-out
// writes the spans as TSV.
// run.py builds this binary and reduces its output to the benchmark's
// result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workload.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload lookup|churn "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') usage((std::string("bad ") + flag).c_str());
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = parse_u64("--seed", v);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args.seconds > 0.0))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      args.trace = parse_u64("--trace", v) != 0;
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "lookup" && args.workload != "churn")
    usage("--workload must be lookup or churn");

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  try {
    if (args.workload == "lookup")
      perfbench::run_lookup(args, tracer, report);
    else
      perfbench::run_churn(args, tracer, report);
  } catch (const std::exception& e) {
    ++report.failed;
    report.fail_check(std::string("run aborted: ") + e.what());
  }
  report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  if (args.trace && !trace_out.empty() && !tracer.write_tsv(trace_out))
    report.fail_check("cannot write spans to " + trace_out);
  std::printf("%s\n", report.json(args.workload, args.seed, args.trace).c_str());
  return 0;
}
