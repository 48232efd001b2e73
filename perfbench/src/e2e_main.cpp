// End-to-end benchmark command: runs one workload with tracing off,
// checks every slot's output and prints the five end-to-end metrics.
//
//   perfbench_e2e --workload flat-400|gan-fig6|serve-30k --seed N --seconds S
#include <iostream>

#include "checks.h"
#include "harness.h"

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::Hooks no_tracing;
  perfbench::Result res;
  try {
    res = perfbench::run_workload(args, no_tracing);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  const std::vector<std::string> broken_checks = perfbench::checks::self_test();
  for (const std::string& b : broken_checks) {
    std::cerr << "perfbench: self-test: " << b << "\n";
    res.errors.push_back("self-test: " + b);
  }
  for (const std::string& e : res.errors) std::cerr << "perfbench: " << e << "\n";

  const double mean_delay =
      res.delay_slots > 0 ? res.delay_sum_ms / static_cast<double>(res.delay_slots) : 0.0;
  const double rate =
      res.slot_wall_s > 0.0 ? static_cast<double>(res.timed_slots) / res.slot_wall_s : 0.0;
  perfbench::print_report(
      args, res, res.failed == 0 && broken_checks.empty(),
      {{"setup_s", res.setup_s, "s"},
       {"slots_per_s", rate, "slots/s"},
       {"decide_ms_p50", perfbench::quantile(res.decide_ms, 0.5), "ms"},
       {"mean_delay_ms", mean_delay, "ms"},
       {"peak_rss_mb", res.peak_rss_mb, "MB"}});
  return 0;
}
