// Reproduces Figure 1: average elapsed minutes of failed jobs per week,
// per failure type, over 27 weeks, plus the overall mean (the red dashed
// line).  Paper's qualitative features: jobs run >1 hour before failing on
// average; Timeout/Node Fail spike to 2-3 hours in some weeks; failures
// occur every single week.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "trace/failure_analyzer.hpp"
#include "trace/log_generator.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  const bench::Args args(argc, argv);

  trace::LogGeneratorParams params;
  params.total_jobs = static_cast<std::uint32_t>(
      args.get_int("jobs", params.total_jobs));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20240101));
  args.finish();

  const trace::FailureAnalyzer analyzer(trace::generate_log(params));
  const auto rows = analyzer.weekly_elapsed(params.weeks);
  const double overall = analyzer.overall_failure_elapsed_mean();

  TextTable table({"Week", "JOB_FAIL (min)", "TIMEOUT (min)",
                   "NODE_FAIL (min)", "Overall (min)", "Failed jobs"});
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.week + 1),
                   format_double(row.job_fail_mean, 1),
                   format_double(row.timeout_mean, 1),
                   format_double(row.node_fail_mean, 1),
                   format_double(row.overall_mean, 1),
                   std::to_string(row.failed_jobs)});
  }
  bench::print_table(
      "Figure 1: avg elapsed time of failed jobs per week (27 weeks)",
      table);

  double spike_weeks = 0;
  for (const auto& row : rows) {
    if (row.timeout_mean > 120.0 || row.node_fail_mean > 120.0) {
      ++spike_weeks;
    }
  }
  std::printf(
      "overall mean elapsed before failure: %s min (paper: >60 min, ~75)\n"
      "weeks where TIMEOUT/NODE_FAIL means exceed 2 hours: %.0f "
      "(paper: several)\n",
      format_double(overall, 1).c_str(), spike_weeks);
  return 0;
}
