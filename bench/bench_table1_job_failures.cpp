// Reproduces Table I: six-month job-failure breakdown on Frontier.
//
// The raw sacct logs are not public; a synthetic log calibrated to the
// published aggregates is generated and the paper's analysis (cancel
// filtering, type classification) runs over it.  Paper targets: 181,933
// jobs, 25.04% failed; failure mix 52.50% Job Fail / 44.92% Timeout /
// 2.58% Node Fail.
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

  const auto log = trace::generate_log(params);
  const trace::FailureAnalyzer analyzer(log);
  const trace::Table1Summary summary = analyzer.table1();

  TextTable table({"Type", "Count", "Failure ratio", "Overall ratio"});
  auto pct = [](double x) { return format_double(100.0 * x, 2) + "%"; };
  table.add_row({"Total Jobs", std::to_string(summary.total_jobs), "N/A",
                 "100%"});
  table.add_row({"Total Failures", std::to_string(summary.total_failures),
                 "100%", pct(summary.failure_ratio())});
  table.add_row({"Node Fail", std::to_string(summary.node_fail),
                 pct(summary.share_of_failures(summary.node_fail)),
                 pct(static_cast<double>(summary.node_fail) /
                     summary.total_jobs)});
  table.add_row({"Timeout", std::to_string(summary.timeout),
                 pct(summary.share_of_failures(summary.timeout)),
                 pct(static_cast<double>(summary.timeout) /
                     summary.total_jobs)});
  table.add_row({"Job Fail", std::to_string(summary.job_fail),
                 pct(summary.share_of_failures(summary.job_fail)),
                 pct(static_cast<double>(summary.job_fail) /
                     summary.total_jobs)});
  bench::print_table(
      "Table I: job failures over six months (synthetic, calibrated)",
      table);

  std::printf(
      "paper reference: 181,933 jobs; failures 45,556 (25.04%%); "
      "Node Fail 2.58%% / Timeout 44.92%% / Job Fail 52.50%% of failures\n"
      "node-failure class (Node Fail + Timeout): %s%% of failures "
      "(paper: ~47.5%%)\n"
      "cancelled jobs excluded by the analyzer: %zu\n",
      format_double(100.0 * summary.node_failure_class_share(), 2).c_str(),
      analyzer.excluded_jobs());
  return 0;
}
