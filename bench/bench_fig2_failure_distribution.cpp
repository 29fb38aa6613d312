// Reproduces Figure 2: distribution of failure types by (a) node count and
// (b) elapsed time.  Paper's qualitative features: Node Fail share rises
// with node count — 46.04% in the 7,750-9,300 bucket, 78.60% together with
// Timeout — while elapsed time barely changes the type mix.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "trace/failure_analyzer.hpp"
#include "trace/log_generator.hpp"

namespace {

void print_share_table(const std::string& title,
                       const std::vector<ftc::trace::TypeShareRow>& rows,
                       const char* bucket_name) {
  ftc::TextTable table({bucket_name, "Failures", "JOB_FAIL %", "TIMEOUT %",
                        "NODE_FAIL %", "NF+TO %"});
  for (const auto& row : rows) {
    table.add_row(
        {ftc::format_double(row.bucket_low, 0) + "-" +
             ftc::format_double(row.bucket_high, 0),
         std::to_string(row.failures),
         ftc::format_double(100.0 * row.job_fail_share, 2),
         ftc::format_double(100.0 * row.timeout_share, 2),
         ftc::format_double(100.0 * row.node_fail_share, 2),
         ftc::format_double(
             100.0 * (row.node_fail_share + row.timeout_share), 2)});
  }
  ftc::bench::print_table(title, table);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftc;
  const bench::Args args(argc, argv);

  trace::LogGeneratorParams params;
  params.total_jobs = static_cast<std::uint32_t>(
      args.get_int("jobs", params.total_jobs));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20240101));
  args.finish();

  const trace::FailureAnalyzer analyzer(trace::generate_log(params));

  const auto by_nodes = analyzer.by_node_count(
      trace::default_node_count_edges());
  print_share_table("Figure 2(a): failure types by node count", by_nodes,
                    "Nodes");
  if (!by_nodes.empty()) {
    const auto& top = by_nodes.back();
    std::printf(
        "top bucket (7750+): NODE_FAIL %s%% (paper: 46.04%%), "
        "NODE_FAIL+TIMEOUT %s%% (paper: 78.60%%)\n",
        format_double(100.0 * top.node_fail_share, 2).c_str(),
        format_double(100.0 * (top.node_fail_share + top.timeout_share), 2)
            .c_str());
  }

  print_share_table(
      "Figure 2(b): failure types by elapsed time (minutes)",
      analyzer.by_elapsed(trace::default_elapsed_edges()), "Elapsed");
  std::printf(
      "paper: elapsed-time buckets show no strong trend in type mix\n");
  return 0;
}
