/**
 * @file
 * rap_bench --compare: verdicts between two sets of runs.
 */

#ifndef RAP_BENCH_COMPARE_HPP
#define RAP_BENCH_COMPARE_HPP

#include <string>

namespace rapbench {

/**
 * Compare the runs recorded (with --out) in @p base_path and
 * @p change_path: for every (workload, end-to-end metric) print each
 * side's median and quartiles and a verdict against the bound
 * BENCHMARK.json (@p spec_path) fixes.
 * @return 1 when any verdict is "worse", else 0.
 */
int compareRuns(const std::string &spec_path, const std::string &base_path,
                const std::string &change_path);

} // namespace rapbench

#endif // RAP_BENCH_COMPARE_HPP
