/**
 * @file
 * The child side of rap_bench: one pass of one workload.
 */

#ifndef RAP_BENCH_PASS_HPP
#define RAP_BENCH_PASS_HPP

#include <string>

#include "suite.hpp"

namespace rapbench {

struct PassOptions
{
    std::string workload;
    PassContext context;
    /** Record spans and counters, run probes, write the trace. */
    bool traced = false;
    std::string traceDir;
};

/**
 * Run one pass and print its JSON document on stdout. @p main_entry is
 * steadyNow() at main() entry: set-up time runs from there until the
 * workload's inputs are built.
 * @return The process exit code.
 */
int runPass(const PassOptions &options, double main_entry);

} // namespace rapbench

#endif // RAP_BENCH_PASS_HPP
