/**
 * @file
 * Shared helpers for the figure/table bench harnesses.
 *
 * Every bench parses its command line through bench::ArgParser, which
 * pre-registers the flags common to the whole suite:
 *
 *   --jobs N / -j N   worker threads for independent sweep points
 *                     (0 = all hardware threads; default 1)
 *   --tiny            smaller sweep for CI determinism jobs
 *   --metrics PATH    deterministic metrics-snapshot JSON output
 *                     (unless the bench writes no metrics)
 *
 * plus --help. A bench registers any other flag itself (bench_fig09
 * and bench_fleet take `--trace PREFIX` for Chrome traces), so every
 * flag a bench accepts does something. Unknown flags are an error
 * (exit 1) unless the bench opts into allowUnknown() — the
 * google-benchmark mains do, and hand the unconsumed arguments on
 * via remainingArgv(). So is an integer flag whose value is not a
 * whole integer or falls below the flag's registered minimum.
 *
 * Output stays deterministic: sweep points are computed into
 * submission-indexed slots and rendered in point order, so `--jobs 8`
 * prints byte-identical tables — and writes byte-identical metrics
 * snapshots — to a serial run.
 */

#ifndef RAP_BENCH_COMMON_HPP
#define RAP_BENCH_COMMON_HPP

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace rap::bench {

/**
 * Typed command-line parser for the bench suite. Flags accept both
 * `--flag value` and `--flag=value`; booleans take no value. Values
 * registered with addInt/addString/addFlag live as long as the parser,
 * so call sites keep plain references.
 */
class ArgParser
{
  public:
    /** Whether the bench writes a `--metrics` snapshot. */
    enum class Metrics { Written, None };

    /**
     * @param program Bench name for the usage line ("bench_fig09...").
     * @param summary One-line description printed by --help.
     * @param metrics Metrics::None leaves `--metrics` unregistered,
     *        so passing it is an unknown-flag error.
     */
    ArgParser(std::string program, std::string summary,
              Metrics metrics = Metrics::Written)
        : program_(std::move(program)), summary_(std::move(summary))
    {
        jobs_ = &addInt("--jobs", 1,
                        "worker threads for sweep points "
                        "(0 = all hardware threads; alias -j)",
                        0);
        tiny_ = &addFlag("--tiny", "smaller sweep (CI mode)");
        if (metrics == Metrics::Written) {
            metrics_ = &addString("--metrics", "",
                                  "metrics snapshot JSON output path");
        }
    }

    /** Register a boolean flag; @return its (false-initial) storage. */
    bool &
    addFlag(const std::string &name, std::string help)
    {
        auto &opt = emplace(name, Kind::Flag, std::move(help));
        return opt.flagValue;
    }

    /**
     * Register an integer option; @return its storage. A value that
     * is not a whole integer, or is below @p minimum, exits 1 naming
     * the flag.
     */
    int &
    addInt(const std::string &name, int fallback, std::string help,
           int minimum = std::numeric_limits<int>::min())
    {
        auto &opt = emplace(name, Kind::Int, std::move(help));
        opt.intValue = fallback;
        opt.minimum = minimum;
        return opt.intValue;
    }

    /** Register a string option; @return its storage. */
    std::string &
    addString(const std::string &name, std::string fallback,
              std::string help)
    {
        auto &opt = emplace(name, Kind::String, std::move(help));
        opt.stringValue = std::move(fallback);
        return opt.stringValue;
    }

    /**
     * Register an optional positional argument (consumed in
     * registration order); @return its (empty-initial) storage.
     */
    std::string &
    addPositional(std::string name, std::string help)
    {
        positionals_.push_back(std::make_unique<Positional>());
        positionals_.back()->name = std::move(name);
        positionals_.back()->help = std::move(help);
        return positionals_.back()->value;
    }

    /**
     * Collect unrecognised arguments into remainingArgv() instead of
     * erroring — for mains that forward to another argument consumer
     * (google-benchmark).
     */
    void allowUnknown() { allowUnknown_ = true; }

    /** Parse @p argv; exits on --help (0) or an unknown flag (1). */
    void
    parse(int argc, char **argv)
    {
        if (argc > 0)
            remaining_.push_back(argv[0]);
        std::size_t next_positional = 0;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::cout << usage();
                std::exit(0);
            }
            Option *opt = match(arg);
            if (opt != nullptr) {
                if (opt->kind == Kind::Flag) {
                    opt->flagValue = true;
                    continue;
                }
                std::string value;
                const auto eq = arg.find('=');
                if (eq != std::string::npos) {
                    value = arg.substr(eq + 1);
                } else {
                    if (i + 1 >= argc)
                        RAP_FATAL(arg, " requires a value");
                    value = argv[++i];
                }
                if (opt->kind == Kind::Int)
                    opt->intValue = parseInt(*opt, value);
                else
                    opt->stringValue = value;
                continue;
            }
            if (arg.rfind("-", 0) == 0) {
                if (allowUnknown_) {
                    remaining_.push_back(arg);
                    continue;
                }
                RAP_FATAL(program_, ": unknown flag '", arg,
                          "' (try --help)");
            }
            if (next_positional < positionals_.size()) {
                positionals_[next_positional++]->value = arg;
                continue;
            }
            if (allowUnknown_) {
                remaining_.push_back(arg);
                continue;
            }
            RAP_FATAL(program_, ": unexpected argument '", arg,
                      "' (try --help)");
        }
    }

    /** @return Thread count for the sweep pool (0 ⇒ hardware). */
    int
    jobThreads() const
    {
        return *jobs_ == 0 ? ThreadPool::hardwareThreads() : *jobs_;
    }

    bool tiny() const { return *tiny_; }

    const std::string &
    metricsPath() const
    {
        RAP_ASSERT(metrics_ != nullptr, program_, " writes no metrics");
        return *metrics_;
    }

    /**
     * @return argv (program name + unconsumed arguments) for handing
     * to a downstream consumer; valid while the parser lives.
     */
    std::vector<char *>
    remainingArgv()
    {
        std::vector<char *> argv;
        for (auto &arg : remaining_)
            argv.push_back(arg.data());
        return argv;
    }

    /** @return The --help text (usage line plus one row per flag). */
    std::string
    usage() const
    {
        std::string text = "usage: " + program_ + " [flags]";
        for (const auto &pos : positionals_)
            text += " [" + pos->name + "]";
        text += "\n  " + summary_ + "\n\nflags:\n";
        for (const auto &opt : options_) {
            std::string line = "  " + opt->name;
            if (opt->name == "--jobs")
                line += " (-j)";
            if (opt->kind != Kind::Flag)
                line += " <value>";
            line += "\n      " + opt->help + "\n";
            text += line;
        }
        text += "  --help\n      print this message\n";
        for (const auto &pos : positionals_) {
            text += "\npositional " + pos->name + ": " + pos->help +
                    "\n";
        }
        return text;
    }

  private:
    enum class Kind { Flag, Int, String };

    struct Option
    {
        std::string name;
        std::string help;
        Kind kind = Kind::Flag;
        bool flagValue = false;
        int intValue = 0;
        int minimum = 0;
        std::string stringValue;
    };

    struct Positional
    {
        std::string name;
        std::string help;
        std::string value;
    };

    static int
    parseInt(const Option &opt, const std::string &value)
    {
        int parsed = 0;
        const char *end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
        if (ec != std::errc() || ptr != end)
            RAP_FATAL(opt.name, " needs an integer, got '", value, "'");
        if (parsed < opt.minimum)
            RAP_FATAL(opt.name, " must be >= ", opt.minimum, ", got ",
                      parsed);
        return parsed;
    }

    Option &
    emplace(const std::string &name, Kind kind, std::string help)
    {
        RAP_ASSERT(name.rfind("--", 0) == 0,
                   "bench flags must start with --, got '", name, "'");
        RAP_ASSERT(match(name) == nullptr, "duplicate bench flag '",
                   name, "'");
        options_.push_back(std::make_unique<Option>());
        auto &opt = *options_.back();
        opt.name = name;
        opt.kind = kind;
        opt.help = std::move(help);
        return opt;
    }

    Option *
    match(const std::string &arg)
    {
        for (auto &opt : options_) {
            if (arg == opt->name ||
                arg.rfind(opt->name + "=", 0) == 0)
                return opt.get();
        }
        if (arg == "-j" || arg.rfind("-j=", 0) == 0) {
            for (auto &opt : options_) {
                if (opt->name == "--jobs")
                    return opt.get();
            }
        }
        return nullptr;
    }

    std::string program_;
    std::string summary_;
    std::vector<std::unique_ptr<Option>> options_;
    std::vector<std::unique_ptr<Positional>> positionals_;
    std::vector<std::string> remaining_;
    bool allowUnknown_ = false;
    int *jobs_ = nullptr;
    bool *tiny_ = nullptr;
    std::string *metrics_ = nullptr;
};

/**
 * Emit the deterministic metrics snapshot when the user passed
 * `--metrics <path>`; no-op otherwise. Call once, after the sweep.
 */
inline void
maybeWriteMetrics(const ArgParser &args,
                  const obs::MetricRegistry &registry)
{
    if (!args.metricsPath().empty())
        obs::writeSnapshot(registry, args.metricsPath());
}

/** Monotonic stopwatch for the `[wall]` stderr lines. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** @return Milliseconds since construction. */
    double
    elapsedMs() const
    {
        const auto dt = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double, std::milli>(dt).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace rap::bench

#endif // RAP_BENCH_COMMON_HPP
