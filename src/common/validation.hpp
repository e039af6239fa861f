/**
 * @file
 * Structured configuration validation: SystemConfig::validate(), the
 * fleet request, the fault spec and the ingest config report problems
 * as a list of (field, message) errors instead of asserting, so
 * callers — the RunRequest builder, bench flag parsing, fleet
 * admission, the ingest pipeline — can surface every problem at once
 * and decide whether to abort.
 */

#ifndef RAP_COMMON_VALIDATION_HPP
#define RAP_COMMON_VALIDATION_HPP

#include <string>
#include <utility>
#include <vector>

namespace rap {

/** One configuration problem, anchored to the offending field. */
struct ConfigError
{
    /** Field path, e.g. "envelopes[2].sm". */
    std::string field;
    std::string message;
};

/** Outcome of validating a configuration. */
class ValidationResult
{
  public:
    bool ok() const { return errors_.empty(); }

    const std::vector<ConfigError> &errors() const { return errors_; }

    void
    addError(std::string field, std::string message)
    {
        errors_.push_back(
            ConfigError{std::move(field), std::move(message)});
    }

    /**
     * Append @p other's errors with their fields nested under
     * @p prefix ("faults" + "events[0].time" -> "faults.events[0].time").
     * Takes the nested result by reference, so a temporary passed in
     * lives until the fold is done.
     */
    void
    addErrors(const std::string &prefix, const ValidationResult &other)
    {
        for (const auto &error : other.errors_)
            addError(prefix + "." + error.field, error.message);
    }

    /** @return All errors as "field: message" lines (one per error). */
    std::string
    render() const
    {
        std::string out;
        for (const auto &error : errors_) {
            if (!out.empty())
                out += "\n";
            out += error.field + ": " + error.message;
        }
        return out;
    }

  private:
    std::vector<ConfigError> errors_;
};

} // namespace rap

#endif // RAP_COMMON_VALIDATION_HPP
