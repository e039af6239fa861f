/**
 * @file
 * Logging and error-reporting primitives for the RAP library.
 *
 * Follows the gem5 convention: fatal() reports an unrecoverable *user*
 * error (bad configuration, invalid arguments) and exits with status 1;
 * panic() reports an internal invariant violation (a library bug) and
 * aborts so a core dump or debugger can be attached.
 */

#ifndef RAP_COMMON_LOG_HPP
#define RAP_COMMON_LOG_HPP

#include <sstream>
#include <string>

namespace rap {

/** Severity levels for runtime log messages. */
enum class LogLevel {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/**
 * Set the global minimum severity that will be emitted.
 *
 * @param level Messages below this level are suppressed.
 */
void setLogLevel(LogLevel level);

/** @return The current global minimum severity. */
LogLevel logLevel();

namespace detail {

/** Emit one formatted log line to stderr if @p level is enabled. */
void logMessage(LogLevel level, const std::string &msg);

/** Terminate due to a user-level configuration error (exit code 1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate due to an internal invariant violation (abort). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    ((oss << std::forward<Args>(args)), ...);
    return oss.str();
}

} // namespace detail

/** Log at Debug severity; arguments are streamed together. */
template <typename... Args>
void
logDebug(Args &&...args)
{
    detail::logMessage(LogLevel::Debug,
                       detail::concat(std::forward<Args>(args)...));
}

/** Log at Info severity; arguments are streamed together. */
template <typename... Args>
void
logInfo(Args &&...args)
{
    detail::logMessage(LogLevel::Info,
                       detail::concat(std::forward<Args>(args)...));
}

/** Log at Warn severity; arguments are streamed together. */
template <typename... Args>
void
logWarn(Args &&...args)
{
    detail::logMessage(LogLevel::Warn,
                       detail::concat(std::forward<Args>(args)...));
}

/** Log at Error severity; arguments are streamed together. */
template <typename... Args>
void
logError(Args &&...args)
{
    detail::logMessage(LogLevel::Error,
                       detail::concat(std::forward<Args>(args)...));
}

} // namespace rap

/**
 * Report an unrecoverable user error (bad configuration or arguments)
 * and exit with status 1.
 */
#define RAP_FATAL(...)                                                       \
    ::rap::detail::fatalImpl(__FILE__, __LINE__,                             \
                             ::rap::detail::concat(__VA_ARGS__))

/** Report an internal invariant violation (a RAP bug) and abort. */
#define RAP_PANIC(...)                                                       \
    ::rap::detail::panicImpl(__FILE__, __LINE__,                             \
                             ::rap::detail::concat(__VA_ARGS__))

/** Check an internal invariant; panics with the condition text on failure. */
#define RAP_ASSERT(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::rap::detail::panicImpl(                                        \
                __FILE__, __LINE__,                                          \
                ::rap::detail::concat("assertion failed: " #cond " ",       \
                                      ##__VA_ARGS__));                       \
        }                                                                    \
    } while (0)

#endif // RAP_COMMON_LOG_HPP
