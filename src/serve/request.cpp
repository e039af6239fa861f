#include "serve/request.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace rap::serve {

double
rateAt(const RequestTraceOptions &options, Seconds t)
{
    return options.qps *
           (1.0 + options.qpsAmplitude *
                      std::sin(2.0 * M_PI * t / options.qpsPeriod));
}

std::vector<Seconds>
makeRequestTrace(const RequestTraceOptions &options)
{
    RAP_ASSERT(options.qps > 0.0, "request trace needs a positive QPS");
    RAP_ASSERT(options.qpsAmplitude >= 0.0 && options.qpsAmplitude < 1.0,
               "QPS amplitude must be in [0, 1) so the rate stays "
               "positive");
    RAP_ASSERT(options.qpsPeriod > 0.0,
               "QPS modulation needs a positive period");
    RAP_ASSERT(options.duration > 0.0,
               "request trace needs a positive duration");

    // Lewis-Shedler thinning against the peak rate; the step is shared
    // with the ingest emitters.
    const double rate_max = options.qps * (1.0 + options.qpsAmplitude);
    Rng rng(options.seed);
    std::vector<Seconds> arrivals;
    arrivals.reserve(static_cast<std::size_t>(
        options.qps * options.duration * 1.25) + 16);
    const auto rate = [&options](Seconds t) { return rateAt(options, t); };
    Seconds clock = 0.0;
    while (nextThinnedArrival(rng, rate_max, rate, options.duration, clock))
        arrivals.push_back(clock);
    return arrivals;
}

} // namespace rap::serve
