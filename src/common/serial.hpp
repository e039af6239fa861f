/**
 * @file
 * The JsonSerializable round-trip convention shared by every
 * machine-read artifact in the repo, and the helpers that implement it.
 *
 * A serializable type provides
 *
 *   Json     toJson() const;            // deterministic, exact
 *   static T fromJson(const Json &);    // fatal on bad shape
 *
 * and its top-level object carries a `schema` version token
 * ("rap.run_report.v1", "rap.fleet_report.v1", "rap.metrics.v1",
 * "rap.catalog.v1", ...). toJson stamps the token first with
 * stampSchema; fromJson checks it with requireSchema, which tolerates
 * an *absent* token — artifacts written before the convention existed
 * — but rejects a mismatched one, so a v2 payload can never be
 * silently misread as v1.
 *
 * Field conventions:
 *  - doubles serialize through common/json.hpp's shortest-round-trip
 *    writer, so fromJson(toJson(x)) == x exactly — resume determinism
 *    and CI byte-diffs depend on this;
 *  - 64-bit seeds either carry a 53-bit mask applied at synthesis or
 *    travel as decimal strings (sim/spec_json.cpp);
 *  - optional fields serialize as explicit JSON null when absent and
 *    are read with the find()-based helpers: absent and null both
 *    mean "never measured" (std::nullopt), which is distinct from a
 *    measured zero. Reading an optional with at() — fatal on absence
 *    — is the dialect bug this convention retires.
 *
 * The helpers live in common so every module that serializes — obs's
 * metrics snapshot, sim's hardware specs, core and fleet reports, the
 * ctrl catalog — writes the same dialect.
 */

#ifndef RAP_COMMON_SERIAL_HPP
#define RAP_COMMON_SERIAL_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"

namespace rap::serial {

/** Stamp @p token as the object's leading `schema` member. */
inline void
stampSchema(Json &json, const char *token)
{
    json.set("schema", Json(token));
}

/**
 * Check the object's `schema` member against @p token. Absent tokens
 * pass (pre-convention artifacts); mismatched tokens are fatal.
 */
inline void
requireSchema(const Json &json, const char *token)
{
    if (!json.isObject())
        RAP_FATAL(token, " payload must be a JSON object");
    const Json *schema = json.find("schema");
    if (schema != nullptr && schema->asString() != token) {
        RAP_FATAL("expected schema '", token, "', found '",
                  schema->asString(), "'");
    }
}

/** Absent-tolerant optional read: missing or null -> nullopt. */
inline std::optional<double>
getOptionalNumber(const Json &json, const std::string &key)
{
    const Json *value = json.find(key);
    if (value == nullptr || value->isNull())
        return std::nullopt;
    return value->asDouble();
}

/** Write an optional as its value or explicit null. */
inline void
setOptionalNumber(Json &json, const std::string &key,
                  const std::optional<double> &value)
{
    json.set(key, value ? Json(*value) : Json());
}

/** Required numeric reads with the integral casts spelled once. */
inline double
getNumber(const Json &json, const std::string &key)
{
    return json.at(key).asDouble();
}

inline int
getInt(const Json &json, const std::string &key)
{
    return static_cast<int>(json.at(key).asDouble());
}

inline std::int64_t
getInt64(const Json &json, const std::string &key)
{
    return static_cast<std::int64_t>(json.at(key).asDouble());
}

inline std::uint64_t
getUint64(const Json &json, const std::string &key)
{
    return static_cast<std::uint64_t>(json.at(key).asDouble());
}

} // namespace rap::serial

#endif // RAP_COMMON_SERIAL_HPP
