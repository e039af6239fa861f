/**
 * @file
 * The JSON convention shared by every machine-read artifact in the
 * repo, and the writer helpers that implement it.
 *
 * Every serializable type provides
 *
 *   Json toJson() const;    // deterministic, exact
 *
 * and its top-level object carries a `schema` version token
 * ("rap.run_report.v1", "rap.fleet_report.v1", "rap.metrics.v1",
 * "rap.catalog.v1", ...) that the writer stamps first with
 * stampSchema.
 *
 * Reports and metrics snapshots are write-only: they are output
 * artifacts, compared as `toJson().dump()` bytes, never read back.
 * Only the genesis-record types a resumed fleet rebuilds from its
 * catalog also provide
 *
 *   static T fromJson(const Json &);    // fatal on bad shape
 *
 * namely JobSpec, the fleet options (PlacementOptions, ClusterSpec,
 * GpuSpec, FaultSpec, FaultEvent, RetryPolicy) and the
 * fleetOptionsFromJson that assembles them; for those,
 * fromJson(toJson(x)) == x exactly.
 *
 * Field conventions:
 *  - doubles serialize through common/json.hpp's shortest-round-trip
 *    writer, so every written double parses back to the exact value
 *    — resume determinism and CI byte-diffs depend on this;
 *  - 64-bit seeds either carry a 53-bit mask applied at synthesis or
 *    travel as decimal strings (sim/spec_json.cpp);
 *  - optional fields serialize as explicit JSON null when absent
 *    ("never measured"), which is distinct from a measured zero.
 *
 * The helpers live in common so every module that serializes writes
 * the same dialect.
 */

#ifndef RAP_COMMON_SERIAL_HPP
#define RAP_COMMON_SERIAL_HPP

#include <optional>
#include <string>

#include "common/json.hpp"

namespace rap::serial {

/** Stamp @p token as the object's leading `schema` member. */
inline void
stampSchema(Json &json, const char *token)
{
    json.set("schema", Json(token));
}

/** Write an optional as its value or explicit null. */
inline void
setOptionalNumber(Json &json, const std::string &key,
                  const std::optional<double> &value)
{
    json.set(key, value ? Json(*value) : Json());
}

} // namespace rap::serial

#endif // RAP_COMMON_SERIAL_HPP
