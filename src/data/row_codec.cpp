#include "data/row_codec.hpp"

#include <charconv>
#include <system_error>

namespace rap::data {

namespace {

/** Split a line into tab-separated fields (always >= 1 field). */
std::vector<std::string_view>
splitFields(std::string_view line)
{
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    for (;;) {
        const auto tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

bool
parseId(std::string_view field, std::int64_t &value)
{
    const auto *begin = field.data();
    const auto *end = field.data() + field.size();
    const auto result = std::from_chars(begin, end, value);
    return result.ec == std::errc{} && result.ptr == end;
}

bool
parseDense(std::string_view field, float &value)
{
    const auto *begin = field.data();
    const auto *end = field.data() + field.size();
    const auto result = std::from_chars(begin, end, value);
    return result.ec == std::errc{} && result.ptr == end;
}

} // namespace

void
CriteoRow::clear()
{
    dense.clear();
    denseValid.clear();
    for (auto &ids : sparse)
        ids.clear();
}

bool
decodeCriteoRow(std::string_view line, const Schema &schema,
                CriteoRow &row, RowError &error)
{
    row.clear();
    if (row.sparse.size() != schema.sparseCount())
        row.sparse.resize(schema.sparseCount());
    if (line.find('\0') != std::string_view::npos) {
        error = {0, "embedded NUL byte in TSV row"};
        return false;
    }
    const auto fields = splitFields(line);
    if (fields.size() != schema.featureCount()) {
        error = {0, "has " + std::to_string(fields.size()) +
                        " fields, expected " +
                        std::to_string(schema.featureCount())};
        return false;
    }

    for (std::size_t f = 0; f < schema.denseCount(); ++f) {
        const auto field = fields[f];
        if (field.empty()) {
            row.dense.push_back(0.0f);
            row.denseValid.push_back(0);
            continue;
        }
        float value = 0.0f;
        if (!parseDense(field, value)) {
            error = {f, "malformed dense value in TSV field: '" +
                            std::string(field) + "'"};
            return false;
        }
        row.dense.push_back(value);
        row.denseValid.push_back(1);
    }
    for (std::size_t s = 0; s < schema.sparseCount(); ++s) {
        const auto field = fields[schema.denseCount() + s];
        auto &ids = row.sparse[s];
        std::size_t start = 0;
        while (!field.empty()) {
            const auto comma = field.find(',', start);
            const auto token =
                comma == std::string_view::npos
                    ? field.substr(start)
                    : field.substr(start, comma - start);
            std::int64_t id = 0;
            if (!parseId(token, id)) {
                error = {schema.denseCount() + s,
                         "malformed sparse id in TSV field: '" +
                             std::string(token) + "'"};
                return false;
            }
            ids.push_back(id);
            if (comma == std::string_view::npos)
                break;
            start = comma + 1;
        }
    }
    return true;
}

} // namespace rap::data
