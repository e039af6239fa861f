#include "data/criteo_tsv.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/log.hpp"
#include "data/row_codec.hpp"

namespace rap::data {

void
writeCriteoTsv(std::ostream &out, const RecordBatch &batch)
{
    for (std::size_t r = 0; r < batch.rows(); ++r) {
        for (std::size_t f = 0; f < batch.denseCount(); ++f) {
            if (f > 0)
                out << '\t';
            const auto &col = batch.dense(f);
            if (col.isValid(r))
                out << col.value(r);
        }
        for (std::size_t s = 0; s < batch.sparseCount(); ++s) {
            out << '\t';
            const auto &col = batch.sparse(s);
            for (std::size_t i = 0; i < col.listLength(r); ++i) {
                if (i > 0)
                    out << ',';
                out << col.value(r, i);
            }
        }
        out << '\n';
    }
}

TsvReadResult
readCriteoTsvChecked(std::istream &in, const Schema &schema,
                     std::size_t max_rows)
{
    std::vector<std::vector<float>> dense_values(schema.denseCount());
    std::vector<std::vector<std::uint8_t>> dense_valid(
        schema.denseCount());
    std::vector<SparseColumn> sparse_cols(schema.sparseCount());

    TsvReadResult result;
    std::string line;
    std::size_t committed = 0;
    // Row staging (data/row_codec.hpp): decode into a reusable
    // CriteoRow and commit to the column builders only once the whole
    // row is clean, so a malformed field never leaves a partial row
    // behind.
    CriteoRow staged;
    RowError error;

    while ((max_rows == 0 || committed < max_rows) &&
           std::getline(in, line)) {
        // CRLF input: getline keeps the '\r', which would otherwise
        // corrupt the last field.
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        const std::size_t row = result.rowsScanned++;
        if (!decodeCriteoRow(line, schema, staged, error)) {
            result.errors.push_back(
                {row, error.field, std::move(error.message)});
            continue;
        }

        for (std::size_t f = 0; f < schema.denseCount(); ++f) {
            dense_values[f].push_back(staged.dense[f]);
            dense_valid[f].push_back(staged.denseValid[f]);
        }
        for (std::size_t s = 0; s < schema.sparseCount(); ++s)
            sparse_cols[s].appendRow(staged.sparse[s]);
        ++committed;
    }

    RecordBatch batch(schema, committed);
    for (std::size_t f = 0; f < schema.denseCount(); ++f) {
        batch.setDense(f, DenseColumn(std::move(dense_values[f]),
                                      std::move(dense_valid[f])));
    }
    for (std::size_t s = 0; s < schema.sparseCount(); ++s)
        batch.setSparse(s, std::move(sparse_cols[s]));
    result.batch = std::move(batch);
    return result;
}

RecordBatch
readCriteoTsv(std::istream &in, const Schema &schema,
              std::size_t max_rows)
{
    auto result = readCriteoTsvChecked(in, schema, max_rows);
    if (!result.ok()) {
        const auto &e = result.errors.front();
        RAP_FATAL("TSV row ", e.row, " ", e.message);
    }
    return std::move(result.batch);
}

void
writeCriteoTsvFile(const std::string &path, const RecordBatch &batch)
{
    std::ofstream out(path);
    if (!out)
        RAP_FATAL("cannot open TSV file for writing: ", path);
    writeCriteoTsv(out, batch);
    if (!out)
        RAP_FATAL("failed writing TSV file: ", path);
}

RecordBatch
readCriteoTsvFile(const std::string &path, const Schema &schema,
                  std::size_t max_rows)
{
    std::ifstream in(path);
    if (!in)
        RAP_FATAL("cannot open TSV file for reading: ", path);
    return readCriteoTsv(in, schema, max_rows);
}

} // namespace rap::data
