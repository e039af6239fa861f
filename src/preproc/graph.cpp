#include "preproc/graph.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <string>

#include "common/log.hpp"

namespace rap::preproc {

PreprocGraph::PreprocGraph(data::Schema schema)
    : schema_(std::move(schema))
{
}

int
PreprocGraph::addNode(OpNode node)
{
    const int id = static_cast<int>(nodes_.size());
    node.id = id;
    for (int dep : node.deps) {
        RAP_ASSERT(dep >= 0 && dep < id,
                   "node dependency must reference an earlier node");
    }
    nodes_.push_back(std::move(node));
    return id;
}

const OpNode &
PreprocGraph::node(int id) const
{
    RAP_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
               "node id out of range: ", id);
    return nodes_[static_cast<std::size_t>(id)];
}

std::vector<int>
PreprocGraph::topoOrder() const
{
    // Nodes are appended with deps referencing earlier ids, so identity
    // order is already topological; still verify via indegree counting
    // so hand-built graphs are checked.
    const std::size_t n = nodes_.size();
    std::vector<int> indegree(n, 0);
    std::vector<std::vector<int>> out(n);
    for (const auto &node : nodes_) {
        for (int dep : node.deps) {
            out[static_cast<std::size_t>(dep)].push_back(node.id);
            ++indegree[static_cast<std::size_t>(node.id)];
        }
    }
    std::queue<int> ready;
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0)
            ready.push(static_cast<int>(i));
    }
    std::vector<int> order;
    order.reserve(n);
    while (!ready.empty()) {
        const int id = ready.front();
        ready.pop();
        order.push_back(id);
        for (int next : out[static_cast<std::size_t>(id)]) {
            if (--indegree[static_cast<std::size_t>(next)] == 0)
                ready.push(next);
        }
    }
    RAP_ASSERT(order.size() == n, "preprocessing graph contains a cycle");
    return order;
}

std::vector<int>
PreprocGraph::featureNodes(int feature_id) const
{
    std::vector<int> result;
    for (int id : topoOrder()) {
        if (nodes_[static_cast<std::size_t>(id)].featureId == feature_id)
            result.push_back(id);
    }
    return result;
}

std::vector<int>
PreprocGraph::featureIds() const
{
    std::set<int> ids;
    for (const auto &node : nodes_)
        ids.insert(node.featureId);
    return {ids.begin(), ids.end()};
}

std::vector<std::vector<bool>>
PreprocGraph::reachability() const
{
    const std::size_t n = nodes_.size();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (int id : topoOrder()) {
        auto &row = reach[static_cast<std::size_t>(id)];
        for (int dep : nodes_[static_cast<std::size_t>(id)].deps) {
            row[static_cast<std::size_t>(dep)] = true;
            const auto &dep_row = reach[static_cast<std::size_t>(dep)];
            for (std::size_t j = 0; j < n; ++j) {
                if (dep_row[j])
                    row[j] = true;
            }
        }
    }
    return reach;
}

double
PreprocGraph::opsPerFeature() const
{
    const auto features = featureIds();
    if (features.empty())
        return 0.0;
    return static_cast<double>(nodes_.size()) /
           static_cast<double>(features.size());
}

ValidationResult
PreprocGraph::validate() const
{
    ValidationResult result;
    auto field = [](const OpNode &node, const std::string &member) {
        return "nodes[" + std::to_string(node.id) + "]." + member;
    };
    for (const auto &node : nodes_) {
        if (node.inputs.empty())
            result.addError(field(node, "inputs"), "node has no inputs");
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            const auto &input = node.inputs[i];
            const bool sparse = input.kind == data::FeatureKind::Sparse;
            const std::size_t count =
                sparse ? schema_.sparseCount() : schema_.denseCount();
            if (input.index >= count) {
                result.addError(
                    field(node, "inputs[" + std::to_string(i) + "]"),
                    std::string(sparse ? "sparse" : "dense") +
                        " column " + std::to_string(input.index) +
                        " is out of range; the schema has " +
                        std::to_string(count));
            }
        }
        if (node.featureId < 0 ||
            static_cast<std::size_t>(node.featureId) >=
                schema_.featureCount()) {
            result.addError(field(node, "featureId"),
                            "feature id " + std::to_string(node.featureId) +
                                " is out of range [0, " +
                                std::to_string(schema_.featureCount()) +
                                ")");
        }
    }
    return result;
}

PreprocGraph
PreprocGraph::subgraphForFeatures(const std::vector<int> &feature_ids) const
{
    const std::set<int> wanted(feature_ids.begin(), feature_ids.end());

    // Seed with the nodes of the wanted features, then close over deps.
    std::vector<bool> keep(nodes_.size(), false);
    for (const auto &node : nodes_) {
        if (wanted.count(node.featureId))
            keep[static_cast<std::size_t>(node.id)] = true;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &node : nodes_) {
            if (!keep[static_cast<std::size_t>(node.id)])
                continue;
            for (int dep : node.deps) {
                if (!keep[static_cast<std::size_t>(dep)]) {
                    keep[static_cast<std::size_t>(dep)] = true;
                    changed = true;
                }
            }
        }
    }

    PreprocGraph sub(schema_);
    std::vector<int> remap(nodes_.size(), -1);
    for (int id : topoOrder()) {
        if (!keep[static_cast<std::size_t>(id)])
            continue;
        OpNode copy = nodes_[static_cast<std::size_t>(id)];
        for (auto &dep : copy.deps)
            dep = remap[static_cast<std::size_t>(dep)];
        copy.id = -1;
        remap[static_cast<std::size_t>(id)] = sub.addNode(std::move(copy));
    }
    return sub;
}

std::vector<std::size_t>
PreprocGraph::opTypeHistogram() const
{
    std::vector<std::size_t> histogram(kOpTypeCount, 0);
    for (const auto &node : nodes_)
        ++histogram[static_cast<std::size_t>(node.type)];
    return histogram;
}

} // namespace rap::preproc
