#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string_view>
#include <vector>

namespace sisa::graph {

namespace {

/**
 * Parse one vertex id field strictly: full-token std::from_chars into
 * the wide type, then a VertexId range check -- so "3x", "-1", "1e5",
 * and 2^32-and-up ids are all rejected instead of being truncated or
 * silently read as a shorter prefix (the old operator>> path accepted
 * "12junk" as 12 and wrapped overflowing ids). 2^32 - 1 is rejected
 * too: it is invalid_vertex, and a vertex count of max id + 1 would
 * wrap to 0.
 */
bool
parseVertex(std::string_view token, VertexId &out)
{
    std::uint64_t wide = 0;
    const char *begin = token.data();
    const char *end = begin + token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, wide);
    if (ec != std::errc() || ptr != end)
        return false;
    if (wide >= invalid_vertex)
        return false;
    out = static_cast<VertexId>(wide);
    return true;
}

constexpr std::string_view whitespace = " \t\r\f\v";

} // namespace

Graph
readEdgeList(std::istream &in)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    VertexId max_vertex = 0;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string_view rest = line;
        const std::size_t first = rest.find_first_not_of(whitespace);
        if (first == std::string_view::npos)
            continue;
        rest.remove_prefix(first);
        if (rest[0] == '#' || rest[0] == '%')
            continue;
        VertexId pair[2] = {0, 0};
        for (int field = 0; field < 2; ++field) {
            const std::size_t start =
                rest.find_first_not_of(whitespace);
            if (start == std::string_view::npos) {
                throw GraphIoError(
                    "truncated edge-list line " +
                        std::to_string(line_no) + ": '" + line + "'",
                    line_no);
            }
            rest.remove_prefix(start);
            const std::size_t len =
                std::min(rest.find_first_of(whitespace), rest.size());
            if (!parseVertex(rest.substr(0, len), pair[field])) {
                throw GraphIoError(
                    "malformed vertex id on edge-list line " +
                        std::to_string(line_no) + ": '" + line + "'",
                    line_no);
            }
            rest.remove_prefix(len);
        }
        if (rest.find_first_not_of(whitespace) !=
            std::string_view::npos) {
            throw GraphIoError("trailing junk on edge-list line " +
                                   std::to_string(line_no) + ": '" +
                                   line + "'",
                               line_no);
        }
        edges.emplace_back(pair[0], pair[1]);
        max_vertex = std::max({max_vertex, pair[0], pair[1]});
    }
    if (in.bad()) {
        throw GraphIoError("I/O error while reading edge list",
                           line_no);
    }
    // All input validated: only now does the graph get built, so a
    // throw above can never leave the caller a partial graph.
    GraphBuilder builder(edges.empty() ? 0 : max_vertex + 1);
    for (auto [u, v] : edges)
        builder.addEdge(u, v);
    return builder.build();
}

Graph
readEdgeListFile(const std::string &file_path)
{
    std::ifstream in(file_path);
    if (!in) {
        throw GraphIoError("cannot open graph file '" + file_path +
                           "'");
    }
    return readEdgeList(in);
}

} // namespace sisa::graph
