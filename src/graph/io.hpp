/**
 * @file
 * Plain-text edge-list input. The format is the de-facto standard of
 * graph repositories: one "u v" pair per line, '#' or '%' comments,
 * 0- or 1-based ids auto-detected from an optional header.
 */

#ifndef SISA_GRAPH_IO_HPP
#define SISA_GRAPH_IO_HPP

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace sisa::graph {

/**
 * Malformed or unreadable edge-list input. Thrown BEFORE any Graph is
 * built (never a partial graph), with the 1-based input line for
 * parse errors (0 for file-level errors), so callers -- the CLI
 * driver, tests, library users -- can report and recover instead of
 * the process dying in library code.
 */
class GraphIoError : public std::runtime_error
{
  public:
    GraphIoError(const std::string &message, std::uint64_t line = 0)
        : std::runtime_error(message), line_(line)
    {
    }

    /** 1-based line of the offending input; 0 if not line-specific. */
    std::uint64_t line() const { return line_; }

  private:
    std::uint64_t line_;
};

/**
 * Read an undirected edge list from @p in. Vertex count is inferred.
 * Throws GraphIoError on malformed input: non-numeric or negative
 * ids, trailing junk after the pair, a line with fewer or more than
 * two fields, or an id of 2^32 - 1 (invalid_vertex) or above.
 */
Graph readEdgeList(std::istream &in);

/**
 * Read an undirected edge list from the file at @p file_path. Throws
 * GraphIoError when the file cannot be opened or readEdgeList rejects
 * its contents.
 */
Graph readEdgeListFile(const std::string &file_path);

} // namespace sisa::graph

#endif // SISA_GRAPH_IO_HPP
