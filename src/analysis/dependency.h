#ifndef HILOG_ANALYSIS_DEPENDENCY_H_
#define HILOG_ANALYSIS_DEPENDENCY_H_

#include <unordered_map>
#include <vector>

#include "src/ground/ground_program.h"
#include "src/lang/ast.h"

namespace hilog {

/// A directed graph over TermId nodes with positively/negatively labeled
/// edges, as used for (local) stratification and modular stratification.
class DependencyGraph {
 public:
  /// Adds the node if not present; returns its dense index.
  uint32_t AddNode(TermId node);

  /// Adds an edge; adds endpoints as needed.
  void AddEdge(TermId from, TermId to, bool negative);

  size_t num_nodes() const { return nodes_.size(); }
  TermId node(uint32_t index) const { return nodes_[index]; }
  uint32_t Find(TermId node) const {
    auto it = index_.find(node);
    return it == index_.end() ? UINT32_MAX : it->second;
  }

  struct Edge {
    uint32_t to;
    bool negative;
  };
  const std::vector<Edge>& OutEdges(uint32_t node_index) const {
    return adjacency_[node_index];
  }

  /// Tarjan strongly-connected components. Returns, for each node index,
  /// its component id; components are numbered in *reverse topological*
  /// order (a component only depends on components with smaller ids), so
  /// id 0-side components are the "lowest".
  std::vector<uint32_t> StronglyConnectedComponents(
      uint32_t* num_components) const;

  /// True if some edge labeled negative connects two nodes of the same
  /// component (given a component assignment).
  bool ComponentHasInternalNegativeEdge(
      const std::vector<uint32_t>& component_of) const;

  /// Component ids with no edge leaving the component ("lowest"
  /// components; the T selection of Figure 1).
  std::vector<uint32_t> SinkComponents(
      const std::vector<uint32_t>& component_of,
      uint32_t num_components) const;

 private:
  std::vector<TermId> nodes_;
  std::unordered_map<TermId, uint32_t> index_;
  std::vector<std::vector<Edge>> adjacency_;
};

/// Predicate-level dependency graph: nodes are the predicate names of rule
/// heads and body atoms; an edge head -> body-name for every rule, labeled
/// negative for negative literals. Non-ground names are included as-is
/// (callers that need Figure 1's "names appearing ground" filter do so
/// themselves). Nodes are numbered in order of first mention; when
/// `introduced_by` is non-null it receives, per node, the index of the rule
/// that first mentions the name.
DependencyGraph PredicateDependencyGraph(
    const TermStore& store, const Program& program,
    std::vector<size_t>* introduced_by = nullptr);

/// Ground atom dependency graph of a ground program: nodes are atoms;
/// edge head -> body-atom per rule instance, negative for negated
/// subgoals (Definition 6.2's instantiated-rule relation).
DependencyGraph AtomDependencyGraph(const GroundProgram& ground);

}  // namespace hilog

#endif  // HILOG_ANALYSIS_DEPENDENCY_H_
