#include "src/analysis/dependency.h"

#include <algorithm>

namespace hilog {

uint32_t DependencyGraph::AddNode(TermId node) {
  auto [it, inserted] = index_.emplace(node, nodes_.size());
  if (inserted) {
    nodes_.push_back(node);
    adjacency_.emplace_back();
  }
  return it->second;
}

void DependencyGraph::AddEdge(TermId from, TermId to, bool negative) {
  uint32_t f = AddNode(from);
  uint32_t t = AddNode(to);
  adjacency_[f].push_back(Edge{t, negative});
}

std::vector<uint32_t> DependencyGraph::StronglyConnectedComponents(
    uint32_t* num_components) const {
  // Iterative Tarjan.
  const uint32_t n = static_cast<uint32_t>(nodes_.size());
  std::vector<uint32_t> component(n, UINT32_MAX);
  std::vector<uint32_t> index(n, UINT32_MAX);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<uint32_t> stack;
  uint32_t next_index = 0;
  uint32_t next_component = 0;

  struct Frame {
    uint32_t node;
    size_t edge;
  };
  std::vector<Frame> call_stack;

  for (uint32_t start = 0; start < n; ++start) {
    if (index[start] != UINT32_MAX) continue;
    call_stack.push_back(Frame{start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = 1;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      uint32_t v = frame.node;
      if (frame.edge < adjacency_[v].size()) {
        uint32_t w = adjacency_[v][frame.edge].to;
        ++frame.edge;
        if (index[w] == UINT32_MAX) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          call_stack.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          while (true) {
            uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            component[w] = next_component;
            if (w == v) break;
          }
          ++next_component;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          uint32_t parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  *num_components = next_component;
  return component;
}

bool DependencyGraph::ComponentHasInternalNegativeEdge(
    const std::vector<uint32_t>& component_of) const {
  for (uint32_t v = 0; v < nodes_.size(); ++v) {
    for (const Edge& e : adjacency_[v]) {
      if (e.negative && component_of[v] == component_of[e.to]) return true;
    }
  }
  return false;
}

std::vector<uint32_t> DependencyGraph::SinkComponents(
    const std::vector<uint32_t>& component_of, uint32_t num_components) const {
  std::vector<char> has_outgoing(num_components, 0);
  for (uint32_t v = 0; v < nodes_.size(); ++v) {
    for (const Edge& e : adjacency_[v]) {
      if (component_of[v] != component_of[e.to]) {
        has_outgoing[component_of[v]] = 1;
      }
    }
  }
  std::vector<uint32_t> sinks;
  for (uint32_t c = 0; c < num_components; ++c) {
    if (!has_outgoing[c]) sinks.push_back(c);
  }
  return sinks;
}

DependencyGraph PredicateDependencyGraph(const TermStore& store,
                                         const Program& program,
                                         std::vector<size_t>* introduced_by) {
  DependencyGraph graph;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    TermId head_name = store.PredName(rule.head);
    graph.AddNode(head_name);
    for (const Literal& lit : rule.body) {
      if (lit.atom == kNoTerm) continue;
      TermId body_name = store.PredName(lit.atom);
      // Aggregation is treated like negation for stratification purposes
      // (the paper: "operators such as aggregation ... have traditionally
      // been stratified to avoid semantic difficulties").
      bool negative = lit.negative() || lit.kind == Literal::Kind::kAggregate;
      graph.AddEdge(head_name, body_name, negative);
    }
    if (introduced_by != nullptr) introduced_by->resize(graph.num_nodes(), r);
  }
  return graph;
}

DependencyGraph AtomDependencyGraph(const GroundProgram& ground) {
  DependencyGraph graph;
  for (const GroundRule& rule : ground.rules) {
    graph.AddNode(rule.head);
    for (TermId a : rule.pos) graph.AddEdge(rule.head, a, /*negative=*/false);
    for (TermId a : rule.neg) graph.AddEdge(rule.head, a, /*negative=*/true);
  }
  return graph;
}

}  // namespace hilog
