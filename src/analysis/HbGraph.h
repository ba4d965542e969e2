//===- analysis/HbGraph.h - Static happens-before graph ---------*- C++ -*-===//
///
/// \file
/// A static happens-before graph over lowered programs. The driver
/// executes steps sequentially on the CPU thread, so every step is a
/// node on the driver timeline; the concurrent engines get extra nodes
/// and edges: each ParallelCompute carries implicit kernel-launch/join
/// synchronization, and every asynchronous Transfer gets a separate
/// *completion* node on the DMA timeline whose only outgoing edges are
/// the drain points (DmaWait, the next kernel launch, or — under ADSM —
/// the runtime's lazy page-in serving a serial consumer). A completion
/// node no drain point blocks on is an undrained copy; a step that
/// touches an in-flight copy's objects without an incoming drain path is
/// a static race. Ownership steps contribute the release->acquire edges
/// that make weakly consistent rounds legal (Table I).
///
/// build() assembles the graph through the public builder API
/// (addNode/addEdge, then finalize()), which tests also use to check
/// the reachability relation on hand-made graphs.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ANALYSIS_HBGRAPH_H
#define HETSIM_ANALYSIS_HBGRAPH_H

#include "core/Lowering.h"
#include "core/SystemConfig.h"

#include <string>
#include <vector>

namespace hetsim {

/// Node kinds of the graph.
enum class HbNodeKind : uint8_t {
  Start,         ///< Program entry (host initializes the inputs).
  Step,          ///< One ExecStep on the driver timeline.
  DmaCompletion, ///< Completion of one asynchronous Transfer step.
  End,           ///< Program exit (host observes the outputs).
};

/// Edge kinds, by the synchronization they model.
enum class HbEdgeKind : uint8_t {
  DriverOrder,    ///< Program order on the sequential driver thread.
  DmaIssue,       ///< Async transfer step -> its completion node.
  DmaDrain,       ///< Completion -> the step that blocks on the engine.
  LazyPull,       ///< Completion -> ADSM serial consumer (paged on demand).
  ReleaseAcquire, ///< Ownership release -> the acquiring round (and back).
};

const char *hbEdgeKindName(HbEdgeKind Kind);

/// One node.
struct HbNode {
  HbNodeKind Kind = HbNodeKind::Step;
  /// Step index for Step and DmaCompletion nodes.
  size_t StepIndex = 0;
};

/// One directed edge between node ids.
struct HbEdge {
  size_t From = 0;
  size_t To = 0;
  HbEdgeKind Kind = HbEdgeKind::DriverOrder;
};

/// The graph. With build(), node ids are dense with Start == 0 and
/// End == nodeCount()-1; hand-built graphs choose their own layout.
class HbGraph {
public:
  HbGraph() = default;

  /// Builds the classic single-program graph for \p Program under
  /// \p Config (one Step node per ExecStep; finalized).
  static HbGraph build(const LoweredProgram &Program,
                       const SystemConfig &Config);

  /// Appends a node and returns its id (builder API).
  size_t addNode(const HbNode &Node);

  /// Appends an edge. Self and duplicate edges are tolerated: a self
  /// edge makes its node reach itself, and a duplicate changes no
  /// reachability.
  void addEdge(size_t From, size_t To, HbEdgeKind Kind);

  /// Computes the reachability relation. Must be called after the last
  /// addNode/addEdge and before reaches(); build() calls it for you. Safe
  /// to call again after further edits.
  void finalize();

  size_t nodeCount() const { return Nodes.size(); }
  const std::vector<HbEdge> &edges() const { return Edges; }

  size_t startNode() const { return 0; }
  size_t endNode() const { return Nodes.size() - 1; }

  /// Node id of step \p StepIndex (build() graphs only).
  size_t stepNode(size_t StepIndex) const;

  /// Node id of the completion of the async transfer at \p StepIndex, or
  /// npos when that step has none (build() graphs only).
  size_t dmaNode(size_t StepIndex) const;

  /// True when a directed path From -> To exists.
  bool reaches(size_t From, size_t To) const;

  /// Step indices of asynchronous transfers no step ever blocks on (no
  /// DmaDrain edge): the engine may still be busy when the program ends.
  /// An ADSM lazy pull orders the data before its serial consumer but
  /// does not retire the copy, so it does not count as a drain.
  std::vector<size_t> undrainedTransfers() const;

  /// Graphviz rendering (for hetsim_lint --dot).
  std::string renderDot(const LoweredProgram &Program) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

private:
  std::vector<HbNode> Nodes;
  std::vector<HbEdge> Edges;
  std::vector<size_t> StepToNode;
  std::vector<size_t> StepToDma;
  /// Reach[f] is a bitset over target nodes, one word-packed row per
  /// source node (programs are tens of steps, so this stays tiny).
  std::vector<std::vector<uint64_t>> Reach;
};

} // namespace hetsim

#endif // HETSIM_ANALYSIS_HBGRAPH_H
