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
/// Two client shapes share the class: the per-program linter uses the
/// classic build() recipe (one agent, one Step node per ExecStep), and
/// the cross-agent race verifier (analysis/RaceDetector.h) constructs
/// multi-agent graphs through the public builder API — addNode/addEdge
/// per agent and lane, then finalize(). Reachability is kept in two
/// relations: the full one, and a *scoped* one that excludes the
/// KernelLaunch/KernelJoin edges, which is what ordering looks like to a
/// shared-region location under an ownership discipline (the launch does
/// not publish data that api-acq owns — see memory/FenceSemantics.h).
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
  Step,          ///< One ExecStep on an agent's driver timeline.
  GpuRound,      ///< GPU-lane execution of one ParallelCompute step.
  Join,          ///< Driver-side join at the end of one ParallelCompute.
  DmaCompletion, ///< Completion of one asynchronous Transfer step.
  End,           ///< Program exit (host observes the outputs).
};

/// The execution resource a node runs on. Accesses on the same agent and
/// lane are serialized by that resource and can never race.
enum class HbLane : uint8_t { Cpu, Gpu, Dma };

const char *hbLaneName(HbLane Lane);

/// Edge kinds, by the synchronization they model.
enum class HbEdgeKind : uint8_t {
  DriverOrder,    ///< Program order on the sequential driver thread.
  DmaIssue,       ///< Async transfer step -> its completion node.
  DmaDrain,       ///< Completion -> the step that blocks on the engine.
  LazyPull,       ///< Completion -> ADSM serial consumer (paged on demand).
  ReleaseAcquire, ///< Ownership release -> the acquiring round (and back).
  KernelLaunch,   ///< Driver launch point -> the round's GPU execution.
  KernelJoin,     ///< The round's GPU execution -> the driver-side join.
  AgentFork,      ///< Global start -> an agent's first node (co-run).
  AgentJoin,      ///< An agent's last node -> the global end (co-run).
};

const char *hbEdgeKindName(HbEdgeKind Kind);

/// One node.
struct HbNode {
  HbNodeKind Kind = HbNodeKind::Step;
  /// Step index for Step, GpuRound, Join, and DmaCompletion nodes.
  size_t StepIndex = 0;
  /// Agent (co-run kernel instance) the node belongs to; 0 for
  /// single-program graphs and the global Start/End.
  uint32_t Agent = 0;
  /// Execution resource.
  HbLane Lane = HbLane::Cpu;
};

/// One directed edge between node ids.
struct HbEdge {
  size_t From = 0;
  size_t To = 0;
  HbEdgeKind Kind = HbEdgeKind::DriverOrder;
};

/// The graph. With build(), node ids are dense with Start == 0 and
/// End == nodeCount()-1; builder-API graphs choose their own layout.
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

  /// Computes the reachability relations. Must be called after the last
  /// addNode/addEdge and before reaches()/reachesScoped(); build() calls
  /// it for you. Safe to call again after further edits.
  void finalize();

  size_t nodeCount() const { return Nodes.size(); }
  const std::vector<HbNode> &nodes() const { return Nodes; }
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

  /// Like reaches(), but ignoring KernelLaunch/KernelJoin edges: the
  /// ordering an ownership-scoped shared-region location observes.
  bool reachesScoped(size_t From, size_t To) const;

  /// Step indices of asynchronous transfers no step ever blocks on (no
  /// DmaDrain edge): the engine may still be busy when the program ends.
  /// An ADSM lazy pull orders the data before its serial consumer but
  /// does not retire the copy, so it does not count as a drain.
  std::vector<size_t> undrainedTransfers() const;

  /// Graphviz rendering (for hetsim_lint --dot).
  std::string renderDot(const LoweredProgram &Program) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

private:
  void computeRelation(std::vector<std::vector<uint64_t>> &Rel,
                       bool IncludeLaunchJoin) const;

  std::vector<HbNode> Nodes;
  std::vector<HbEdge> Edges;
  std::vector<size_t> StepToNode;
  std::vector<size_t> StepToDma;
  /// Reach[f] is a bitset over target nodes, one word-packed row per
  /// source node (programs are tens of steps, so this stays tiny).
  std::vector<std::vector<uint64_t>> Reach;
  /// Reachability without KernelLaunch/KernelJoin edges.
  std::vector<std::vector<uint64_t>> ScopedReach;
};

} // namespace hetsim

#endif // HETSIM_ANALYSIS_HBGRAPH_H
