//===- analysis/HbGraph.cpp -----------------------------------------------===//

#include "analysis/HbGraph.h"

#include <sstream>

using namespace hetsim;

const char *hetsim::hbEdgeKindName(HbEdgeKind Kind) {
  switch (Kind) {
  case HbEdgeKind::DriverOrder:
    return "driver-order";
  case HbEdgeKind::DmaIssue:
    return "dma-issue";
  case HbEdgeKind::DmaDrain:
    return "dma-drain";
  case HbEdgeKind::LazyPull:
    return "lazy-pull";
  case HbEdgeKind::ReleaseAcquire:
    return "release-acquire";
  }
  return "unknown";
}

size_t HbGraph::addNode(const HbNode &Node) {
  Nodes.push_back(Node);
  return Nodes.size() - 1;
}

void HbGraph::addEdge(size_t From, size_t To, HbEdgeKind Kind) {
  Edges.push_back({From, To, Kind});
}

HbGraph HbGraph::build(const LoweredProgram &Program,
                       const SystemConfig &Config) {
  HbGraph G;
  const std::vector<ExecStep> &Steps = Program.Steps;
  G.StepToNode.assign(Steps.size(), npos);
  G.StepToDma.assign(Steps.size(), npos);

  G.addNode({HbNodeKind::Start, 0});
  for (size_t I = 0; I != Steps.size(); ++I)
    G.StepToNode[I] = G.addNode({HbNodeKind::Step, I});
  // Completion nodes for asynchronous transfers live on the DMA timeline.
  for (size_t I = 0; I != Steps.size(); ++I)
    if (Steps[I].Kind == ExecKind::Transfer && Steps[I].Async)
      G.StepToDma[I] = G.addNode({HbNodeKind::DmaCompletion, I});
  size_t End = G.addNode({HbNodeKind::End, Steps.size()});

  // Driver timeline: Start -> step 0 -> ... -> End.
  size_t Prev = G.startNode();
  for (size_t I = 0; I != Steps.size(); ++I) {
    G.addEdge(Prev, G.StepToNode[I], HbEdgeKind::DriverOrder);
    Prev = G.StepToNode[I];
  }
  G.addEdge(Prev, End, HbEdgeKind::DriverOrder);

  for (size_t I = 0; I != Steps.size(); ++I) {
    const ExecStep &Step = Steps[I];

    // DMA timeline: issue, then completion ordered before the next drain
    // point. DmaWait blocks the driver on the engine; a kernel launch
    // does the same for the GPU side (the driver delays the round start
    // until in-flight copies of its inputs land). Under ADSM the runtime
    // additionally serves serial consumers by paging results on demand,
    // so the copy is correctness-ordered (but not time-ordered) before
    // the serial pass.
    if (Step.Kind == ExecKind::Transfer && Step.Async) {
      size_t Dma = G.StepToDma[I];
      G.addEdge(G.StepToNode[I], Dma, HbEdgeKind::DmaIssue);
      bool LazyConsumerSeen = false;
      for (size_t J = I + 1; J != Steps.size(); ++J) {
        if (Steps[J].Kind == ExecKind::DmaWait ||
            Steps[J].Kind == ExecKind::ParallelCompute) {
          G.addEdge(Dma, G.StepToNode[J], HbEdgeKind::DmaDrain);
          break;
        }
        if (Steps[J].Kind == ExecKind::SerialCompute &&
            Config.AddrSpace == AddressSpaceKind::Adsm &&
            !LazyConsumerSeen) {
          G.addEdge(Dma, G.StepToNode[J], HbEdgeKind::LazyPull);
          LazyConsumerSeen = true;
        }
      }
    }

    // Ownership: the host's release is acquired at the next round's
    // launch; the round's results are released to the next host acquire.
    if (Step.Kind == ExecKind::OwnershipToGpu) {
      for (size_t J = I + 1; J != Steps.size(); ++J) {
        if (Steps[J].Kind == ExecKind::ParallelCompute) {
          G.addEdge(G.StepToNode[I], G.StepToNode[J],
                    HbEdgeKind::ReleaseAcquire);
          break;
        }
      }
    }
    if (Step.Kind == ExecKind::OwnershipToCpu) {
      for (size_t J = I; J-- != 0;) {
        if (Steps[J].Kind == ExecKind::ParallelCompute) {
          G.addEdge(G.StepToNode[J], G.StepToNode[I],
                    HbEdgeKind::ReleaseAcquire);
          break;
        }
      }
    }
  }

  G.finalize();
  return G;
}

void HbGraph::finalize() {
  size_t N = Nodes.size();
  size_t Words = (N + 63) / 64;
  Reach.assign(N, std::vector<uint64_t>(Words, 0));
  std::vector<std::vector<size_t>> Succ(N);
  for (const HbEdge &E : Edges)
    Succ[E.From].push_back(E.To);
  // Nodes are appended in a near-topological order, but cross-lane edges
  // can point both ways across the numbering, so iterate to a fixed
  // point (graphs are tiny).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t F = N; F-- != 0;) {
      std::vector<uint64_t> &Row = Reach[F];
      for (size_t T : Succ[F]) {
        uint64_t &Word = Row[T / 64];
        uint64_t Bit = uint64_t(1) << (T % 64);
        if ((Word & Bit) == 0) {
          Word |= Bit;
          Changed = true;
        }
        const std::vector<uint64_t> &Sub = Reach[T];
        for (size_t W = 0; W != Sub.size(); ++W) {
          uint64_t Merged = Row[W] | Sub[W];
          if (Merged != Row[W]) {
            Row[W] = Merged;
            Changed = true;
          }
        }
      }
    }
  }
}

size_t HbGraph::stepNode(size_t StepIndex) const {
  return StepIndex < StepToNode.size() ? StepToNode[StepIndex] : npos;
}

size_t HbGraph::dmaNode(size_t StepIndex) const {
  return StepIndex < StepToDma.size() ? StepToDma[StepIndex] : npos;
}

bool HbGraph::reaches(size_t From, size_t To) const {
  if (From >= Nodes.size() || To >= Nodes.size())
    return false;
  return (Reach[From][To / 64] >> (To % 64)) & 1;
}

std::vector<size_t> HbGraph::undrainedTransfers() const {
  std::vector<bool> Drained(Nodes.size(), false);
  for (const HbEdge &E : Edges)
    if (E.Kind == HbEdgeKind::DmaDrain)
      Drained[E.From] = true;
  std::vector<size_t> Result;
  for (size_t I = 0; I != StepToDma.size(); ++I)
    if (StepToDma[I] != npos && !Drained[StepToDma[I]])
      Result.push_back(I);
  return Result;
}

std::string HbGraph::renderDot(const LoweredProgram &Program) const {
  std::ostringstream Os;
  Os << "digraph hb {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n";
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const HbNode &Node = Nodes[I];
    Os << "  n" << I << " [label=\"";
    switch (Node.Kind) {
    case HbNodeKind::Start:
      Os << "start";
      break;
    case HbNodeKind::End:
      Os << "end";
      break;
    case HbNodeKind::Step:
      Os << "s" << Node.StepIndex;
      if (Node.StepIndex < Program.Steps.size())
        Os << ": " << execKindName(Program.Steps[Node.StepIndex].Kind);
      break;
    case HbNodeKind::DmaCompletion:
      Os << "dma s" << Node.StepIndex << " done";
      break;
    }
    Os << "\"];\n";
  }
  for (const HbEdge &E : Edges) {
    Os << "  n" << E.From << " -> n" << E.To;
    if (E.Kind != HbEdgeKind::DriverOrder)
      Os << " [label=\"" << hbEdgeKindName(E.Kind) << "\",style=dashed]";
    Os << ";\n";
  }
  Os << "}\n";
  return Os.str();
}
