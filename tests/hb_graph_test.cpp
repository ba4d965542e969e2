//===- tests/hb_graph_test.cpp - Happens-before graph edge cases ----------===//
//
// The HbGraph builder API and its reachability relation: empty programs,
// cycles (self edges included), duplicate-edge tolerance, and the
// relation checked against a reference transitive closure on randomized
// DAGs.
//
//===----------------------------------------------------------------------===//

#include "analysis/HbGraph.h"
#include "common/Random.h"

#include <gtest/gtest.h>

using namespace hetsim;

namespace {

/// A builder-API chain of \p N Step nodes with no edges.
HbGraph makeNodes(size_t N) {
  HbGraph Graph;
  for (size_t I = 0; I != N; ++I)
    Graph.addNode({HbNodeKind::Step, I});
  return Graph;
}

/// The full reachability matrix of a finalized graph.
std::vector<std::vector<bool>> reachMatrix(const HbGraph &Graph) {
  size_t N = Graph.nodeCount();
  std::vector<std::vector<bool>> M(N, std::vector<bool>(N));
  for (size_t F = 0; F != N; ++F)
    for (size_t T = 0; T != N; ++T)
      M[F][T] = Graph.reaches(F, T);
  return M;
}

/// The transitive closure of \p Graph's edges (Floyd-Warshall): the
/// reference for reaches().
std::vector<std::vector<bool>> closure(const HbGraph &Graph) {
  size_t N = Graph.nodeCount();
  std::vector<std::vector<bool>> M(N, std::vector<bool>(N));
  for (const HbEdge &Edge : Graph.edges())
    M[Edge.From][Edge.To] = true;
  for (size_t K = 0; K != N; ++K)
    for (size_t F = 0; F != N; ++F)
      for (size_t T = 0; T != N; ++T)
        if (M[F][K] && M[K][T])
          M[F][T] = true;
  return M;
}

TEST(HbGraphEdgeCases, EmptyProgramStillOrdersStartBeforeEnd) {
  LoweredProgram Program;
  Program.Steps.clear();
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  HbGraph Graph = HbGraph::build(Program, Config);
  ASSERT_EQ(Graph.nodeCount(), 2u);
  EXPECT_TRUE(Graph.reaches(Graph.startNode(), Graph.endNode()));
  EXPECT_FALSE(Graph.reaches(Graph.endNode(), Graph.startNode()));
  EXPECT_FALSE(Graph.reaches(Graph.startNode(), Graph.startNode()));
  EXPECT_TRUE(Graph.undrainedTransfers().empty());
  EXPECT_EQ(Graph.edges().size(), 1u);
}

// A cycle shows in the relation as nodes that reach themselves.
TEST(HbGraphEdgeCases, DetectsCycles) {
  HbGraph Acyclic = makeNodes(3);
  Acyclic.addEdge(0, 1, HbEdgeKind::DriverOrder);
  Acyclic.addEdge(1, 2, HbEdgeKind::DriverOrder);
  Acyclic.finalize();
  for (size_t N = 0; N != 3; ++N)
    EXPECT_FALSE(Acyclic.reaches(N, N)) << N;

  HbGraph Cyclic = makeNodes(3);
  Cyclic.addEdge(0, 1, HbEdgeKind::DriverOrder);
  Cyclic.addEdge(1, 2, HbEdgeKind::DriverOrder);
  Cyclic.addEdge(2, 0, HbEdgeKind::ReleaseAcquire);
  Cyclic.finalize();
  for (size_t N = 0; N != 3; ++N)
    EXPECT_TRUE(Cyclic.reaches(N, N)) << N;
  EXPECT_TRUE(Cyclic.reaches(2, 1));
}

TEST(HbGraphEdgeCases, SelfEdgeIsACycle) {
  HbGraph Graph = makeNodes(2);
  Graph.addEdge(0, 1, HbEdgeKind::DriverOrder);
  Graph.addEdge(1, 1, HbEdgeKind::DriverOrder);
  Graph.finalize();
  EXPECT_TRUE(Graph.reaches(1, 1));
  EXPECT_FALSE(Graph.reaches(0, 0));
  EXPECT_FALSE(Graph.reaches(1, 0));
}

TEST(HbGraphEdgeCases, DuplicateEdgesAreTolerated) {
  HbGraph Graph = makeNodes(3);
  Graph.addEdge(0, 1, HbEdgeKind::DriverOrder);
  Graph.addEdge(0, 1, HbEdgeKind::ReleaseAcquire);
  Graph.addEdge(1, 2, HbEdgeKind::DriverOrder);
  Graph.finalize();
  EXPECT_EQ(Graph.edges().size(), 3u);
  EXPECT_EQ(reachMatrix(Graph), closure(Graph));
  EXPECT_TRUE(Graph.reaches(0, 2));
  EXPECT_FALSE(Graph.reaches(2, 0));
}

TEST(HbGraphEdgeCases, RandomizedDagReachabilityIsExact) {
  XorShiftRng Rng(0xC0FFEE);
  for (int Trial = 0; Trial != 30; ++Trial) {
    size_t N = 3 + Rng.nextBelow(10);
    HbGraph Graph = makeNodes(N);
    // Random DAG: edges only from lower to higher ids, so acyclic by
    // construction; duplicates allowed on purpose.
    for (size_t F = 0; F != N; ++F)
      for (size_t T = F + 1; T != N; ++T)
        if (Rng.nextBool(0.35))
          Graph.addEdge(F, T, HbEdgeKind::DriverOrder);
    Graph.finalize();
    EXPECT_EQ(reachMatrix(Graph), closure(Graph)) << "trial " << Trial;
  }
}

TEST(HbGraphEdgeCases, UndrainedTransferSurfacesWhenTheWaitGoes) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::Convolution, Config);
  HbGraph Drained = HbGraph::build(Program, Config);
  EXPECT_TRUE(Drained.undrainedTransfers().empty());
  for (size_t I = Program.Steps.size(); I-- != 0;)
    if (Program.Steps[I].Kind == ExecKind::DmaWait) {
      Program.Steps.erase(Program.Steps.begin() + static_cast<long>(I));
      break;
    }
  HbGraph Undrained = HbGraph::build(Program, Config);
  EXPECT_FALSE(Undrained.undrainedTransfers().empty());
}

} // namespace
