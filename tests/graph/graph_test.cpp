// CSR graph and random-walk tests (the §8 graph-workloads extension).
#include "graph/csr.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "graph/graph_ops.h"
#include "join/sink.h"

namespace amac {
namespace {

CsrGraph::Options SmallGraph(double theta = 0) {
  CsrGraph::Options opt;
  opt.num_vertices = 4096;
  opt.out_degree = 8;
  opt.target_theta = theta;
  opt.seed = 301;
  return opt;
}

TEST(CsrGraphTest, DegreeAndEdgeInvariants) {
  const CsrGraph graph(SmallGraph());
  EXPECT_EQ(graph.num_vertices(), 4096u);
  EXPECT_EQ(graph.num_edges(), 4096u * 8);
  for (uint64_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(graph.OutDegree(v), 8u);
    for (uint64_t e = graph.RowBegin(v); e < graph.RowEnd(v); ++e) {
      EXPECT_LT(graph.edges()[e], graph.num_vertices());
    }
  }
}

TEST(CsrGraphTest, OffsetsAreMonotone) {
  const CsrGraph graph(SmallGraph());
  for (uint64_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_LE(graph.offsets()[v], graph.offsets()[v + 1]);
  }
  EXPECT_EQ(graph.offsets()[0], 0u);
}

TEST(CsrGraphTest, SkewCreatesHubs) {
  const CsrGraph uniform(SmallGraph(0));
  const CsrGraph skewed(SmallGraph(0.99));
  EXPECT_GT(skewed.MaxInDegree(), uniform.MaxInDegree() * 3);
}

TEST(CsrGraphTest, DeterministicForSeed) {
  const CsrGraph a(SmallGraph());
  const CsrGraph b(SmallGraph());
  for (uint64_t e = 0; e < a.num_edges(); e += 97) {
    EXPECT_EQ(a.edges()[e], b.edges()[e]);
  }
}

TEST(RandomWalkTest, VisitCountsMatchHops) {
  const CsrGraph graph(SmallGraph());
  WalkSink sink;
  RandomWalkOp op(graph, /*hops=*/5, /*seed=*/1, sink);
  RunSequential(op, /*num_inputs=*/100);
  // Every vertex has out-degree 8 > 0, so each walker visits hops+1.
  EXPECT_EQ(sink.visits(), 100u * 6);
}

TEST(RandomWalkTest, ScheduleIndependentResults) {
  const CsrGraph graph(SmallGraph(0.75));
  uint64_t expected = 0;
  for (int schedule = 0; schedule < 4; ++schedule) {
    WalkSink sink;
    RandomWalkOp op(graph, 7, 2, sink);
    switch (schedule) {
      case 0: RunSequential(op, 500); break;
      case 1: RunAmac(op, 500, 10); break;
      case 2: RunGroupPrefetch(op, 500, 10, 4); break;
      case 3: RunSoftwarePipelined(op, 500, 4, 3); break;
    }
    if (schedule == 0) {
      expected = sink.checksum();
    } else {
      EXPECT_EQ(sink.checksum(), expected) << "schedule " << schedule;
    }
    EXPECT_EQ(sink.visits(), 500u * 8);
  }
}

TEST(RandomWalkTest, DeadEndsTerminateWalks) {
  // out_degree 0 is not generable; emulate dead ends with a 1-vertex graph
  // whose self-loops still bound the walk by hops.
  CsrGraph::Options opt;
  opt.num_vertices = 1;
  opt.out_degree = 1;
  const CsrGraph graph(opt);
  WalkSink sink;
  RandomWalkOp op(graph, 4, 4, sink);
  RunAmac(op, 10, 3);
  EXPECT_EQ(sink.visits(), 10u * 5);  // all walks stay on vertex 0
}

}  // namespace
}  // namespace amac
