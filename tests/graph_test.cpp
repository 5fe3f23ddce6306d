// Unit and property tests for the graph substrate: construction, analysis,
// and every generator's invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/analysis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace radiocast {
namespace {

// ---------- graph basics ----------

TEST(GraphTest, UndirectedEdgesAreSymmetric) {
  graph g = graph::undirected(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(1), 2);
  EXPECT_EQ(g.in_degree(1), 2);
}

TEST(GraphTest, DirectedEdgesAreOneWay) {
  graph g = graph::directed(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(1), 1);
  EXPECT_EQ(g.in_degree(0), 0);
}

TEST(GraphTest, DuplicateEdgesDedupedAtFinalize) {
  graph g = graph::undirected(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.finalize();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(1), 1);
}

TEST(GraphTest, FinalizeKeepsFirstOccurrenceOrder) {
  // The dedup at finalize() must reproduce exactly what a per-add
  // duplicate scan would have built: first occurrence wins, insertion
  // order otherwise preserved.
  graph g = graph::undirected(5);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(0, 3);  // duplicate — dropped, position of the first kept
  g.add_edge(0, 4);
  g.add_edge(0, 1);  // duplicate
  g.finalize();
  const auto nbrs = g.out_neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 3);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 4);
}

TEST(GraphTest, FinalizeIsIdempotent) {
  graph g = graph::undirected(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_TRUE(g.finalized());
  g.finalize();  // no-op
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.out_degree(0), 1);
}

TEST(GraphTest, AddAfterFinalizeRejected) {
  graph g = graph::undirected(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW(g.add_edge(1, 2), precondition_error);
  EXPECT_THROW(g.add_edge_unchecked(1, 2), precondition_error);
}

TEST(GraphTest, AccessorsWorkWhileBuilding) {
  // Generators query the partial graph mid-construction (union-find
  // seeding, BFS connectivity checks) — the building phase must answer.
  graph g = graph::undirected(4);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.finalized());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.out_degree(0), 1);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphTest, SelfLoopsRejected) {
  graph g = graph::undirected(3);
  EXPECT_THROW(g.add_edge(1, 1), precondition_error);
}

TEST(GraphTest, OutOfRangeRejected) {
  graph g = graph::undirected(3);
  EXPECT_THROW(g.add_edge(0, 3), precondition_error);
  EXPECT_THROW(g.add_edge(-1, 0), precondition_error);
  EXPECT_THROW(g.out_neighbors(5), precondition_error);
}

TEST(GraphTest, AsDirectedDoublesArcs) {
  graph g = make_path(4);
  graph d = g.as_directed();
  EXPECT_TRUE(d.is_directed());
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_TRUE(d.has_edge(1, 0));
  EXPECT_EQ(d.edge_count(), 2 * g.edge_count());
}

TEST(GraphTest, SortAdjacency) {
  // Works in both storage phases: on the building rows and on CSR slices.
  graph g = graph::undirected(4);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.sort_adjacency();
  const auto building = g.out_neighbors(0);
  EXPECT_TRUE(std::is_sorted(building.begin(), building.end()));

  graph h = graph::undirected(4);
  h.add_edge(0, 3);
  h.add_edge(0, 1);
  h.add_edge(0, 2);
  h.finalize();
  h.sort_adjacency();
  const auto csr = h.out_neighbors(0);
  EXPECT_TRUE(std::is_sorted(csr.begin(), csr.end()));
}

TEST(GraphTest, EdgeListRoundTrip) {
  graph g = make_cycle(5);
  const std::string text = g.to_edge_list();
  graph h = graph::from_edge_list(5, text);
  EXPECT_EQ(h.edge_count(), g.edge_count());
  for (node_id u = 0; u < 5; ++u) {
    for (node_id v : g.out_neighbors(u)) EXPECT_TRUE(h.has_edge(u, v));
  }
}

TEST(GraphTest, DotOutputMentionsEdges) {
  graph g = make_path(3);
  const std::string dot = g.to_dot("p");
  EXPECT_NE(dot.find("graph p"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
}

// ---------- analysis ----------

TEST(AnalysisTest, BfsDistancesOnPath) {
  graph g = make_path(5);
  const auto dist = bfs_distances(g, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
}

TEST(AnalysisTest, RadiusOfFamilies) {
  EXPECT_EQ(radius_from(make_path(10)), 9);
  EXPECT_EQ(radius_from(make_star(10)), 1);
  EXPECT_EQ(radius_from(make_complete(6)), 1);
  EXPECT_EQ(radius_from(make_cycle(8)), 4);
  EXPECT_EQ(radius_from(make_cycle(9)), 4);
  EXPECT_EQ(radius_from(make_grid(3, 4)), 3 + 4 - 2);
}

TEST(AnalysisTest, UnreachableNodeThrows) {
  graph g = graph::undirected(3);
  g.add_edge(0, 1);  // node 2 isolated
  EXPECT_THROW(radius_from(g), precondition_error);
  EXPECT_FALSE(all_reachable(g));
  EXPECT_FALSE(is_connected(g));
}

TEST(AnalysisTest, LayersPartitionNodes) {
  graph g = make_grid(4, 4);
  const auto layers = bfs_layers(g);
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.size();
  EXPECT_EQ(total, 16u);
  // Layer j of the grid corner BFS has min(j+1, ...) nodes; check layer 0/1.
  EXPECT_EQ(layers[0].size(), 1u);
  EXPECT_EQ(layers[1].size(), 2u);
}

TEST(AnalysisTest, DirectedReachabilityFollowsArcs) {
  graph g = graph::directed(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(all_reachable(g, 0));
  EXPECT_FALSE(all_reachable(g, 2));
}

TEST(AnalysisTest, MaxDegree) {
  EXPECT_EQ(max_degree(make_star(7)), 6);
  EXPECT_EQ(max_degree(make_path(5)), 2);
}

TEST(AnalysisTest, CompleteLayeredRecognizer) {
  EXPECT_TRUE(is_complete_layered(make_complete_layered({1, 3, 2, 4})));
  EXPECT_TRUE(is_complete_layered(make_path(6)));   // all layers size 1
  EXPECT_TRUE(is_complete_layered(make_star(5)));   // {1, n−1}
  EXPECT_FALSE(is_complete_layered(make_cycle(6)));
  rng gen(3);
  EXPECT_FALSE(is_complete_layered(
      make_random_layered({1, 4, 4, 4}, 0.3, gen)));
}

// ---------- generators ----------

class GeneratorSizes : public ::testing::TestWithParam<node_id> {};

TEST_P(GeneratorSizes, PathInvariants) {
  const node_id n = GetParam();
  graph g = make_path(n);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1));
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(radius_from(g), n - 1);
}

TEST_P(GeneratorSizes, StarInvariants) {
  const node_id n = GetParam();
  graph g = make_star(n);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1));
  EXPECT_EQ(radius_from(g), 1);
}

TEST_P(GeneratorSizes, CompleteInvariants) {
  const node_id n = GetParam();
  graph g = make_complete(n);
  EXPECT_EQ(g.edge_count(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
  EXPECT_EQ(radius_from(g), 1);
}

TEST_P(GeneratorSizes, RandomTreeInvariants) {
  const node_id n = GetParam();
  rng gen(99 + static_cast<std::uint64_t>(n));
  graph g = make_random_tree(n, gen);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1));
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizes,
                         ::testing::Values(2, 3, 5, 16, 64, 257));

TEST(GeneratorTest, BoundedDegreeTreeRespectsCap) {
  for (node_id cap : {2, 3, 5}) {
    rng gen(7);
    graph g = make_bounded_degree_tree(200, cap, gen);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.edge_count(), 199u);
    EXPECT_LE(max_degree(g), cap);
  }
}

TEST(GeneratorTest, GnpConnectedAlwaysConnected) {
  for (double p : {0.0, 0.01, 0.1, 0.5}) {
    rng gen(static_cast<std::uint64_t>(p * 1000) + 1);
    graph g = make_gnp_connected(100, p, gen);
    EXPECT_TRUE(is_connected(g)) << "p=" << p;
    EXPECT_EQ(g.node_count(), 100);
  }
}

TEST(GeneratorTest, GnpDensityMatchesP) {
  rng gen(4242);
  const node_id n = 200;
  graph g = make_gnp_connected(n, 0.2, gen);
  const double max_edges = static_cast<double>(n) * (n - 1) / 2.0;
  const double density = static_cast<double>(g.edge_count()) / max_edges;
  EXPECT_NEAR(density, 0.2, 0.03);
}

TEST(GeneratorTest, GridInvariants) {
  graph g = make_grid(5, 7);
  EXPECT_EQ(g.node_count(), 35);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(5 * 6 + 4 * 7));
  EXPECT_TRUE(is_connected(g));
}

TEST(GeneratorTest, CaterpillarInvariants) {
  graph g = make_caterpillar(10, 3);
  EXPECT_EQ(g.node_count(), 40);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(radius_from(g), 10);  // spine end + leg
}

TEST(GeneratorTest, CompleteLayeredLayersAndRadius) {
  const std::vector<node_id> sizes{1, 3, 5, 2};
  graph g = make_complete_layered(sizes);
  EXPECT_EQ(g.node_count(), 11);
  EXPECT_EQ(radius_from(g), 3);
  const auto layers = bfs_layers(g);
  ASSERT_EQ(layers.size(), 4u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(layers[i].size(), static_cast<std::size_t>(sizes[i]));
  }
  EXPECT_TRUE(is_complete_layered(g));
  // Edge count: sum of consecutive products.
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(1 * 3 + 3 * 5 + 5 * 2));
}

TEST(GeneratorTest, CompleteLayeredRejectsBadLayerZero) {
  EXPECT_THROW(make_complete_layered({2, 3}), precondition_error);
  EXPECT_THROW(make_complete_layered({1}), precondition_error);
  EXPECT_THROW(make_complete_layered({1, 0}), precondition_error);
}

class CompleteLayeredUniform
    : public ::testing::TestWithParam<std::pair<node_id, int>> {};

TEST_P(CompleteLayeredUniform, RadiusAndCount) {
  const auto [n, d] = GetParam();
  graph g = make_complete_layered_uniform(n, d);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_EQ(radius_from(g), d);
  EXPECT_TRUE(is_complete_layered(g));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompleteLayeredUniform,
    ::testing::Values(std::pair<node_id, int>{10, 3},
                      std::pair<node_id, int>{64, 8},
                      std::pair<node_id, int>{100, 1},
                      std::pair<node_id, int>{65, 64},
                      std::pair<node_id, int>{512, 16}));

TEST(GeneratorTest, CompleteLayeredFat) {
  graph g = make_complete_layered_fat(100, 5, 3);
  EXPECT_EQ(g.node_count(), 100);
  EXPECT_EQ(radius_from(g), 5);
  const auto layers = bfs_layers(g);
  EXPECT_EQ(layers[3].size(), 100u - 1 - 4);  // all slack in layer 3
  EXPECT_EQ(layers[1].size(), 1u);
}

TEST(GeneratorTest, EvenSplit) {
  EXPECT_EQ(even_split(10, 3), (std::vector<node_id>{4, 3, 3}));
  EXPECT_EQ(even_split(9, 3), (std::vector<node_id>{3, 3, 3}));
  EXPECT_EQ(even_split(5, 5), (std::vector<node_id>{1, 1, 1, 1, 1}));
  EXPECT_THROW(even_split(2, 3), precondition_error);
}

TEST(GeneratorTest, RandomLayeredKeepsLayerStructure) {
  rng gen(17);
  const std::vector<node_id> sizes{1, 5, 5, 5, 4};
  graph g = make_random_layered(sizes, 0.3, gen);
  EXPECT_EQ(g.node_count(), 20);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(radius_from(g), 4);
  const auto layers = bfs_layers(g);
  ASSERT_EQ(layers.size(), 5u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(layers[i].size(), static_cast<std::size_t>(sizes[i]));
  }
}

TEST(GeneratorTest, DirectedLayeredHasForwardArcsOnly) {
  rng gen(11);
  const std::vector<node_id> sizes{1, 4, 4, 3};
  graph g = make_directed_layered(sizes, 0.4, gen);
  ASSERT_TRUE(g.is_directed());
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_TRUE(all_reachable(g, 0));
  const auto dist = bfs_distances(g, 0);
  // Every arc goes from layer i exactly to layer i+1.
  for (node_id u = 0; u < g.node_count(); ++u) {
    for (node_id v : g.out_neighbors(u)) {
      EXPECT_EQ(dist[static_cast<std::size_t>(v)],
                dist[static_cast<std::size_t>(u)] + 1);
    }
    // No way back: nothing reaches the source.
    EXPECT_EQ(g.in_degree(0), 0);
  }
  // Directed radius equals the number of layers − 1.
  int radius = 0;
  for (int x : dist) radius = std::max(radius, x);
  EXPECT_EQ(radius, 3);
}

TEST(GeneratorTest, DirectedLayeredDensityP1IsComplete) {
  rng gen(2);
  graph g = make_directed_layered({1, 3, 3}, 1.0, gen);
  // With p = 1 every consecutive pair is connected.
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(1 * 3 + 3 * 3));
}

TEST(GeneratorTest, PermuteLabelsPreservesStructure) {
  rng gen(23);
  graph g = make_complete_layered_uniform(40, 4);
  graph h = permute_labels(g, gen);
  EXPECT_EQ(h.node_count(), g.node_count());
  EXPECT_EQ(h.edge_count(), g.edge_count());
  EXPECT_TRUE(is_connected(h));
  EXPECT_EQ(radius_from(h), 4);  // source stays node 0
}

TEST(GeneratorTest, PermuteLabelsExplicit) {
  graph g = make_path(4);  // 0-1-2-3
  graph h = permute_labels(g, std::vector<node_id>{0, 3, 2, 1});
  EXPECT_TRUE(h.has_edge(0, 3));
  EXPECT_TRUE(h.has_edge(3, 2));
  EXPECT_TRUE(h.has_edge(2, 1));
  EXPECT_FALSE(h.has_edge(0, 1));
}

TEST(GeneratorTest, PermuteLabelsRejectsMovedSource) {
  graph g = make_path(3);
  EXPECT_THROW(permute_labels(g, std::vector<node_id>{1, 0, 2}),
               precondition_error);
  EXPECT_THROW(permute_labels(g, std::vector<node_id>{0, 2, 2}),
               precondition_error);
}

// ---------- random geometric graphs ----------

// The generator as first written: every one of the n² pairs, then bridging
// by a scan over all (u, v) pairs. make_random_geometric must reproduce its
// CSR exactly. `bridges` counts the bridging edges it added.
graph reference_geometric(node_id n, double range, rng& gen, int* bridges) {
  std::vector<std::pair<double, double>> points(static_cast<std::size_t>(n));
  for (auto& p : points) p = {gen.uniform01(), gen.uniform01()};
  std::size_t corner = 0;
  auto corner_dist = [&](std::size_t i) {
    return points[i].first * points[i].first +
           points[i].second * points[i].second;
  };
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (corner_dist(i) < corner_dist(corner)) corner = i;
  }
  std::swap(points[0], points[corner]);
  auto dist2 = [&](node_id a, node_id b) {
    const double dx = points[static_cast<std::size_t>(a)].first -
                      points[static_cast<std::size_t>(b)].first;
    const double dy = points[static_cast<std::size_t>(a)].second -
                      points[static_cast<std::size_t>(b)].second;
    return dx * dx + dy * dy;
  };
  graph g = graph::undirected(n);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      if (dist2(u, v) <= range * range) g.add_edge(u, v);
    }
  }
  *bridges = 0;
  for (;;) {
    std::vector<bool> in(static_cast<std::size_t>(n), false);
    std::vector<node_id> stack{0};
    in[0] = true;
    while (!stack.empty()) {
      const node_id u = stack.back();
      stack.pop_back();
      for (const node_id v : g.out_neighbors(u)) {
        if (!in[static_cast<std::size_t>(v)]) {
          in[static_cast<std::size_t>(v)] = true;
          stack.push_back(v);
        }
      }
    }
    node_id best_in = -1;
    node_id best_out = -1;
    double best = 0.0;
    for (node_id u = 0; u < n; ++u) {
      if (!in[static_cast<std::size_t>(u)]) continue;
      for (node_id v = 0; v < n; ++v) {
        if (in[static_cast<std::size_t>(v)]) continue;
        const double d = dist2(u, v);
        if (best_in == -1 || d < best) {
          best = d;
          best_in = u;
          best_out = v;
        }
      }
    }
    if (best_in == -1) break;
    g.add_edge(best_in, best_out);
    ++*bridges;
  }
  g.finalize();
  return g;
}

struct geometric_case {
  node_id n;
  double range;
  std::uint64_t seed;
};

class RandomGeometricMatchesReference
    : public ::testing::TestWithParam<geometric_case> {};

TEST_P(RandomGeometricMatchesReference, SameCsrRowsAndDraws) {
  const auto [n, range, seed] = GetParam();
  rng gen(seed);
  rng ref_gen(seed);
  const graph g = make_random_geometric(n, range, gen);
  int bridges = 0;
  const graph ref = reference_geometric(n, range, ref_gen, &bridges);
  EXPECT_TRUE(gen == ref_gen);  // same draws consumed
  ASSERT_EQ(g.edge_count(), ref.edge_count());
  for (node_id u = 0; u < n; ++u) {
    const auto row = g.out_neighbors(u);
    const auto ref_row = ref.out_neighbors(u);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), ref_row.begin(),
                           ref_row.end()))
        << "row " << u;
  }
  if (range < 0.06) {
    EXPECT_GT(bridges, 0);  // the sparse cases bridge
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RandomGeometricMatchesReference,
    ::testing::Values(geometric_case{200, 0.12, 1},
                      geometric_case{300, 0.05, 2},    // several components
                      geometric_case{120, 0.01, 3},    // mostly isolated
                      geometric_case{64, 0.25, 4},     // 1/range integral
                      geometric_case{40, 1.5, 5},      // one cell
                      geometric_case{1000, 0.0279, 6}));

}  // namespace
}  // namespace radiocast
