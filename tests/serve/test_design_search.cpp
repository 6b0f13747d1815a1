// Randomized property harness for the parallel Pareto design-space
// search.
//
// For seeded random small grids (axes drawn from realistic values, per-
// layer channel modes on or off, random batch), the wave search must
// reproduce an exhaustive-enumeration oracle exactly:
//
//   * every reachable point is evaluated exactly once (the grid lattice
//     is connected under +-1 axis steps, so reachable == all);
//   * the frontier is the oracle's Pareto-maximal set — same canonical
//     ids, bit-identical costs;
//   * no pruned point is un-dominated: every feasible evaluated point
//     off the frontier is strictly dominated by a frontier member;
//   * stats balance: evaluated == infeasible + pruned + frontier.
//
// Worker-count independence is pinned separately: a serial run and a
// 4-worker run on a private pool must return identical results, also
// under max_points truncation. A truncated search must evaluate the
// points nearest the seed, in wave order, and the whole AlexNet paper
// grid is searched once, as the dse-alexnet benchmark searches it.
//
// Seeds: three fixed seeds in tier-1; CHAINNN_SCHED_ROTATE rotates fresh
// triples in CI's sanitize lane and CHAINNN_SCHED_SEED replays a logged
// seed exactly (see property_seeds.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/work_pool.hpp"
#include "property_seeds.hpp"
#include "serve/design_search.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {
namespace {

nn::NetworkModel tiny_net(Rng& rng, int num_layers = 2) {
  nn::NetworkModel net;
  net.name = "tiny";
  std::int64_t channels = rng.uniform_int(2, 4);
  for (int i = 0; i < num_layers; ++i) {
    nn::ConvLayerParams l;
    l.name = "c" + std::to_string(i);
    l.in_channels = channels;
    channels = rng.uniform_int(2, 5);
    l.out_channels = channels;
    l.in_height = l.in_width = 10;
    l.kernel = 3;
    l.pad = 1;
    l.validate();
    net.conv_layers.push_back(l);
  }
  return net;
}

// A random small grid: 2-3 strictly increasing values per axis, drawn
// from pools that include unmappably short chains (infeasible points are
// part of the property).
DesignSpaceGrid random_grid(Rng& rng) {
  const auto pick = [&rng](auto pool, std::size_t count) {
    decltype(pool) axis;
    while (axis.size() < count) {
      const auto v =
          pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1))];
      bool dup = false;
      for (const auto& e : axis) dup = dup || e == v;
      if (!dup) axis.push_back(v);
    }
    std::sort(axis.begin(), axis.end());
    return axis;
  };
  DesignSpaceGrid g;
  g.num_pes = pick(std::vector<std::int64_t>{2, 8, 16, 64, 144, 576},
                   static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.clock_hz = pick(std::vector<double>{100e6, 350e6, 700e6, 1100e6},
                    static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.kmem_words_per_pe = pick(std::vector<std::int64_t>{32, 64, 128, 256},
                             static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.omemory_bytes =
      pick(std::vector<std::uint64_t>{2048, 4096, 8192, 25 * 1024},
           static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.per_layer_channel_modes = rng.uniform_int(0, 1) == 1;
  return g;
}

// Exhaustive oracle: cost every (configuration x mode mask) in the grid
// with the same per-layer model construction the search uses, and keep
// the Pareto-maximal feasible set.
std::map<DesignPointId, dataflow::PointCost> enumerate_all(
    const nn::NetworkModel& net, const DesignSpaceGrid& g,
    std::int64_t batch) {
  const auto& first = net.conv_layers.front();
  const std::vector<nn::ConvLayerParams> layers =
      resolve_network_layers(net, batch, first.in_height, first.in_width, {});
  const std::uint64_t masks =
      g.per_layer_channel_modes ? (1ull << layers.size()) : 1;
  const std::uint64_t all_dual = (1ull << layers.size()) - 1;
  const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  const energy::AreaModel area;

  std::map<DesignPointId, dataflow::PointCost> all;
  for (std::size_t pi = 0; pi < g.num_pes.size(); ++pi)
    for (std::size_t ki = 0; ki < g.kmem_words_per_pe.size(); ++ki)
      for (std::size_t oi = 0; oi < g.omemory_bytes.size(); ++oi) {
        dataflow::ArrayShape array;
        array.num_pes = g.num_pes[pi];
        array.kmem_words_per_pe = g.kmem_words_per_pe[ki];
        mem::HierarchyConfig memory;
        memory.omemory_bytes = g.omemory_bytes[oi];
        memory.kmemory_bytes = static_cast<std::uint64_t>(array.num_pes) *
                               static_cast<std::uint64_t>(
                                   array.kmem_words_per_pe) *
                               memory.word_bytes;
        const double gates = area.total_gates(
            array.num_pes, dataflow::point_sram_bytes(array, memory));

        // Per-layer models (both channel modes), or the infeasibility
        // that every mode/clock variant of this combo shares.
        std::vector<std::array<dataflow::LayerCostModel, 2>> models;
        bool feasible = true;
        std::string reason;
        for (const nn::ConvLayerParams& layer : layers) {
          try {
            dataflow::ExecutionPlan plan =
                dataflow::plan_layer(layer, array, memory);
            std::array<dataflow::LayerCostModel, 2> modes;
            plan.array.dual_channel = false;
            modes[0] = dataflow::layer_cost_model(plan);
            plan.array.dual_channel = true;
            modes[1] = dataflow::layer_cost_model(plan);
            models.push_back(modes);
          } catch (const std::exception&) {
            feasible = false;
            break;
          }
        }
        for (std::size_t ci = 0; ci < g.clock_hz.size(); ++ci)
          for (std::uint64_t mask = 0; mask < masks; ++mask) {
            DesignPointId id;
            id.pes = static_cast<std::int32_t>(pi);
            id.clock = static_cast<std::int32_t>(ci);
            id.kmem = static_cast<std::int32_t>(ki);
            id.omem = static_cast<std::int32_t>(oi);
            id.mode_mask = g.per_layer_channel_modes ? mask : all_dual;
            dataflow::PointCost cost;
            if (feasible) {
              std::vector<const dataflow::LayerCostModel*> refs;
              for (std::size_t l = 0; l < models.size(); ++l)
                refs.push_back(&models[l][(id.mode_mask >> l) & 1]);
              cost = dataflow::accumulate_point_cost(
                  refs, g.clock_hz[ci], array.num_pes, batch, energy, gates);
            } else {
              cost.feasible = false;
            }
            all.emplace(id, cost);
          }
      }
  return all;
}

TEST(DesignSearchProperties, FrontierMatchesExhaustiveOracle) {
  for (const std::uint64_t seed : property_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const std::int64_t batch = rng.uniform_int(1, 3);

    DesignSearchOptions opts;
    opts.batch = batch;
    opts.max_points = 0;  // exhaust the grid
    opts.num_workers = 1;
    opts.collect_evaluated = true;
    DesignSearch search(net, grid, opts);
    const DesignSearchResult result = search.run();

    const auto oracle = enumerate_all(net, grid, batch);

    // Every point in the grid was evaluated exactly once.
    EXPECT_EQ(result.stats.evaluated,
              static_cast<std::int64_t>(oracle.size()));
    EXPECT_EQ(result.evaluated.size(), oracle.size());

    // The frontier is the oracle's Pareto-maximal feasible set.
    std::vector<std::pair<DesignPointId, dataflow::PointCost>> expected;
    for (const auto& [id, cost] : oracle) {
      if (!cost.feasible) continue;
      bool dominated = false;
      for (const auto& [id2, cost2] : oracle)
        dominated = dominated || (!(id2 == id) && cost2.dominates(cost));
      if (!dominated) expected.emplace_back(id, cost);
    }
    ASSERT_EQ(result.frontier.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.frontier[i].id, expected[i].first);  // same sort
      EXPECT_EQ(result.frontier[i].cost.total_cycles,
                expected[i].second.total_cycles);
      EXPECT_DOUBLE_EQ(result.frontier[i].cost.energy_j,
                       expected[i].second.energy_j);
      EXPECT_DOUBLE_EQ(result.frontier[i].cost.area_gates,
                       expected[i].second.area_gates);
    }

    // No pruned point is un-dominated: everything feasible off the
    // frontier loses to some frontier member.
    std::int64_t infeasible = 0;
    for (const EvaluatedDesignPoint& p : result.evaluated) {
      if (!p.cost.feasible) {
        ++infeasible;
        continue;
      }
      bool on_frontier = false;
      for (const EvaluatedDesignPoint& f : result.frontier)
        on_frontier = on_frontier || f.id == p.id;
      if (on_frontier) continue;
      bool dominated = false;
      for (const EvaluatedDesignPoint& f : result.frontier)
        dominated = dominated || f.cost.dominates(p.cost);
      EXPECT_TRUE(dominated) << "pruned but un-dominated: " << p.label;
    }
    EXPECT_EQ(result.stats.infeasible, infeasible);
    EXPECT_EQ(result.stats.evaluated, result.stats.infeasible +
                                          result.stats.pruned +
                                          result.stats.frontier);
  }
}

// Equal grids and options must produce equal results whatever the worker
// count — including under max_points truncation, where wave membership
// itself is at stake.
TEST(DesignSearchProperties, FrontierIsWorkerCountIndependent) {
  for (const std::uint64_t seed : property_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const std::int64_t max_points = rng.uniform_int(0, 1) == 0
                                        ? 0
                                        : rng.uniform_int(10, 60);

    const auto run_with = [&](std::int64_t workers,
                              common::WorkPool* pool) {
      DesignSearchOptions opts;
      opts.max_points = max_points;
      opts.num_workers = workers;
      opts.pool = pool;
      DesignSearch search(net, grid, opts);
      return search.run();
    };
    common::WorkPool pool(4);
    const DesignSearchResult serial = run_with(1, nullptr);
    const DesignSearchResult parallel = run_with(4, &pool);

    EXPECT_EQ(serial.stats.evaluated, parallel.stats.evaluated);
    EXPECT_EQ(serial.stats.infeasible, parallel.stats.infeasible);
    EXPECT_EQ(serial.stats.pruned, parallel.stats.pruned);
    EXPECT_EQ(serial.stats.waves, parallel.stats.waves);
    ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
    for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
      EXPECT_EQ(serial.frontier[i].id, parallel.frontier[i].id);
      EXPECT_EQ(serial.frontier[i].label, parallel.frontier[i].label);
      EXPECT_EQ(serial.frontier[i].cost.total_cycles,
                parallel.frontier[i].cost.total_cycles);
      EXPECT_DOUBLE_EQ(serial.frontier[i].cost.energy_j,
                       parallel.frontier[i].cost.energy_j);
      EXPECT_DOUBLE_EQ(serial.frontier[i].cost.area_gates,
                       parallel.frontier[i].cost.area_gates);
    }
  }
}

// A search truncated at max_points evaluates the grid's first max_points
// points by (distance from the seed, canonical id), in that order: wave k
// is the points k grid moves from the seed, sorted. The distance is
// enumerated here, not taken from the search: axis-index offsets plus
// the mode bits that differ from the seed's all-dual mask. Budgets end
// on a wave boundary and mid-wave, for the 2-layer net and a 4-layer
// one.
TEST(DesignSearchProperties, TruncatedSearchEvaluatesTheNearestPoints) {
  for (const std::uint64_t seed : property_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const int num_layers : {2, 4}) {
      SCOPED_TRACE(std::to_string(num_layers) + " layers");
      const nn::NetworkModel net = tiny_net(rng, num_layers);
      const DesignSpaceGrid grid = random_grid(rng);

      // The seed: the paper point when the grid holds it, the axis
      // midpoints otherwise.
      const auto index_of = [](const auto& axis, auto value) {
        const auto it = std::find(axis.begin(), axis.end(), value);
        return static_cast<std::int32_t>(
            it == axis.end() ? -1 : it - axis.begin());
      };
      DesignPointId origin;
      origin.pes = index_of(grid.num_pes, std::int64_t{576});
      origin.clock = index_of(grid.clock_hz, 700e6);
      origin.kmem = index_of(grid.kmem_words_per_pe, std::int64_t{256});
      origin.omem = index_of(grid.omemory_bytes, std::uint64_t{25 * 1024});
      if (origin.pes < 0 || origin.clock < 0 || origin.kmem < 0 ||
          origin.omem < 0) {
        origin.pes = static_cast<std::int32_t>(grid.num_pes.size() / 2);
        origin.clock = static_cast<std::int32_t>(grid.clock_hz.size() / 2);
        origin.kmem =
            static_cast<std::int32_t>(grid.kmem_words_per_pe.size() / 2);
        origin.omem = static_cast<std::int32_t>(grid.omemory_bytes.size() / 2);
      }
      origin.mode_mask = (1ull << num_layers) - 1;

      std::vector<std::pair<std::int64_t, DesignPointId>> order;
      for (const auto& [id, cost] : enumerate_all(net, grid, 1))
        order.emplace_back(std::abs(id.pes - origin.pes) +
                               std::abs(id.clock - origin.clock) +
                               std::abs(id.kmem - origin.kmem) +
                               std::abs(id.omem - origin.omem) +
                               std::popcount(id.mode_mask ^ origin.mode_mask),
                           id);
      std::sort(order.begin(), order.end());

      // A wave boundary short of the whole grid, and a budget inside a
      // wave of two or more points.
      std::vector<std::int64_t> boundaries, inside;
      for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i].first != order[i - 1].first)
          boundaries.push_back(static_cast<std::int64_t>(i));
        else
          inside.push_back(static_cast<std::int64_t>(i));
      }
      ASSERT_FALSE(boundaries.empty());
      ASSERT_FALSE(inside.empty());
      const auto pick = [&rng](const std::vector<std::int64_t>& from) {
        return from[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(from.size()) - 1))];
      };
      for (const std::int64_t budget : {pick(boundaries), pick(inside)}) {
        SCOPED_TRACE("max_points " + std::to_string(budget));
        DesignSearchOptions opts;
        opts.max_points = budget;
        opts.num_workers = 1;
        opts.collect_evaluated = true;
        DesignSearch search(net, grid, opts);
        const DesignSearchResult result = search.run();

        ASSERT_EQ(result.stats.evaluated, budget);
        ASSERT_EQ(result.evaluated.size(), static_cast<std::size_t>(budget));
        for (std::size_t i = 0; i < result.evaluated.size(); ++i)
          EXPECT_EQ(result.evaluated[i].id, order[i].second) << "point " << i;
        EXPECT_EQ(result.stats.waves,
                  order[static_cast<std::size_t>(budget) - 1].first + 1);
      }
    }
  }
}

// The label and per-layer modes are built only for points a result
// keeps. Under collect_evaluated every point's must still denote its id,
// and a frontier point's must be the same whether or not the search
// collected the evaluated points.
TEST(DesignSearchProperties, LabelsAndModesMatchTheirIds) {
  for (const std::uint64_t seed : property_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const std::size_t num_layers = net.conv_layers.size();
    const std::uint64_t all_dual = (1ull << num_layers) - 1;

    const auto run_with = [&](bool collect) {
      DesignSearchOptions opts;
      opts.max_points = 0;
      opts.num_workers = 1;
      opts.collect_evaluated = collect;
      DesignSearch search(net, grid, opts);
      return search.run();
    };
    const DesignSearchResult collected = run_with(true);
    const DesignSearchResult plain = run_with(false);

    const auto expected_label = [&grid, all_dual](const DesignPointId& id) {
      std::ostringstream os;
      os << "pes" << grid.num_pes[static_cast<std::size_t>(id.pes)] << "-clk"
         << static_cast<int>(
                grid.clock_hz[static_cast<std::size_t>(id.clock)] / 1e6)
         << "-kw" << grid.kmem_words_per_pe[static_cast<std::size_t>(id.kmem)]
         << "-om"
         << grid.omemory_bytes[static_cast<std::size_t>(id.omem)] / 1024
         << "k";
      if (id.mode_mask != all_dual) os << "-m" << std::hex << id.mode_mask;
      return os.str();
    };
    std::map<DesignPointId, const EvaluatedDesignPoint*> by_id;
    ASSERT_FALSE(collected.evaluated.empty());
    for (const EvaluatedDesignPoint& p : collected.evaluated) {
      EXPECT_EQ(p.label, expected_label(p.id));
      ASSERT_EQ(p.layer_dual.size(), num_layers) << p.label;
      for (std::size_t i = 0; i < num_layers; ++i)
        EXPECT_EQ(p.layer_dual[i], (p.id.mode_mask >> i) & 1) << p.label;
      by_id[p.id] = &p;
    }
    ASSERT_EQ(plain.frontier.size(), collected.frontier.size());
    for (std::size_t i = 0; i < plain.frontier.size(); ++i) {
      const EvaluatedDesignPoint& f = plain.frontier[i];
      EXPECT_EQ(f.id, collected.frontier[i].id);
      ASSERT_EQ(by_id.count(f.id), 1u) << f.label;
      EXPECT_EQ(f.label, by_id[f.id]->label);
      EXPECT_EQ(f.layer_dual, by_id[f.id]->layer_dual) << f.label;
      EXPECT_EQ(collected.frontier[i].label, f.label);
      EXPECT_EQ(collected.frontier[i].layer_dual, f.layer_dual) << f.label;
    }
  }
}

// The paper's instantiation stays Pareto-optimal on the default grid for
// the paper's workload — the same invariant bench_micro's "dse" section
// gates in CI, pinned here at a smaller budget (dominators of the seed
// can only shrink with the budget, so 12000-point CI runs imply this).
TEST(DesignSearch, PaperPointOnDefaultGridFrontier) {
  DesignSearchOptions opts;
  opts.max_points = 3000;
  DesignSearch search(nn::alexnet(), DesignSpaceGrid::paper_default(), opts);
  const DesignSearchResult result = search.run();
  EXPECT_EQ(result.stats.evaluated, 3000);
  EXPECT_TRUE(result.stats.contains_paper_point);
  EXPECT_GT(result.stats.frontier, 0);
  EXPECT_GT(result.stats.pruned, 0);
  EXPECT_EQ(result.stats.infeasible, 0);

  // The frontier reports uniform dual-channel for the paper point and a
  // label without a mode suffix.
  for (const EvaluatedDesignPoint& p : result.frontier)
    if (p.array.num_pes == 576 && p.array.clock_hz == 700e6 &&
        p.array.kmem_words_per_pe == 256 &&
        p.memory.omemory_bytes == 25 * 1024 && p.uniform_mode()) {
      EXPECT_EQ(p.label, "pes576-clk700-kw256-om25k");
      EXPECT_TRUE(p.cost.feasible);
    }
}

// The whole paper grid for the paper's workload, as dse-alexnet's
// benchmark serves it (3x3/2 max pooling after conv1, conv2 and conv5),
// searched serially without a budget: every point once, in as many waves
// as the grid's largest distance from the paper point plus one.
TEST(DesignSearch, WholePaperGridForPooledAlexNet) {
  const nn::NetworkModel net = nn::alexnet();
  DesignSearchOptions opts;
  opts.max_points = 0;
  opts.num_workers = 1;
  opts.inter_layer.assign(net.conv_layers.size(), chain::InterLayerOp{});
  for (const std::size_t i : {0, 1, 4}) {
    opts.inter_layer[i].pool = true;
    opts.inter_layer[i].pool_params = nn::PoolParams{3, 2, 0};
  }
  DesignSearch search(net, DesignSpaceGrid::paper_default(), opts);
  const DesignSearchResult result = search.run();

  EXPECT_EQ(result.stats.evaluated, 6720 * 32);  // 215,040
  // Largest distance: 8 (pes) + 10 (clock) + 2 (kmem) + 4 (omem) + 5
  // (mode bits) = 29.
  EXPECT_EQ(result.stats.waves, 30);
  EXPECT_EQ(result.stats.frontier, 2746);
  EXPECT_TRUE(result.stats.contains_paper_point);
  EXPECT_GT(result.stats.pruned, 0);
}

// The search keeps no state between calls: a second run() starts from
// the seed again and returns what the first returned.
TEST(DesignSearch, SecondRunRepeatsTheFirst) {
  DesignSearchOptions opts;
  opts.max_points = 2000;
  opts.num_workers = 1;
  DesignSearch search(nn::alexnet(), DesignSpaceGrid::paper_default(), opts);
  const DesignSearchResult first = search.run();
  const DesignSearchResult second = search.run();

  EXPECT_EQ(first.stats.evaluated, 2000);
  EXPECT_EQ(second.stats.evaluated, first.stats.evaluated);
  EXPECT_EQ(second.stats.infeasible, first.stats.infeasible);
  EXPECT_EQ(second.stats.pruned, first.stats.pruned);
  EXPECT_EQ(second.stats.frontier, first.stats.frontier);
  EXPECT_EQ(second.stats.waves, first.stats.waves);
  EXPECT_EQ(second.stats.contains_paper_point,
            first.stats.contains_paper_point);
  ASSERT_EQ(second.frontier.size(), first.frontier.size());
  for (std::size_t i = 0; i < first.frontier.size(); ++i) {
    EXPECT_EQ(second.frontier[i].id, first.frontier[i].id);
    EXPECT_EQ(second.frontier[i].cost.total_cycles,
              first.frontier[i].cost.total_cycles);
    EXPECT_DOUBLE_EQ(second.frontier[i].cost.energy_j,
                     first.frontier[i].cost.energy_j);
  }
}

// Each (pes, kmem, omem) combo is planned once per search, also when a
// wave is costed on several threads: a fresh cache sees one lookup per
// layer per combo. Every combo of this grid maps, so no build stops at an
// unmappable layer.
TEST(DesignSearch, PooledSearchPlansEachComboOnce) {
  Rng rng(7);
  const nn::NetworkModel net = tiny_net(rng);
  DesignSpaceGrid grid;
  grid.num_pes = {64, 144, 288, 576, 1152, 2304};
  grid.clock_hz = {200e6, 350e6, 700e6, 900e6, 1100e6};
  grid.kmem_words_per_pe = {32, 64, 128, 256};
  grid.omemory_bytes = {4096, 8192, 16384, 25 * 1024};

  common::WorkPool pool(4);
  DesignSearchOptions opts;
  opts.max_points = 0;
  opts.num_workers = 4;
  opts.pool = &pool;
  opts.plan_cache = std::make_shared<PlanCache>();
  DesignSearch search(net, grid, opts);
  const DesignSearchResult result = search.run();

  const std::int64_t combos = static_cast<std::int64_t>(
      grid.num_pes.size() * grid.kmem_words_per_pe.size() *
      grid.omemory_bytes.size());
  const std::int64_t masks = std::int64_t{1} << net.conv_layers.size();
  ASSERT_EQ(result.stats.evaluated, grid.configurations() * masks);
  ASSERT_EQ(result.stats.infeasible, 0);
  EXPECT_EQ(opts.plan_cache->stats().lookups(),
            static_cast<std::uint64_t>(combos) * net.conv_layers.size());
}

TEST(DesignSearch, RejectsMalformedGridsAndNetworks) {
  DesignSpaceGrid bad = DesignSpaceGrid::paper_default();
  bad.clock_hz = {700e6, 700e6};  // not strictly increasing
  EXPECT_THROW(DesignSearch(nn::alexnet(), bad), std::logic_error);

  DesignSpaceGrid empty_axis = DesignSpaceGrid::paper_default();
  empty_axis.omemory_bytes.clear();
  EXPECT_THROW(DesignSearch(nn::alexnet(), empty_axis), std::logic_error);

  EXPECT_THROW(DesignSearch(nn::NetworkModel{},
                            DesignSpaceGrid::paper_default()),
               std::logic_error);

  // A mode mask holds 64 layers, also when the mode axis is off.
  Rng rng(11);
  DesignSpaceGrid fixed_modes = DesignSpaceGrid::paper_default();
  fixed_modes.per_layer_channel_modes = false;
  EXPECT_THROW(DesignSearch(tiny_net(rng, 65), fixed_modes), std::logic_error);
}

}  // namespace
}  // namespace chainnn::serve
