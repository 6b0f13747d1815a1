#include "serve/design_search.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {

namespace {

// Per-layer cost models for one (chain length, kmem words, omem bytes)
// combination — everything a point needs except its clock and channel
// mask, both of which are outside the plan entirely. A search over C
// clocks and 2^L masks builds each combination exactly once.
struct ComboModels {
  bool feasible = true;
  std::string reason;
  // [layer][mode]; mode 0 = single-channel, 1 = dual-channel. The plan
  // is mode-independent (dual_channel is outside PlanKey), so both
  // models read the same plan, re-stamped with the mode they cost.
  std::vector<std::array<dataflow::LayerCostModel, 2>> layers;
  double area_gates = 0.0;
};

std::uint64_t combo_key(std::int32_t pes, std::int32_t kmem,
                        std::int32_t omem) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pes)) << 42) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(kmem)) << 21) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(omem));
}

// Insert-if-undominated, split so only admitted points are built: true
// when no member dominates a point of cost `cost`, after evicting the
// members it dominates; the caller then appends the point. The final
// content is the unique Pareto-maximal subset of everything ever
// offered, whatever the arrival order.
bool admit(std::vector<EvaluatedDesignPoint>& frontier,
           const dataflow::PointCost& cost) {
  for (const EvaluatedDesignPoint& e : frontier)
    if (e.cost.dominates(cost)) return false;
  std::erase_if(frontier, [&cost](const EvaluatedDesignPoint& e) {
    return cost.dominates(e.cost);
  });
  return true;
}

template <typename T>
std::int32_t index_of(const std::vector<T>& axis, T value) {
  for (std::size_t i = 0; i < axis.size(); ++i)
    if (axis[i] == value) return static_cast<std::int32_t>(i);
  return -1;
}

}  // namespace

bool EvaluatedDesignPoint::uniform_mode() const {
  if (layer_dual.empty()) return true;
  for (const std::uint8_t d : layer_dual)
    if (d != layer_dual.front()) return false;
  return true;
}

DesignSpaceGrid DesignSpaceGrid::paper_default() {
  DesignSpaceGrid g;
  g.num_pes = {72,  144, 216, 288,  360,  432,  504,  576,
               648, 720, 864, 1008, 1152, 1440, 1728, 2304};
  for (int mhz = 200; mhz <= 1200; mhz += 50)
    g.clock_hz.push_back(static_cast<double>(mhz) * 1e6);
  g.kmem_words_per_pe = {64, 128, 256, 512};
  // The paper's 25KB oMemory caps the axis: larger oMemories strictly
  // reduce cycles through better output blocking, so extending above the
  // paper's provisioning would push the 576@700 instantiation off the
  // frontier by construction. The search asks what *cheaper* memory
  // provisioning trades away, not whether more SRAM helps (it does).
  g.omemory_bytes = {4 * 1024, 8 * 1024, 12 * 1024, 16 * 1024, 25 * 1024};
  return g;
}

DesignSearch::DesignSearch(nn::NetworkModel network, DesignSpaceGrid grid,
                           DesignSearchOptions options)
    : net_(std::move(network)),
      grid_(std::move(grid)),
      opts_(std::move(options)) {
  CHAINNN_CHECK_MSG(!net_.conv_layers.empty(),
                    "cannot search an empty network");
  CHAINNN_CHECK_MSG(opts_.batch >= 1,
                    "batch must be >= 1, got " << opts_.batch);
  const auto strictly_increasing = [](const auto& axis) {
    if (axis.empty()) return false;
    for (std::size_t i = 1; i < axis.size(); ++i)
      if (!(axis[i - 1] < axis[i])) return false;
    return true;
  };
  CHAINNN_CHECK_MSG(strictly_increasing(grid_.num_pes) &&
                        strictly_increasing(grid_.clock_hz) &&
                        strictly_increasing(grid_.kmem_words_per_pe) &&
                        strictly_increasing(grid_.omemory_bytes),
                    "every grid axis must be non-empty and strictly "
                    "increasing");

  const nn::ConvLayerParams& first = net_.conv_layers.front();
  layers_ = resolve_network_layers(net_, opts_.batch, first.in_height,
                                   first.in_width, opts_.inter_layer);
  CHAINNN_CHECK_MSG(layers_.size() <= 64,
                    "a channel-mode mask holds at most 64 layers, got "
                        << layers_.size());
}

DesignSearchResult DesignSearch::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t num_layers = layers_.size();
  const std::uint64_t all_dual =
      num_layers >= 64 ? ~0ull : ((1ull << num_layers) - 1);

  // The paper point's canonical id, when the grid contains it.
  DesignPointId paper_id;
  paper_id.pes = index_of<std::int64_t>(grid_.num_pes, 576);
  paper_id.clock = index_of<double>(grid_.clock_hz, 700e6);
  paper_id.kmem = index_of<std::int64_t>(grid_.kmem_words_per_pe, 256);
  paper_id.omem = index_of<std::uint64_t>(grid_.omemory_bytes, 25 * 1024);
  paper_id.mode_mask = all_dual;
  const bool grid_has_paper_point = paper_id.pes >= 0 && paper_id.clock >= 0 &&
                                    paper_id.kmem >= 0 && paper_id.omem >= 0;

  DesignPointId seed = paper_id;
  if (!grid_has_paper_point) {
    seed.pes = static_cast<std::int32_t>(grid_.num_pes.size() / 2);
    seed.clock = static_cast<std::int32_t>(grid_.clock_hz.size() / 2);
    seed.kmem = static_cast<std::int32_t>(grid_.kmem_words_per_pe.size() / 2);
    seed.omem = static_cast<std::int32_t>(grid_.omemory_bytes.size() / 2);
  }

  const auto build_combo = [this](const DesignPointId& id) {
    ComboModels built;
    dataflow::ArrayShape array;
    array.num_pes = grid_.num_pes[static_cast<std::size_t>(id.pes)];
    array.kmem_words_per_pe =
        grid_.kmem_words_per_pe[static_cast<std::size_t>(id.kmem)];
    array.clock_hz = grid_.clock_hz.front();  // unused by the models
    mem::HierarchyConfig memory;
    memory.omemory_bytes =
        grid_.omemory_bytes[static_cast<std::size_t>(id.omem)];
    memory.kmemory_bytes = static_cast<std::uint64_t>(array.num_pes) *
                           static_cast<std::uint64_t>(
                               array.kmem_words_per_pe) *
                           memory.word_bytes;
    built.area_gates = opts_.area.total_gates(
        array.num_pes, dataflow::point_sram_bytes(array, memory));
    for (const nn::ConvLayerParams& layer : layers_) {
      try {
        dataflow::ExecutionPlan plan =
            opts_.plan_cache ? opts_.plan_cache->plan_for(layer, array, memory)
                             : dataflow::plan_layer(layer, array, memory);
        std::array<dataflow::LayerCostModel, 2> modes;
        plan.array.dual_channel = false;
        modes[0] = dataflow::layer_cost_model(plan);
        plan.array.dual_channel = true;
        modes[1] = dataflow::layer_cost_model(plan);
        built.layers.push_back(modes);
      } catch (const std::exception& e) {
        built.feasible = false;
        built.reason = layer.name + ": " + e.what();
        break;
      }
    }
    return built;
  };

  // Costs a point; `refs` is the caller's scratch. The costing needs
  // only the point's clock and chain length, so a wave slot holds just
  // the cost, and `expand` below builds the full point for the points a
  // result keeps.
  const auto cost_point = [this, num_layers](
                              const DesignPointId& id,
                              const ComboModels& combo,
                              std::vector<const dataflow::LayerCostModel*>&
                                  refs) {
    dataflow::PointCost cost;
    if (!combo.feasible) {
      cost.feasible = false;
      cost.infeasible_reason = combo.reason;
      return cost;
    }
    refs.clear();
    for (std::size_t i = 0; i < num_layers; ++i)
      refs.push_back(&combo.layers[i][(id.mode_mask >> i) & 1]);
    return dataflow::accumulate_point_cost(
        refs, grid_.clock_hz[static_cast<std::size_t>(id.clock)],
        grid_.num_pes[static_cast<std::size_t>(id.pes)], opts_.batch,
        opts_.energy, combo.area_gates);
  };

  // The configuration, label and per-layer modes a point denotes.
  const auto expand = [this, num_layers, all_dual](
                          const DesignPointId& id,
                          const dataflow::PointCost& cost) {
    EvaluatedDesignPoint p;
    p.id = id;
    p.array.num_pes = grid_.num_pes[static_cast<std::size_t>(id.pes)];
    p.array.kmem_words_per_pe =
        grid_.kmem_words_per_pe[static_cast<std::size_t>(id.kmem)];
    p.array.clock_hz = grid_.clock_hz[static_cast<std::size_t>(id.clock)];
    p.memory.omemory_bytes =
        grid_.omemory_bytes[static_cast<std::size_t>(id.omem)];
    p.memory.kmemory_bytes = static_cast<std::uint64_t>(p.array.num_pes) *
                             static_cast<std::uint64_t>(
                                 p.array.kmem_words_per_pe) *
                             p.memory.word_bytes;
    p.layer_dual.resize(num_layers);
    for (std::size_t i = 0; i < num_layers; ++i)
      p.layer_dual[i] = static_cast<std::uint8_t>((id.mode_mask >> i) & 1);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "pes%lld-clk%d-kw%lld-om%lluk",
                  static_cast<long long>(p.array.num_pes),
                  static_cast<int>(p.array.clock_hz / 1e6),
                  static_cast<long long>(p.array.kmem_words_per_pe),
                  static_cast<unsigned long long>(p.memory.omemory_bytes /
                                                  1024));
    p.label = buf;
    if (id.mode_mask != all_dual) {
      std::snprintf(buf, sizeof(buf), "-m%llx",
                    static_cast<unsigned long long>(id.mode_mask));
      p.label += buf;
    }
    p.cost = cost;
    return p;
  };

  // A grid move changes a point's distance from the seed (the sum of
  // |axis index - seed index| plus the mode bits that differ) by exactly
  // one. A point's parent is the point with its first off-seed component
  // (pes, clock, kmem, omem, then the mode bits by layer) stepped one
  // place back toward the seed, so every point but the seed has one
  // parent, one wave nearer. `children` inverts that: it steps away from
  // the seed along every component up to and including the first
  // off-seed one, so the children of a wave are the next wave, each
  // point once.
  const auto children = [this, num_layers, &seed](
                            const DesignPointId& id,
                            std::vector<DesignPointId>& out) {
    // Appends the steps away from the seed along `axis`; true when the
    // axis is off-seed, i.e. the last component with children.
    const auto step = [&out, &id, &seed](std::int32_t DesignPointId::* axis,
                                         std::size_t size) {
      const std::int32_t at = id.*axis;
      DesignPointId n = id;
      if (at <= seed.*axis && at > 0) {
        n.*axis = at - 1;
        out.push_back(n);
      }
      if (at >= seed.*axis && static_cast<std::size_t>(at) + 1 < size) {
        n.*axis = at + 1;
        out.push_back(n);
      }
      return at != seed.*axis;
    };
    if (step(&DesignPointId::pes, grid_.num_pes.size()) ||
        step(&DesignPointId::clock, grid_.clock_hz.size()) ||
        step(&DesignPointId::kmem, grid_.kmem_words_per_pe.size()) ||
        step(&DesignPointId::omem, grid_.omemory_bytes.size()) ||
        !grid_.per_layer_channel_modes)
      return;
    // A flipped mode bit is as far from the seed as it goes.
    for (std::size_t i = 0; i < num_layers; ++i) {
      const std::uint64_t bit = 1ull << i;
      if ((id.mode_mask ^ seed.mode_mask) & bit) return;
      DesignPointId n = id;
      n.mode_mask ^= bit;
      out.push_back(n);
    }
  };

  const bool serial = opts_.num_workers == 1;
  common::WorkPool* pool =
      serial ? nullptr
             : (opts_.pool ? opts_.pool : &common::WorkPool::shared());

  DesignSearchResult result;
  DesignSearchStats& stats = result.stats;

  // Only the costing leaves this thread, so the search state (these,
  // and the frontier in `result`) has one owner and lives in this frame:
  // each run() starts from scratch. Beyond what the result returns, nothing
  // is kept per evaluated point.
  std::unordered_map<std::uint64_t, ComboModels> combos;
  std::vector<DesignPointId> wave = {seed};
  while (!wave.empty()) {
    ++stats.waves;

    // 1. Models for every combo this wave reaches first.
    std::vector<const ComboModels*> models(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const DesignPointId& id = wave[i];
      const auto [it, fresh] =
          combos.try_emplace(combo_key(id.pes, id.kmem, id.omem));
      if (fresh) it->second = build_combo(id);
      models[i] = &it->second;
    }

    // 2. Cost every point into its own slot: a pure read of `models`,
    // and the only work a parallel search hands to the pool.
    std::vector<dataflow::PointCost> costs(wave.size());
    const std::size_t chunk = 64;
    const std::size_t num_chunks = (wave.size() + chunk - 1) / chunk;
    const auto cost_chunk = [&](std::size_t c) {
      std::vector<const dataflow::LayerCostModel*> refs;
      refs.reserve(num_layers);
      const std::size_t hi = std::min(wave.size(), (c + 1) * chunk);
      for (std::size_t i = c * chunk; i < hi; ++i)
        costs[i] = cost_point(wave[i], *models[i], refs);
    };
    if (serial || num_chunks == 1) {
      for (std::size_t c = 0; c < num_chunks; ++c) cost_chunk(c);
    } else {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(num_chunks);
      for (std::size_t c = 0; c < num_chunks; ++c)
        tasks.push_back([&cost_chunk, c] { cost_chunk(c); });
      pool->run_batch(std::move(tasks));
    }

    // 3. In wave order: offer, then collect the children. Pruned or
    // not, a point has children: coverage of the grid is what makes the
    // frontier the exact Pareto set (see header comment).
    std::vector<DesignPointId> next;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (opts_.collect_evaluated)
        result.evaluated.push_back(expand(wave[i], costs[i]));
      if (!costs[i].feasible)
        ++stats.infeasible;
      else if (admit(result.frontier, costs[i]))
        result.frontier.push_back(expand(wave[i], costs[i]));
      children(wave[i], next);
    }
    stats.evaluated += static_cast<std::int64_t>(wave.size());

    // Canonical order: a max_points truncation keeps the lowest ids.
    std::sort(next.begin(), next.end());
    if (opts_.max_points > 0) {
      const std::int64_t remaining = opts_.max_points - stats.evaluated;
      if (remaining <= 0) break;
      if (static_cast<std::int64_t>(next.size()) > remaining)
        next.resize(static_cast<std::size_t>(remaining));
    }
    wave = std::move(next);
  }

  std::sort(result.frontier.begin(), result.frontier.end(),
            [](const EvaluatedDesignPoint& a, const EvaluatedDesignPoint& b) {
              return a.id < b.id;
            });
  stats.frontier = static_cast<std::int64_t>(result.frontier.size());
  stats.pruned = stats.evaluated - stats.infeasible - stats.frontier;
  if (grid_has_paper_point)
    for (const EvaluatedDesignPoint& p : result.frontier)
      if (p.id == paper_id) {
        stats.contains_paper_point = true;
        break;
      }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.points_per_sec =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.evaluated) / stats.wall_seconds
          : 0.0;
  return result;
}

}  // namespace chainnn::serve
