#ifndef HC2L_CORE_QUERY_COMMON_H_
#define HC2L_CORE_QUERY_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/label_arena.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "hierarchy/tree_code.h"

namespace hc2l {

/// Reorders *cut into ascending coverability-score order (Eq. 6 /
/// Algorithm 5 lines 2-5, "most coverable last"), ties broken by global id —
/// the deterministic rank both builders label in. `score` is parallel to the
/// incoming *cut.
inline void ApplyCoverabilityOrder(std::vector<Vertex>* cut,
                                   const std::vector<uint64_t>& score,
                                   const std::vector<Vertex>& to_global) {
  const size_t m = cut->size();
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (score[a] != score[b]) return score[a] < score[b];
    return to_global[(*cut)[a]] < to_global[(*cut)[b]];
  });
  std::vector<Vertex> ranked(m);
  for (size_t i = 0; i < m; ++i) ranked[i] = (*cut)[order[i]];
  *cut = std::move(ranked);
}

/// The prefix-tracking search dispatch shared by Hc2lBuilder::LabelCutSet
/// and DirectedHc2lBuilder::RankAndLabel (Algorithm 5 lines 6-7): runs
/// `search(i, mask_i)` for every cut index i, where mask_i marks the tracked
/// prefix {cut[0..i-1]} (all-zero without tail pruning). The O(m*n) mask
/// materialization is only paid when the pool can actually run searches
/// concurrently; the serial tail-pruning path updates a single mask in
/// place, and the no-pruning path shares one empty mask across all parallel
/// searches. `search` must be safe to call concurrently for distinct i.
template <typename SearchFn>
void RunPrefixMaskedSearches(ThreadPool& pool, bool tail_pruning,
                             const std::vector<Vertex>& cut,
                             size_t num_vertices, const SearchFn& search) {
  const size_t m = cut.size();
  if (tail_pruning && pool.NumThreads() > 1) {
    std::vector<std::vector<uint8_t>> prefix_masks(m);
    std::vector<uint8_t> mask(num_vertices, 0);
    for (size_t i = 0; i < m; ++i) {
      prefix_masks[i] = mask;
      mask[cut[i]] = 1;
    }
    pool.ParallelFor(m, [&](size_t i) { search(i, prefix_masks[i]); });
  } else if (tail_pruning) {
    std::vector<uint8_t> mask(num_vertices, 0);
    for (size_t i = 0; i < m; ++i) {
      search(i, mask);
      mask[cut[i]] = 1;
    }
  } else {
    const std::vector<uint8_t> empty_mask(num_vertices, 0);
    pool.ParallelFor(m, [&](size_t i) { search(i, empty_mask); });
  }
}

/// Targets per DistanceMatrix tile, shared by both indexes and the query
/// engine's default. ~2k label arrays (averaging well under 256 B each on
/// road networks) keep a tile's working set inside a typical 512 KB-1 MB L2
/// while every source min-reduces against it.
inline constexpr size_t kMatrixTargetTile = 2048;

/// A non-trivial batch target awaiting its min-plus reduction.
struct PendingTarget {
  uint32_t out_index;
  Vertex core;
  Dist offset;  // contraction detour (source side + target side)
};

/// Target-side state hoisted out of the per-source loop, shared by both
/// index flavours (the query engine and facade template over
/// `Index::ResolvedTargets`, which both classes alias to this): contraction
/// root, pendant-tree detour into the core and packed tree code, resolved
/// once and reused by every source. Read-only after construction, so any
/// number of threads may share one instance. Without contraction core ids
/// equal the originals and detours are zero. A kInfDist detour marks a
/// one-way pendant target unreachable from the core (directed only).
struct ResolvedTargetSet {
  std::vector<Vertex> original;  // the targets exactly as passed
  std::vector<Vertex> core;      // contraction root (core ids)
  std::vector<Dist> detour;      // d into the core; 0 for core vertices
  std::vector<TreeCode> code;    // packed tree code of the root

  size_t size() const { return original.size(); }
};

/// Reusable per-thread working memory of the batch fast path. The
/// request/response API promises a zero-allocation hot path for span-output
/// batch and matrix queries, so every intermediate the old code allocated
/// per call — the pending list, its LCA levels, the counting-sort buffers —
/// lives here instead and keeps its capacity across calls. One instance per
/// thread (TlsQueryScratch) is enough: the batch entry points never nest.
struct QueryScratch {
  std::vector<PendingTarget> pending;
  std::vector<uint32_t> level_of;
  // SweepPendingByLevel's counting sort.
  std::vector<uint32_t> bucket_pos;
  std::vector<uint32_t> order;
  std::vector<uint32_t> cursor;
  // SelectKNearestInto's candidate ranking.
  std::vector<uint32_t> knn_idx;
};

/// The calling thread's QueryScratch. Function-local so the first query on a
/// thread constructs it (empty vectors — no allocation until first use).
inline QueryScratch& TlsQueryScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

/// Pass 1 of the batch fast path over pre-resolved targets, shared by both
/// index flavours: answers the trivial cases inline (s == t, two vertices of
/// one pendant tree via `same_tree`, a detour already unreachable) and
/// collects the rest into `scratch->pending` / `scratch->level_of` for the
/// level sweep. `root_s`/`source_offset` are the source's contraction root
/// (core id) and its detour into the core; `contracted` gates the same-tree
/// branch (without contraction rt.core[i] == root_s can only mean t ==
/// source, which is answered before it). `same_tree(t)` must return the
/// exact in-tree distance d(source, t) (directed: d(source -> t)).
template <typename SameTreeFn>
void CollectPendingTargets(const ResolvedTargetSet& rt, size_t begin,
                           size_t end, Vertex source, Vertex root_s,
                           Dist source_offset, TreeCode s_code,
                           bool contracted, const SameTreeFn& same_tree,
                           QueryScratch* scratch, Dist* out) {
  scratch->pending.clear();
  scratch->level_of.clear();
  for (size_t i = begin; i < end; ++i) {
    const Vertex t = rt.original[i];
    if (t == source) {
      out[i] = 0;
      continue;
    }
    if (contracted && rt.core[i] == root_s) {
      out[i] = same_tree(t);
      continue;
    }
    const Dist offset = AddDist(source_offset, rt.detour[i]);
    if (offset == kInfDist) {
      out[i] = kInfDist;
      continue;
    }
    scratch->pending.push_back({static_cast<uint32_t>(i), rt.core[i], offset});
    scratch->level_of.push_back(TreeCodeLcaLevel(s_code, rt.code[i]));
  }
}

/// Pass 2 of the batch fast path, shared by the undirected index (both label
/// stores are the same object) and the directed one (source side reads
/// out-labels, target side in-labels): counting-sorts `scratch->pending` by
/// LCA level (scratch->level_of, parallel to pending, values <= height) and
/// sweeps each level bucket against the source's level array at
/// source_labels.base + ... = s_idx, prefetching the next target's array
/// while reducing the current one. Writes out[pending[p].out_index] for
/// every pending entry. The counting-sort buffers reuse `scratch` capacity,
/// so steady-state calls do not allocate.
inline void SweepPendingByLevel(const LabelStore& source_labels,
                                const LabelStore& target_labels,
                                uint32_t s_base, uint32_t height,
                                QueryScratch* scratch, Dist* out) {
  constexpr uint32_t kUnreachableLabel = UINT32_MAX;
  const std::vector<PendingTarget>& pending = scratch->pending;
  const std::vector<uint32_t>& level_of = scratch->level_of;
  std::vector<uint32_t>& bucket_pos = scratch->bucket_pos;
  bucket_pos.assign(height + 2, 0);
  for (const uint32_t level : level_of) ++bucket_pos[level + 1];
  for (uint32_t l = 0; l <= height; ++l) bucket_pos[l + 1] += bucket_pos[l];
  std::vector<uint32_t>& order = scratch->order;
  order.resize(pending.size());
  {
    std::vector<uint32_t>& cursor = scratch->cursor;
    cursor.assign(bucket_pos.begin(), bucket_pos.end() - 1);
    for (size_t p = 0; p < pending.size(); ++p) {
      order[cursor[level_of[p]]++] = static_cast<uint32_t>(p);
    }
  }

  // Per level, resolve the source array once and sweep the bucket.
  const uint32_t* arena = target_labels.arena.data();
  for (uint32_t level = 0; level <= height; ++level) {
    const uint32_t bucket_begin = bucket_pos[level];
    const uint32_t bucket_end = bucket_pos[level + 1];
    if (bucket_begin == bucket_end) continue;
    const uint32_t s_idx = s_base + level;
    const uint32_t* a =
        source_labels.arena.data() + source_labels.level_start[s_idx];
    const uint32_t len_a = source_labels.level_len[s_idx];
    simd::PrefetchArray(a, len_a * sizeof(uint32_t));
    for (uint32_t p = bucket_begin; p < bucket_end; ++p) {
      if (p + 1 < bucket_end) {
        const PendingTarget& next = pending[order[p + 1]];
        const uint32_t n_idx = target_labels.base[next.core] + level;
        simd::PrefetchArray(arena + target_labels.level_start[n_idx],
                            target_labels.level_len[n_idx] * sizeof(uint32_t));
      }
      const PendingTarget& cur = pending[order[p]];
      const uint32_t t_idx = target_labels.base[cur.core] + level;
      const uint32_t* b = arena + target_labels.level_start[t_idx];
      const uint32_t len = std::min(len_a, target_labels.level_len[t_idx]);
      const uint32_t best = simd::MinPlus(a, b, len);
      out[cur.out_index] =
          best >= kUnreachableLabel ? kInfDist : cur.offset + best;
    }
  }
}

/// The sequential many-to-many sweep shared by both indexes'
/// DistanceMatrix: targets resolved once (by the caller), swept in tiles so
/// one tile's label arrays stay L2-resident while every source min-reduces
/// against it. `matrix` must be pre-sized to sources.size() rows of
/// rt.size() entries.
template <typename Index>
void TiledDistanceMatrix(const Index& index,
                         const typename Index::ResolvedTargets& rt,
                         std::span<const Vertex> sources,
                         std::vector<std::vector<Dist>>* matrix) {
  for (size_t tile = 0; tile < rt.size(); tile += kMatrixTargetTile) {
    const size_t tile_end = std::min(rt.size(), tile + kMatrixTargetTile);
    for (size_t i = 0; i < sources.size(); ++i) {
      index.BatchQueryResolved(sources[i], rt, tile, tile_end,
                               (*matrix)[i].data());
    }
  }
}

/// Deterministic k-nearest selection shared by both indexes and the parallel
/// query engine: candidates are ranked by (distance, candidate position), so
/// ties break by input order — the same result regardless of sort internals
/// or how many threads produced `dists`. Unreachable candidates are excluded,
/// so fewer than k entries may return.
inline std::vector<std::pair<Dist, Vertex>> SelectKNearest(
    std::span<const Dist> dists, std::span<const Vertex> candidates,
    size_t k) {
  std::vector<uint32_t> idx;
  idx.reserve(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    if (dists[i] != kInfDist) idx.push_back(i);
  }
  const size_t keep = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + keep, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (dists[a] != dists[b]) return dists[a] < dists[b];
                      return a < b;
                    });
  std::vector<std::pair<Dist, Vertex>> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.emplace_back(dists[idx[i]], candidates[idx[i]]);
  }
  return out;
}

/// Span-writing SelectKNearest for the request/response API: identical
/// selection (ranked by (distance, candidate position), unreachable
/// excluded) written into caller-owned arrays. `out_dists`/`out_vertices`
/// must hold at least min(k, candidates.size()) slots. The ranking buffer
/// reuses `scratch->knn_idx` capacity. Returns the number of slots written.
inline size_t SelectKNearestInto(std::span<const Dist> dists,
                                 std::span<const Vertex> candidates, size_t k,
                                 Dist* out_dists, Vertex* out_vertices,
                                 QueryScratch* scratch) {
  std::vector<uint32_t>& idx = scratch->knn_idx;
  idx.clear();
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    if (dists[i] != kInfDist) idx.push_back(i);
  }
  const size_t keep = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + keep, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (dists[a] != dists[b]) return dists[a] < dists[b];
                      return a < b;
                    });
  for (size_t i = 0; i < keep; ++i) {
    out_dists[i] = dists[idx[i]];
    out_vertices[i] = candidates[idx[i]];
  }
  return keep;
}

}  // namespace hc2l

#endif  // HC2L_CORE_QUERY_COMMON_H_
