#ifndef HC2L_CORE_INDEX_FORMAT_H_
#define HC2L_CORE_INDEX_FORMAT_H_

#include <cstdint>

namespace hc2l {

/// On-disk format magics, the first 8 bytes of every serialized index.
/// Router::Open sniffs these to pick the right loader; each index's Load
/// rejects the other's files with kInvalidArgument. Each constant packs the
/// ASCII bytes of its name big-endian ('H' = 0x48 in the most-significant
/// byte), so a file written on a little-endian machine begins with the
/// reversed string ("4000L2CH" for HC2L0004).

/// Undirected index ("HC2L0004"): the mmap-able sectioned layout. After the
/// magic comes a section table (count, then {id, offset, bytes} triples)
/// and 64-byte-aligned section payloads: a metadata section (stats,
/// optional contraction, hierarchy, then the label store's table and arena
/// sizes), the offset tables, the label arena and — for indexes built with
/// route hints — the hint arena. Because every arena payload starts on a
/// 64-byte file offset, `Open(path, OpenMode::kMmap)` can point the label
/// arenas straight into the mapping — no copy, no O(n) validation scan.
/// The container is common/section_file.h; docs/format.md has the
/// byte-level specification.
inline constexpr uint64_t kHc2lIndexMagicV4 = 0x4843324c30303034ULL;

/// Directed index ("HC2D0004"): the same sectioned layout over the directed
/// metadata (contraction marker, vertex count, height, optional contraction
/// mapping, hierarchy), with one offsets section and one label arena per
/// direction (out, in) and, with route hints, one hint arena per direction.
inline constexpr uint64_t kDirectedIndexMagicV4 = 0x4843324430303034ULL;

/// Shard manifest ("HC2S0001"): not an index itself but a directory of
/// per-partition index files plus the boundary-vertex tables that make
/// cross-shard queries exact (src/shard/). Router::Open sniffs it like the
/// index magics and opens every member shard.
inline constexpr uint64_t kShardManifestMagic = 0x4843325330303031ULL;

}  // namespace hc2l

#endif  // HC2L_CORE_INDEX_FORMAT_H_
