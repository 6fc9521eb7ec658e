#ifndef HC2L_COMMON_SECTION_FILE_H_
#define HC2L_COMMON_SECTION_FILE_H_

/// The sectioned container of the index formats (HC2L0004 / HC2D0004) and
/// the one reader and writer both index flavours serialize through. Layout,
/// after the 8-byte magic:
///
///   u64 section_count
///   section_count x { u64 id, u64 offset, u64 bytes }   // offsets are
///   ...zero padding to the next 64-byte file offset...  // absolute
///   section payloads, each starting on a 64-byte file offset
///
/// Every payload offset is 64-byte aligned IN THE FILE, so an mmap of the
/// whole file (page-aligned, hence 64-aligned) yields cache-line-aligned
/// arena pointers — the alignment invariant the SIMD kernel asserts. The
/// reader validates the table against the real file size before anything
/// else: a forged offset or byte count is rejected before any payload is
/// read or any mapped page dereferenced (tests/load_fuzz_test.cc pins
/// this). Byte-level spec: docs/format.md.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/binary_io.h"
#include "common/label_arena.h"
#include "common/mmap_file.h"
#include "hc2l/status.h"

namespace hc2l::io {

/// Section ids. Meta holds the flavour's own metadata followed by each
/// direction's table and arena sizes; the offsets sections hold a
/// direction's raw offset tables (base | level_start | level_len), shared by
/// its label and hint stores; the arena sections are the raw uint32
/// buffers, each a whole number of cache lines.
inline constexpr uint64_t kSectionMeta = 1;
inline constexpr uint64_t kSectionLabelArena = 2;      // undirected / out
inline constexpr uint64_t kSectionInLabelArena = 3;    // directed only
inline constexpr uint64_t kSectionHintArena = 4;       // undirected / out
inline constexpr uint64_t kSectionInHintArena = 5;     // directed only
inline constexpr uint64_t kSectionLabelOffsets = 6;    // undirected / out
inline constexpr uint64_t kSectionInLabelOffsets = 7;  // directed only

/// The sections of one label direction: its offsets section, its label
/// arena and its hint arena. Hint arenas are optional — a file carries one
/// for every direction or for none.
struct DirectionSections {
  uint64_t offsets;
  uint64_t labels;
  uint64_t hints;
};

inline constexpr DirectionSections kUndirectedSections[] = {
    {kSectionLabelOffsets, kSectionLabelArena, kSectionHintArena}};
inline constexpr DirectionSections kDirectedSections[] = {
    {kSectionLabelOffsets, kSectionLabelArena, kSectionHintArena},
    {kSectionInLabelOffsets, kSectionInLabelArena, kSectionInHintArena}};

/// One index flavour's sectioned format.
struct SectionedFormat {
  uint64_t magic;
  const char* name;  // for error messages, e.g. "HC2L index file"
  std::span<const DirectionSections> directions;
};

/// Writes a whole index to `path`: the meta section (`write_body`, then each
/// direction's table and arena sizes), each direction's offsets section,
/// each label arena and — unless the index is hint-less, its hint stores
/// empty — each hint arena. labels[d] and hints[d] belong to
/// format.directions[d]; a hint store must mirror its label store's shape,
/// since the file stores the offset tables once per direction. Errors:
/// kUnavailable.
Status WriteSectionedIndex(const std::string& path,
                           const SectionedFormat& format,
                           std::span<const LabelStore* const> labels,
                           std::span<const LabelStore* const> hints,
                           const std::function<bool(std::FILE*)>& write_body);

/// Reads an index written by WriteSectionedIndex into the flavour's stores.
/// `parse_body` reads the flavour's metadata from a reader bounded to the
/// meta section; `validate_structure` runs once the offset tables are
/// attached and shape-checked, before any arena byte is read. The hint
/// stores stay empty when the file has no hint sections. With `use_mmap`
/// the file is mapped into *mapping and the offset tables and arenas are
/// views into it (no copy, no arena page touched); otherwise they are read
/// into owned buffers and every hint entry is range-checked (O(entries) —
/// a mapped open leaves that to the route walk's per-step checks).
/// Errors: kNotFound (cannot open), kInvalidArgument (wrong magic),
/// kDataLoss (truncated or corrupt).
Status ReadSectionedIndex(const std::string& path,
                          const SectionedFormat& format, bool use_mmap,
                          std::span<LabelStore* const> labels,
                          std::span<LabelStore* const> hints,
                          const std::function<bool(Reader*)>& parse_body,
                          const std::function<bool()>& validate_structure,
                          std::shared_ptr<MappedFile>* mapping);

}  // namespace hc2l::io

#endif  // HC2L_COMMON_SECTION_FILE_H_
