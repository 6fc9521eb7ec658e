#include "common/section_file.h"

#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace hc2l::io {
namespace {

/// Hard cap on table entries; the formats define seven. Anything claiming
/// more is corrupt, rejected before the count drives an allocation.
constexpr uint64_t kMaxSections = 64;

struct SectionEntry {
  uint64_t id = 0;
  uint64_t offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t bytes = 0;
};

/// Streams a sectioned file: Start writes the magic and a zeroed table,
/// Section writes each payload from the next 64-byte offset, Finish seeks
/// back and writes the real table. Every method returns false on I/O
/// failure.
class SectionWriter {
 public:
  explicit SectionWriter(std::FILE* f) : f_(f) {}

  bool Start(uint64_t magic, size_t section_count) {
    sections_.resize(section_count);
    if (!WriteValue(f_, magic)) return false;
    const uint64_t count = section_count;
    if (!WriteValue(f_, count)) return false;
    const long table = std::ftell(f_);
    if (table < 0) return false;
    table_pos_ = table;
    // Placeholder table; Finish overwrites it with the recorded entries.
    for (const SectionEntry& entry : sections_) {
      if (!WritePod(f_, &entry, sizeof(entry))) return false;
    }
    return PadTo64();
  }

  /// Writes the next section: `id`, then whatever `payload` writes.
  bool Section(uint64_t id, const std::function<bool()>& payload) {
    SectionEntry& entry = sections_[next_++];
    if (!PadTo64()) return false;
    const long begin = std::ftell(f_);
    if (begin < 0 || !payload()) return false;
    const long end = std::ftell(f_);
    if (end < 0) return false;
    entry = {id, static_cast<uint64_t>(begin),
             static_cast<uint64_t>(end - begin)};
    return true;
  }

  bool Finish() {
    HC2L_CHECK_EQ(next_, sections_.size());
    const long end = std::ftell(f_);
    if (end < 0) return false;
    if (std::fseek(f_, table_pos_, SEEK_SET) != 0) return false;
    for (const SectionEntry& entry : sections_) {
      if (!WritePod(f_, &entry, sizeof(entry))) return false;
    }
    return std::fseek(f_, end, SEEK_SET) == 0;
  }

 private:
  bool PadTo64() {
    const long pos = std::ftell(f_);
    if (pos < 0) return false;
    static constexpr char kZeros[64] = {};
    const size_t pad = (64 - static_cast<size_t>(pos) % 64) % 64;
    return pad == 0 || WritePod(f_, kZeros, pad);
  }

  std::FILE* f_;
  long table_pos_ = 0;
  size_t next_ = 0;
  std::vector<SectionEntry> sections_;
};

/// Reads and validates the section table through the bounded reader (which
/// is positioned just after the magic). `file_size` is the real on-disk
/// size; every entry must satisfy: 64-aligned offset, offset + bytes within
/// the file, no duplicate ids.
bool ReadSectionTable(Reader* r, uint64_t file_size,
                      std::vector<SectionEntry>* sections) {
  uint64_t count = 0;
  if (!ReadValue(r, &count)) return false;
  if (count == 0 || count > kMaxSections) return false;
  if (!r->CanHold(count, sizeof(SectionEntry))) return false;
  sections->resize(count);
  if (!r->Read(sections->data(), count * sizeof(SectionEntry))) return false;
  for (size_t i = 0; i < sections->size(); ++i) {
    const SectionEntry& s = (*sections)[i];
    if (s.offset % 64 != 0) return false;
    if (s.offset > file_size || s.bytes > file_size - s.offset) return false;
    for (size_t j = 0; j < i; ++j) {
      if ((*sections)[j].id == s.id) return false;
    }
  }
  return true;
}

/// The entry for `id`, or nullptr when absent.
const SectionEntry* FindSection(const std::vector<SectionEntry>& sections,
                                uint64_t id) {
  for (const SectionEntry& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

/// Meta-section form of a label store: just the table and arena sizes. One
/// record covers a direction's label and hint stores — the hint store
/// mirrors the label store's shape exactly (Route indexes both with the
/// same offsets), so its arena has the same entry count and its tables are
/// the same bytes.
struct LabelStoreCounts {
  uint64_t base_count = 0;     // base.size() == core vertices + 1
  uint64_t array_count = 0;    // level_start.size() == level_len.size()
  uint64_t arena_entries = 0;  // entries of each arena, cache-line rounded
};

bool WriteLabelStoreCounts(std::FILE* f, const LabelStore& labels) {
  const LabelStoreCounts c = {labels.base.size(), labels.level_start.size(),
                              labels.arena.size()};
  return WriteValue(f, c);
}

bool ReadLabelStoreCounts(Reader* r, LabelStoreCounts* c) {
  return ReadValue(r, c) && c->base_count >= 1 &&
         c->arena_entries == LabelArena::PaddedCapacity(c->arena_entries);
}

/// True when the offsets section holds exactly base | level_start |
/// level_len for these table sizes. The per-count divisions run first so
/// the sum cannot overflow on forged counts.
bool OffsetsSectionMatches(const SectionEntry& s, const LabelStoreCounts& c) {
  if (c.base_count > s.bytes / sizeof(uint32_t) ||
      c.array_count > s.bytes / (2 * sizeof(uint32_t))) {
    return false;
  }
  return (c.base_count + 2 * c.array_count) * sizeof(uint32_t) == s.bytes;
}

/// The offsets section payload: the three tables back to back, no length
/// prefixes (the counts live in the meta section).
bool WriteLabelStoreOffsets(std::FILE* f, const LabelStore& labels) {
  const auto raw = [&](const U32Array& a) {
    return a.size() == 0 || WritePod(f, a.data(), a.size() * sizeof(uint32_t));
  };
  return raw(labels.base) && raw(labels.level_start) && raw(labels.level_len);
}

/// Attaches zero-copy views into a mapped offsets section to a label store
/// and (when non-null) its hint store — the same bytes, viewed twice, which
/// makes the shapes match by construction.
void AttachOffsetsView(const uint8_t* section, const LabelStoreCounts& c,
                       LabelStore* labels, LabelStore* hints) {
  const uint32_t* p = reinterpret_cast<const uint32_t*>(section);
  for (LabelStore* store : {labels, hints}) {
    if (store == nullptr) continue;
    store->base.ResetView(p, c.base_count);
    store->level_start.ResetView(p + c.base_count, c.array_count);
    store->level_len.ResetView(p + c.base_count + c.array_count,
                               c.array_count);
  }
}

/// Heap counterpart: reads owned copies of the tables from a reader bounded
/// to the offsets section; the hint store, when non-null, deep-copies the
/// label store's.
bool ReadLabelStoreOffsets(Reader* r, const LabelStoreCounts& c,
                           LabelStore* labels, LabelStore* hints) {
  const auto raw = [&](U32Array* a, uint64_t count) {
    if (!r->CanHold(count, sizeof(uint32_t))) return false;
    a->ResizeOwned(count);
    return count == 0 || r->Read(a->MutableData(), count * sizeof(uint32_t));
  };
  if (!raw(&labels->base, c.base_count) ||
      !raw(&labels->level_start, c.array_count) ||
      !raw(&labels->level_len, c.array_count)) {
    return false;
  }
  if (hints != nullptr) {
    hints->base = labels->base;
    hints->level_start = labels->level_start;
    hints->level_len = labels->level_len;
  }
  return true;
}

/// Every true-length entry of a hint store must be a core vertex id or the
/// no-hint sentinel.
bool HintEntriesInRange(const LabelStore& hints) {
  const size_t core = hints.base.size() - 1;
  for (size_t v = 0; v < core; ++v) {
    for (uint32_t a = hints.base[v]; a < hints.base[v + 1]; ++a) {
      const uint32_t* entries = hints.arena.data() + hints.level_start[a];
      for (uint32_t j = 0; j < hints.level_len[a]; ++j) {
        if (entries[j] != kInvalidVertex && entries[j] >= core) return false;
      }
    }
  }
  return true;
}

}  // namespace

Status WriteSectionedIndex(const std::string& path,
                           const SectionedFormat& format,
                           std::span<const LabelStore* const> labels,
                           std::span<const LabelStore* const> hints,
                           const std::function<bool(std::FILE*)>& write_body) {
  const size_t dirs = format.directions.size();
  HC2L_CHECK(labels.size() == dirs && hints.size() == dirs);
  const bool with_hints = !hints[0]->base.empty();
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  std::FILE* out = f.get();
  const auto arena = [out](const LabelArena& a) {
    return a.size() == 0 || WritePod(out, a.data(), a.SizeBytes());
  };
  SectionWriter w(out);
  bool ok = w.Start(format.magic, 1 + dirs * (with_hints ? 3 : 2)) &&
            w.Section(kSectionMeta, [&] {
              bool body_ok = write_body(out);
              for (const LabelStore* store : labels) {
                body_ok = body_ok && WriteLabelStoreCounts(out, *store);
              }
              return body_ok;
            });
  for (size_t d = 0; d < dirs; ++d) {
    ok = ok && w.Section(format.directions[d].offsets, [&] {
      return WriteLabelStoreOffsets(out, *labels[d]);
    });
  }
  for (size_t d = 0; d < dirs; ++d) {
    ok = ok && w.Section(format.directions[d].labels,
                         [&] { return arena(labels[d]->arena); });
  }
  for (size_t d = 0; with_hints && d < dirs; ++d) {
    HC2L_CHECK_EQ(hints[d]->arena.size(), labels[d]->arena.size());
    ok = ok && w.Section(format.directions[d].hints,
                         [&] { return arena(hints[d]->arena); });
  }
  if (!ok || !w.Finish()) {
    return Status::Unavailable("write error on " + path);
  }
  return Status::Ok();
}

Status ReadSectionedIndex(const std::string& path,
                          const SectionedFormat& format, bool use_mmap,
                          std::span<LabelStore* const> labels,
                          std::span<LabelStore* const> hints,
                          const std::function<bool(Reader*)>& parse_body,
                          const std::function<bool()>& validate_structure,
                          std::shared_ptr<MappedFile>* mapping) {
  const size_t dirs = format.directions.size();
  HC2L_CHECK(labels.size() == dirs && hints.size() == dirs);
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  Reader reader(f.get());
  const uint64_t file_size = reader.remaining();
  uint64_t magic = 0;
  if (!ReadValue(&reader, &magic) || magic != format.magic) {
    return Status::InvalidArgument(std::string("wrong magic for ") +
                                   format.name + ": " + path);
  }
  const Status corrupt = Status::DataLoss(
      std::string("truncated or corrupt ") + format.name + ": " + path);

  // The table must name exactly the meta section, every direction's
  // offsets section and label arena and — for every direction or none — a
  // hint arena. Ids are unique, so the count rules out unknown sections.
  std::vector<SectionEntry> sections;
  if (!ReadSectionTable(&reader, file_size, &sections)) return corrupt;
  struct Found {
    const SectionEntry* offsets;
    const SectionEntry* labels;
    const SectionEntry* hints;
  };
  std::vector<Found> found(dirs);
  size_t hint_sections = 0;
  for (size_t d = 0; d < dirs; ++d) {
    const DirectionSections& ids = format.directions[d];
    found[d] = {FindSection(sections, ids.offsets),
                FindSection(sections, ids.labels),
                FindSection(sections, ids.hints)};
    if (found[d].offsets == nullptr || found[d].labels == nullptr) {
      return corrupt;
    }
    hint_sections += found[d].hints != nullptr ? 1 : 0;
  }
  const bool has_hints = hint_sections > 0;
  const SectionEntry* meta = FindSection(sections, kSectionMeta);
  if (meta == nullptr || (has_hints && hint_sections != dirs) ||
      sections.size() != 1 + dirs * (has_hints ? 3 : 2)) {
    return corrupt;
  }

  if (use_mmap) {
    // Mapping dereferences nothing by itself; every later access stays
    // inside section bounds the table validation pinned to the real file
    // size.
    *mapping = MappedFile::Open(path);
    if (*mapping == nullptr || (*mapping)->size() != file_size) return corrupt;
  }
  // A reader bounded to one section: over the mapping, or over the file
  // positioned at the section (a failed seek leaves nothing to read).
  const auto section_reader = [&](const SectionEntry& s) {
    if (use_mmap) return Reader((*mapping)->data() + s.offset, s.bytes);
    if (std::fseek(f.get(), static_cast<long>(s.offset), SEEK_SET) != 0) {
      return Reader(nullptr, 0);
    }
    Reader r(f.get());
    r.LimitTo(s.bytes);
    return r;
  };

  // The declared table and entry counts must exactly match the offsets and
  // arena sections' byte sizes, and each hint arena must mirror its label
  // arena.
  std::vector<LabelStoreCounts> counts(dirs);
  {
    Reader r = section_reader(*meta);
    if (!parse_body(&r)) return corrupt;
    for (LabelStoreCounts& c : counts) {
      if (!ReadLabelStoreCounts(&r, &c)) return corrupt;
    }
  }
  for (size_t d = 0; d < dirs; ++d) {
    const uint64_t arena_bytes = found[d].labels->bytes;
    if (!OffsetsSectionMatches(*found[d].offsets, counts[d]) ||
        arena_bytes % sizeof(uint32_t) != 0 ||
        arena_bytes / sizeof(uint32_t) != counts[d].arena_entries ||
        (has_hints && found[d].hints->bytes != arena_bytes)) {
      return corrupt;
    }
  }

  // Offset tables first, validated against the arena sizes before any
  // arena byte is read or mapped page touched.
  for (size_t d = 0; d < dirs; ++d) {
    LabelStore* hint_store = has_hints ? hints[d] : nullptr;
    if (use_mmap) {
      AttachOffsetsView((*mapping)->data() + found[d].offsets->offset,
                        counts[d], labels[d], hint_store);
    } else {
      Reader r = section_reader(*found[d].offsets);
      if (!ReadLabelStoreOffsets(&r, counts[d], labels[d], hint_store)) {
        return corrupt;
      }
    }
    if (!ValidateLabelShape(*labels[d], counts[d].arena_entries)) {
      return corrupt;
    }
  }
  if (!validate_structure()) return corrupt;

  const auto attach_arena = [&](const SectionEntry& s, uint64_t entries,
                                LabelArena* arena) {
    if (use_mmap) {
      arena->ResetView(
          reinterpret_cast<const uint32_t*>((*mapping)->data() + s.offset),
          entries);
      (*mapping)->AdviseRandom(s.offset, s.bytes);
      return true;
    }
    Reader r = section_reader(s);
    arena->Reset(entries);
    return entries == 0 || r.Read(arena->data(), entries * sizeof(uint32_t));
  };
  for (size_t d = 0; d < dirs; ++d) {
    const uint64_t entries = counts[d].arena_entries;
    if (!attach_arena(*found[d].labels, entries, &labels[d]->arena)) {
      return corrupt;
    }
    if (has_hints &&
        (!attach_arena(*found[d].hints, entries, &hints[d]->arena) ||
         (!use_mmap && !HintEntriesInRange(*hints[d])))) {
      return corrupt;
    }
  }
  return Status::Ok();
}

}  // namespace hc2l::io
