#ifndef HC2L_COMMON_LABEL_ARENA_H_
#define HC2L_COMMON_LABEL_ARENA_H_

/// Packed storage for HC2L distance labels.
///
/// LabelArena owns a 64-byte-aligned uint32 buffer pre-filled with the
/// kUnreachableLabel sentinel (0xFFFFFFFF), sized to a whole number of cache
/// lines. LabelStore lays the per-vertex, per-level distance arrays into it
/// back to back: array i+1 starts right where array i ends, with no padding
/// between them. Only the arena's total is rounded up to a cache line,
/// which keeps the start of an mmap'd arena section 64-byte aligned and the
/// V4 `arena_entries` field a multiple of 16. The query kernel
/// (simd::MinPlus) reads exactly [0, len) of each array, so nothing relies
/// on alignment or on sentinel fill past an array's end.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hc2l {

/// 64-byte-aligned, sentinel-filled uint32 buffer whose size is a whole
/// number of cache lines. Move-only.
class LabelArena {
 public:
  static constexpr size_t kAlignBytes = 64;
  static constexpr size_t kAlignEntries = kAlignBytes / sizeof(uint32_t);

  /// `len` entries rounded up to the next cache-line boundary: the size of
  /// an arena holding `len` packed entries.
  static constexpr size_t PaddedCapacity(size_t len) {
    return (len + kAlignEntries - 1) & ~(kAlignEntries - 1);
  }

  LabelArena() = default;
  ~LabelArena();
  LabelArena(LabelArena&& other) noexcept { *this = std::move(other); }
  LabelArena& operator=(LabelArena&& other) noexcept;
  LabelArena(const LabelArena&) = delete;
  LabelArena& operator=(const LabelArena&) = delete;

  /// Allocates `entries` sentinel-filled entries, rounded up to a whole
  /// number of cache lines. Discards previous contents.
  void Reset(size_t entries);

  /// Points the arena at externally owned storage (an mmap'd index file)
  /// instead of allocating: `entries` must already be padded to a whole
  /// number of cache lines and `data` 64-byte aligned. The arena does not
  /// free a view; whoever owns the mapping must outlive it. The buffer is
  /// treated as const — a view-backed index is read-only by construction
  /// (its Clone() materializes owned copies).
  void ResetView(const uint32_t* data, size_t entries);

  /// False for a ResetView arena (the query path never writes, so this only
  /// matters to mutation paths like RepairLabels, which require ownership).
  bool owned() const { return owned_; }

  uint32_t* data() { return data_; }
  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  size_t SizeBytes() const { return size_ * sizeof(uint32_t); }

 private:
  uint32_t* data_ = nullptr;
  size_t size_ = 0;
  bool owned_ = true;
};

/// Owned-or-view uint32 array for the label stores' offset tables, the same
/// pattern as LabelArena: built and mutated as a heap vector, or pointed
/// into the offsets section of an mmap'd V4 index file by ResetView.
/// Reads always go through the const subscript (there is no mutable one —
/// writers use Set, which requires ownership); copying materializes an
/// owned deep copy, so a cloned index never dangles into a mapping it does
/// not hold.
class U32Array {
 public:
  U32Array() = default;
  U32Array(const U32Array& other) { *this = other; }
  U32Array& operator=(const U32Array& other) {
    if (this != &other) {
      owned_.assign(other.data(), other.data() + other.size());
      view_ = nullptr;
      view_size_ = 0;
    }
    return *this;
  }
  U32Array(U32Array&& other) noexcept { *this = std::move(other); }
  U32Array& operator=(U32Array&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      view_ = other.view_;
      view_size_ = other.view_size_;
      other.owned_.clear();
      other.view_ = nullptr;
      other.view_size_ = 0;
    }
    return *this;
  }

  /// Points the array at externally owned storage (an mmap'd index file).
  /// Whoever owns the mapping must outlive the view.
  void ResetView(const uint32_t* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    view_ = data;
    view_size_ = size;
  }

  /// False for a ResetView array; every mutator requires ownership.
  bool owned() const { return view_ == nullptr; }

  /// Owned-mode resize for deserialization (drops a previous view); the
  /// caller fills the buffer through MutableData.
  void ResizeOwned(size_t size) {
    view_ = nullptr;
    view_size_ = 0;
    owned_.resize(size);
  }
  uint32_t* MutableData() { return owned_.data(); }

  const uint32_t* data() const {
    return view_ != nullptr ? view_ : owned_.data();
  }
  size_t size() const { return view_ != nullptr ? view_size_ : owned_.size(); }
  const uint32_t* begin() const { return data(); }
  const uint32_t* end() const { return data() + size(); }
  bool empty() const { return size() == 0; }
  uint32_t operator[](size_t i) const { return data()[i]; }
  uint32_t front() const { return data()[0]; }
  uint32_t back() const { return data()[size() - 1]; }
  void Set(size_t i, uint32_t value) { owned_[i] = value; }

  void assign(size_t count, uint32_t value) {
    view_ = nullptr;
    view_size_ = 0;
    owned_.assign(count, value);
  }
  void clear() {
    view_ = nullptr;
    view_size_ = 0;
    owned_.clear();
  }
  void reserve(size_t count) { owned_.reserve(count); }
  void push_back(uint32_t value) { owned_.push_back(value); }

  friend bool operator==(const U32Array& a, const U32Array& b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }

 private:
  std::vector<uint32_t> owned_;
  const uint32_t* view_ = nullptr;
  size_t view_size_ = 0;
};

/// Flattened label storage shared by the undirected and directed indexes:
/// array i of vertex v (i counted from base[v]) spans
///   arena[level_start[base[v] + i] .. +level_len[base[v] + i]).
/// BuildFrom packs the arrays in order, so level_start[j + 1] ==
/// level_start[j] + level_len[j]; a loaded file need only keep them in
/// order and disjoint (io::ValidateLabelShape).
struct LabelStore {
  LabelArena arena;
  U32Array level_start;  // arena offset of each array
  U32Array level_len;    // length of each array
  U32Array base;         // size n+1; arrays of v: [base[v], base[v+1])

  /// Lays the per-vertex accumulators out into the arena (consuming them
  /// vertex by vertex to bound peak memory): data[v] holds vertex v's level
  /// arrays concatenated, lens[v] their lengths.
  void BuildFrom(std::vector<std::vector<uint32_t>>* data,
                 std::vector<std::vector<uint32_t>>* lens);

  /// Offset-table bytes (level_start + level_len + base).
  size_t MetadataBytes() const {
    return (level_start.size() + level_len.size() + base.size()) *
           sizeof(uint32_t);
  }

  /// Actual resident bytes: the arena (entries rounded up to a cache line)
  /// plus offset tables.
  size_t ResidentBytes() const { return arena.SizeBytes() + MetadataBytes(); }
};

}  // namespace hc2l

#endif  // HC2L_COMMON_LABEL_ARENA_H_
