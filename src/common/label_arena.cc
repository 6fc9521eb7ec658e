#include "common/label_arena.h"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace hc2l {

LabelArena::~LabelArena() {
  if (owned_) std::free(data_);
}

LabelArena& LabelArena::operator=(LabelArena&& other) noexcept {
  if (this != &other) {
    if (owned_) std::free(data_);
    data_ = other.data_;
    size_ = other.size_;
    owned_ = other.owned_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.owned_ = true;
  }
  return *this;
}

void LabelArena::Reset(size_t entries) {
  if (owned_) std::free(data_);
  data_ = nullptr;
  owned_ = true;
  size_ = PaddedCapacity(entries);
  if (size_ == 0) return;
  data_ = static_cast<uint32_t*>(
      std::aligned_alloc(kAlignBytes, size_ * sizeof(uint32_t)));
  HC2L_CHECK(data_ != nullptr);
  std::memset(data_, 0xFF, size_ * sizeof(uint32_t));  // sentinel fill
}

void LabelArena::ResetView(const uint32_t* data, size_t entries) {
  HC2L_CHECK_EQ(entries, PaddedCapacity(entries));
  HC2L_CHECK_EQ(reinterpret_cast<uintptr_t>(data) % kAlignBytes, 0u);
  if (owned_) std::free(data_);
  // The const_cast is confined here: every accessor of a view-backed arena
  // goes through the const data() path (queries never write the arena), and
  // mutation paths check owned() first.
  data_ = const_cast<uint32_t*>(data);
  size_ = entries;
  owned_ = false;
}

void LabelStore::BuildFrom(std::vector<std::vector<uint32_t>>* data,
                           std::vector<std::vector<uint32_t>>* lens) {
  const size_t n = data->size();
  HC2L_CHECK_EQ(n, lens->size());

  size_t num_arrays = 0;
  size_t total = 0;
  for (size_t v = 0; v < n; ++v) {
    num_arrays += (*lens)[v].size();
    for (const uint32_t len : (*lens)[v]) total += len;
  }
  // Offsets are 32-bit; this only trips far beyond the paper's scales.
  HC2L_CHECK_LE(total, std::numeric_limits<uint32_t>::max());

  base.assign(n + 1, 0);
  level_start.clear();
  level_len.clear();
  level_start.reserve(num_arrays);
  level_len.reserve(num_arrays);
  arena.Reset(total);

  size_t pos = 0;
  for (size_t v = 0; v < n; ++v) {
    base.Set(v, static_cast<uint32_t>(level_start.size()));
    const std::vector<uint32_t>& entries = (*data)[v];
    const size_t first = pos;
    for (const uint32_t len : (*lens)[v]) {
      level_start.push_back(static_cast<uint32_t>(pos));
      level_len.push_back(len);
      pos += len;
    }
    // The vertex's arrays are contiguous in its accumulator and in the
    // arena alike, so one copy moves them all.
    HC2L_CHECK_EQ(pos - first, entries.size());
    if (!entries.empty()) {
      std::memcpy(arena.data() + first, entries.data(),
                  entries.size() * sizeof(uint32_t));
    }
    // Free the accumulators eagerly to halve peak memory.
    (*data)[v] = {};
    (*lens)[v] = {};
  }
  base.Set(n, static_cast<uint32_t>(level_start.size()));
  HC2L_CHECK_EQ(pos, total);
}

}  // namespace hc2l
