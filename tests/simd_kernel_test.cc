// Differential tests: the compiled-in vector min-plus kernel against the
// scalar reference, over randomized and adversarial label arrays. The two
// must be bit-identical for every input, including sentinel entries,
// near-overflow sums, tiny lengths and non-multiple-of-8 tails; and the
// kernel must read nothing outside [0, len), which the packed label arena
// relies on.

#include "common/simd.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace hc2l {
namespace {

constexpr uint32_t kSentinel = UINT32_MAX;

/// Draws a label value from a distribution that stresses every regime:
/// small finite, maximal finite (just below 2^31), out-of-contract values in
/// [2^31, 2^32) (the kernel must still match the scalar reference on them),
/// and the sentinel.
uint32_t AdversarialValue(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return kSentinel;
    case 1:
      return (uint32_t{1} << 31) - 1 - static_cast<uint32_t>(rng.Below(4));
    case 2:
      return (uint32_t{1} << 31) + static_cast<uint32_t>(rng.Below(1000));
    case 3:
      return kSentinel - 1 - static_cast<uint32_t>(rng.Below(4));
    default:
      return static_cast<uint32_t>(rng.Below(1 << 20));
  }
}

TEST(SatAdd32, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(simd::SatAdd32(0, 0), 0u);
  EXPECT_EQ(simd::SatAdd32(3, 4), 7u);
  EXPECT_EQ(simd::SatAdd32(kSentinel, 0), kSentinel);
  EXPECT_EQ(simd::SatAdd32(kSentinel, 1), kSentinel);
  EXPECT_EQ(simd::SatAdd32(kSentinel, kSentinel), kSentinel);
  EXPECT_EQ(simd::SatAdd32((uint32_t{1} << 31) - 1, (uint32_t{1} << 31) - 1),
            kSentinel - 1);  // largest finite+finite sum, exact
  EXPECT_EQ(simd::SatAdd32(kSentinel - 1, 1), kSentinel);
}

TEST(MinPlus, EmptyArraysReturnSentinel) {
  EXPECT_EQ(simd::MinPlus(nullptr, nullptr, 0), kSentinel);
  EXPECT_EQ(simd::MinPlusScalar(nullptr, nullptr, 0), kSentinel);
}

TEST(MinPlus, TinyLengths) {
  // Lengths 1..3 never fill one vector; the tail path must handle them.
  const uint32_t a[3] = {5, kSentinel, 7};
  const uint32_t b[3] = {9, 2, kSentinel};
  EXPECT_EQ(simd::MinPlus(a, b, 1), 14u);
  EXPECT_EQ(simd::MinPlus(a, b, 2), 14u);
  EXPECT_EQ(simd::MinPlus(a, b, 3), 14u);
  const uint32_t c[2] = {kSentinel, kSentinel};
  EXPECT_EQ(simd::MinPlus(c, c, 2), kSentinel);
}

TEST(MinPlus, MatchesScalarOnRandomArrays) {
  Rng rng(20260729);
  // Every length in [0, 67] catches all vector/tail splits for 4- and
  // 8-lane kernels.
  for (size_t len = 0; len <= 67; ++len) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<uint32_t> a(len), b(len);
      for (size_t i = 0; i < len; ++i) {
        a[i] = AdversarialValue(rng);
        b[i] = AdversarialValue(rng);
      }
      ASSERT_EQ(simd::MinPlus(a.data(), b.data(), len),
                simd::MinPlusScalar(a.data(), b.data(), len))
          << "len=" << len << " rep=" << rep;
    }
  }
}

/// One page of the test's own mapping with a PROT_NONE page on each side:
/// an array placed flush against either end faults on any read outside it.
class GuardedPage {
 public:
  GuardedPage() : page_(static_cast<size_t>(::sysconf(_SC_PAGESIZE))) {
    void* p = ::mmap(nullptr, 3 * page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<char*>(p);
    if (::mprotect(base_, page_, PROT_NONE) != 0 ||
        ::mprotect(base_ + 2 * page_, page_, PROT_NONE) != 0) {
      ::munmap(base_, 3 * page_);
      base_ = nullptr;
    }
  }
  ~GuardedPage() {
    if (base_ != nullptr) ::munmap(base_, 3 * page_);
  }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  bool ok() const { return base_ != nullptr; }
  /// `len` entries ending where the trailing guard page begins.
  uint32_t* EndingAtGuard(size_t len) const {
    return reinterpret_cast<uint32_t*>(base_ + 2 * page_) - len;
  }
  /// Entries starting where the leading guard page ends.
  uint32_t* StartingAtGuard() const {
    return reinterpret_cast<uint32_t*>(base_ + page_);
  }

 private:
  size_t page_;
  char* base_ = nullptr;
};

TEST(MinPlus, ReadsNothingOutsideTheArray) {
  GuardedPage page_a, page_b;
  ASSERT_TRUE(page_a.ok() && page_b.ok());
  Rng rng(42);
  // Three vectors of the widest (8-lane AVX2) kernel cover every masked,
  // whole-vector and overlapping-tail split of every backend.
  constexpr size_t kMaxLen = 3 * 8;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (int rep = 0; rep < 50; ++rep) {
      for (const bool at_end : {true, false}) {
        uint32_t* a =
            at_end ? page_a.EndingAtGuard(len) : page_a.StartingAtGuard();
        uint32_t* b =
            at_end ? page_b.EndingAtGuard(len) : page_b.StartingAtGuard();
        for (size_t i = 0; i < len; ++i) {
          a[i] = AdversarialValue(rng);
          b[i] = AdversarialValue(rng);
        }
        // A read outside [0, len) hits a guard page and kills the test.
        ASSERT_EQ(simd::MinPlus(a, b, len), simd::MinPlusScalar(a, b, len))
            << "len=" << len << " rep=" << rep << " at_end=" << at_end;
      }
    }
  }
}

TEST(MinPlus, MismatchedTrueLengthsReadOnlyTheShorter) {
  // The query reduces over min(len_a, len_b). In a packed arena the next
  // array follows the shorter one directly: here its zeros would pair
  // with a[5..] for sums of 1005+, below the true minimum of 1500, if the
  // kernel read past len.
  const size_t len_a = 21, len_b = 5;
  std::vector<uint32_t> a(len_a), arena(len_b + 16, 0);
  for (size_t i = 0; i < len_a; ++i) a[i] = 1000 + static_cast<uint32_t>(i);
  for (size_t i = 0; i < len_b; ++i) {
    arena[i] = 500 + 7 * static_cast<uint32_t>(i);
  }
  const size_t len = std::min(len_a, len_b);
  EXPECT_EQ(simd::MinPlus(a.data(), arena.data(), len),
            simd::MinPlusScalar(a.data(), arena.data(), len));
  EXPECT_EQ(simd::MinPlus(a.data(), arena.data(), len), 1500u);
}

TEST(MinPlus, NearOverflowSumsDoNotWrapPastSentinel) {
  // Pairs whose 32-bit sum would wrap must clamp to the sentinel, never to a
  // small "reachable" value that would win the min.
  std::vector<uint32_t> a = {kSentinel, kSentinel - 2, 0x80000000u, 3};
  std::vector<uint32_t> b = {5, 7, 0x80000001u, kSentinel};
  for (size_t len = 1; len <= a.size(); ++len) {
    const uint32_t got = simd::MinPlus(a.data(), b.data(), len);
    ASSERT_EQ(got, simd::MinPlusScalar(a.data(), b.data(), len));
    ASSERT_EQ(got, kSentinel);  // every pair here saturates
  }
}

}  // namespace
}  // namespace hc2l
