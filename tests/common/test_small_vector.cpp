#include "common/small_vector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cstf {
namespace {

TEST(SmallVec, StartsEmptyInline) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.onHeap());
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVec, PushWithinInlineCapacity) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.onHeap());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, SpillsToHeap) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_TRUE(v.onHeap());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, InitializerList) {
  SmallVec<double, 4> v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(SmallVec, CopyInline) {
  SmallVec<int, 4> v{1, 2, 3};
  SmallVec<int, 4> c(v);
  v[0] = 99;
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c.size(), 3u);
}

TEST(SmallVec, CopyHeap) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  SmallVec<int, 2> c = v;
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c[9], 9);
}

TEST(SmallVec, CopyAssignReplacesContents) {
  SmallVec<int, 2> a{1, 2};
  SmallVec<int, 2> b{7, 8, 9};
  a = b;
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2], 9);
}

TEST(SmallVec, MoveStealsHeapBuffer) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const int* heapData = v.data();
  SmallVec<int, 2> m(std::move(v));
  EXPECT_EQ(m.data(), heapData);
  EXPECT_EQ(m.size(), 10u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): spec'd reset
}

TEST(SmallVec, MoveInlineCopiesElements) {
  SmallVec<std::string, 4> v{"a", "b"};
  SmallVec<std::string, 4> m(std::move(v));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], "a");
}

TEST(SmallVec, PopBack) {
  SmallVec<int, 4> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
}

TEST(SmallVec, ResizeGrowsWithFill) {
  SmallVec<int, 2> v;
  v.resize(5, 7);
  EXPECT_EQ(v.size(), 5u);
  for (int x : v) EXPECT_EQ(x, 7);
}

TEST(SmallVec, ResizeShrinksDestroying) {
  auto counter = std::make_shared<int>(0);
  // Movable tracker: relocations (push_back temporaries, growth) move and
  // null the source, so only live-element destructions count.
  struct D {
    std::shared_ptr<int> c;
    D() = default;
    explicit D(std::shared_ptr<int> p) : c(std::move(p)) {}
    D(D&& o) noexcept : c(std::move(o.c)) {}
    D& operator=(D&& o) noexcept {
      c = std::move(o.c);
      return *this;
    }
    // Copies exist only to satisfy resize()'s fill path; unused here.
    D(const D&) = default;
    D& operator=(const D&) = default;
    ~D() {
      if (c) ++*c;
    }
  };
  SmallVec<D, 2> v;
  v.push_back(D{counter});
  v.push_back(D{counter});
  v.push_back(D{counter});
  v.resize(1);
  // Only live elements count: moved-from temporaries carry a null pointer.
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVec, NonTrivialElementType) {
  SmallVec<std::vector<double>, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(std::vector<double>(3, i));
  EXPECT_EQ(v.size(), 6u);
  EXPECT_DOUBLE_EQ(v[5][0], 5.0);
}

TEST(SmallVec, NestedSmallVec) {
  SmallVec<SmallVec<double, 4>, 4> q;
  q.push_back(SmallVec<double, 4>{1.0, 2.0});
  q.push_back(SmallVec<double, 4>{3.0, 4.0});
  q.push_back(q[0]);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q[2][1], 2.0);
}

TEST(SmallVec, Equality) {
  SmallVec<int, 4> a{1, 2};
  SmallVec<int, 4> b{1, 2};
  SmallVec<int, 4> c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SmallVec, IterationMatchesAccumulate) {
  SmallVec<int, 4> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 55);
}

// Copy, move and assignment across inline and heap storage, for an element
// type that relocates as raw bytes (double) and one that does not
// (std::string). Every case checks the target's contents element by element
// and that the source of a copy is untouched.
template <typename T>
class SmallVecTransfer : public ::testing::Test {
 protected:
  using Vec = SmallVec<T, 4>;

  static T value(int i) {
    if constexpr (std::is_same_v<T, std::string>) {
      return "element-" + std::to_string(i) + "-long-enough-to-allocate";
    } else {
      return static_cast<T>(i) + 0.25;
    }
  }

  /// `n` elements: inline up to 4, on the heap beyond.
  static Vec make(int n, int base = 0) {
    Vec v;
    for (int i = 0; i < n; ++i) v.push_back(value(base + i));
    return v;
  }

  /// Spilled to the heap, then shrunk back to `n` elements.
  static Vec shrunk(int n) {
    Vec v = make(9, 50);
    while (v.size() > static_cast<std::size_t>(n)) v.pop_back();
    return v;
  }

  static void expectHolds(const Vec& v, int n, int base = 0) {
    ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(v[i], value(base + i)) << i;
  }
};

using TransferTypes = ::testing::Types<double, std::string>;
TYPED_TEST_SUITE(SmallVecTransfer, TransferTypes);

TYPED_TEST(SmallVecTransfer, CopyConstructs) {
  for (const int n : {0, 1, 4, 5, 9}) {
    const auto src = TestFixture::make(n);
    const auto copy = src;
    TestFixture::expectHolds(copy, n);
    TestFixture::expectHolds(src, n);
    EXPECT_EQ(copy.onHeap(), n > 4);
  }
  const auto src = TestFixture::shrunk(3);  // heap-backed, fits inline
  const auto copy = src;
  TestFixture::expectHolds(copy, 3, 50);
}

TYPED_TEST(SmallVecTransfer, MoveConstructs) {
  for (const int n : {0, 1, 4, 5, 9}) {
    auto src = TestFixture::make(n);
    const auto moved = std::move(src);
    TestFixture::expectHolds(moved, n);
    EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TYPED_TEST(SmallVecTransfer, CopyAssignsAcrossStorage) {
  // {target size, source size}: inline <- inline, inline <- heap,
  // heap <- inline, heap <- smaller heap, heap <- larger heap.
  for (const auto& [to, from] : std::vector<std::pair<int, int>>{
           {2, 3}, {3, 7}, {7, 2}, {9, 6}, {6, 12}, {0, 0}, {5, 0}}) {
    auto target = TestFixture::make(to, 100);
    const auto src = TestFixture::make(from);
    target = src;
    TestFixture::expectHolds(target, from);
    TestFixture::expectHolds(src, from);
  }
  auto target = TestFixture::make(2, 100);
  target = TestFixture::shrunk(4);
  TestFixture::expectHolds(target, 4, 50);
}

TYPED_TEST(SmallVecTransfer, MoveAssignsAcrossStorage) {
  for (const auto& [to, from] : std::vector<std::pair<int, int>>{
           {2, 3}, {3, 7}, {7, 2}, {9, 6}, {6, 12}, {0, 0}, {5, 0}}) {
    auto target = TestFixture::make(to, 100);
    auto src = TestFixture::make(from);
    target = std::move(src);
    TestFixture::expectHolds(target, from);
    EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TYPED_TEST(SmallVecTransfer, SelfAssignKeepsContents) {
  for (const int n : {0, 3, 4, 7}) {
    auto v = TestFixture::make(n);
    const auto& alias = v;
    v = alias;
    TestFixture::expectHolds(v, n);
    auto& movable = v;
    v = std::move(movable);
    TestFixture::expectHolds(v, n);
  }
}

TEST(SmallVec, ClearKeepsCapacity) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const auto cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

}  // namespace
}  // namespace cstf
