#include "threading/core_set.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace opsched {
namespace {

TEST(CoreSet, BasicMembership) {
  CoreSet s(68);
  EXPECT_EQ(s.capacity(), 68u);
  EXPECT_TRUE(s.empty());
  s.add(0);
  s.add(67);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(67));
  EXPECT_FALSE(s.contains(33));
  s.remove(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.count(), 1u);
}

TEST(CoreSet, OutOfRangeThrows) {
  CoreSet s(8);
  EXPECT_THROW(s.add(8), std::out_of_range);
  EXPECT_THROW(s.remove(100), std::out_of_range);
  EXPECT_FALSE(s.contains(8));  // contains is safe
}

TEST(CoreSet, RangeAndAll) {
  const CoreSet r = CoreSet::range(68, 10, 5);
  EXPECT_EQ(r.count(), 5u);
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(14));
  EXPECT_FALSE(r.contains(15));
  EXPECT_EQ(CoreSet::all(68).count(), 68u);
}

TEST(CoreSet, SetAlgebra) {
  const CoreSet a = CoreSet::range(16, 0, 8);
  const CoreSet b = CoreSet::range(16, 4, 8);
  EXPECT_EQ(a.union_with(b).count(), 12u);
  EXPECT_EQ(a.intersect(b).count(), 4u);
  EXPECT_EQ(a.minus(b).count(), 4u);
  EXPECT_FALSE(a.disjoint_with(b));
  const CoreSet c = CoreSet::range(16, 8, 8);
  EXPECT_TRUE(a.disjoint_with(c));
  EXPECT_TRUE(a.intersect(b).is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
}

TEST(CoreSet, CapacityMismatchThrows) {
  const CoreSet a(8);
  const CoreSet b(16);
  EXPECT_THROW(a.union_with(b), std::invalid_argument);
  EXPECT_THROW(a.intersect(b), std::invalid_argument);
  EXPECT_THROW(a.minus(b), std::invalid_argument);
  EXPECT_THROW(a.disjoint_with(b), std::invalid_argument);
}

TEST(CoreSet, TakeLowest) {
  CoreSet s(68);
  for (std::size_t c : {5u, 1u, 60u, 30u}) s.add(c);
  const CoreSet low = s.take_lowest(3);
  EXPECT_TRUE(low.contains(1));
  EXPECT_TRUE(low.contains(5));
  EXPECT_TRUE(low.contains(30));
  EXPECT_FALSE(low.contains(60));
  EXPECT_THROW(s.take_lowest(5), std::invalid_argument);
}

TEST(CoreSet, ToVectorAscending) {
  CoreSet s(70);
  s.add(65);
  s.add(2);
  s.add(64);  // crosses the word boundary
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 2u);
  EXPECT_EQ(v[1], 64u);
  EXPECT_EQ(v[2], 65u);
}

TEST(CoreSet, EqualityAndClear) {
  CoreSet a = CoreSet::range(16, 0, 4);
  CoreSet b = CoreSet::range(16, 0, 4);
  EXPECT_EQ(a, b);
  b.add(9);
  EXPECT_FALSE(a == b);
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(CoreSet, ToStringRuns) {
  CoreSet s(16);
  for (std::size_t c : {0u, 1u, 2u, 8u, 10u, 11u}) s.add(c);
  EXPECT_EQ(s.to_string(), "{0-2,8,10-11}");
  EXPECT_EQ(CoreSet(4).to_string(), "{}");
}

// --- model test: random operation sequences against std::vector<bool> ----
//
// Capacities straddle the word boundaries and the inline/heap split
// (CoreSet::kInlineCores = 128), so both storage forms and every partial
// last word are driven through the same sequences.

using Model = std::vector<bool>;

std::vector<std::size_t> members_of(const Model& m) {
  std::vector<std::size_t> v;
  for (std::size_t c = 0; c < m.size(); ++c)
    if (m[c]) v.push_back(c);
  return v;
}

/// to_string's format, built one core at a time.
std::string string_of(const Model& m) {
  std::string out = "{";
  for (std::size_t c = 0; c < m.size();) {
    if (!m[c]) {
      ++c;
      continue;
    }
    std::size_t last = c;
    while (last + 1 < m.size() && m[last + 1]) ++last;
    if (out.size() > 1) out += ',';
    out += std::to_string(c);
    if (last != c) out += '-' + std::to_string(last);
    c = last + 1;
  }
  return out + "}";
}

void expect_matches(const CoreSet& s, const Model& m) {
  ASSERT_EQ(s.capacity(), m.size());
  const std::vector<std::size_t> members = members_of(m);
  EXPECT_EQ(s.count(), members.size());
  EXPECT_EQ(s.empty(), members.empty());
  EXPECT_EQ(s.to_vector(), members);
  EXPECT_EQ(s.lowest(), members.empty() ? m.size() : members.front());
  EXPECT_EQ(s.to_string(), string_of(m));
  for (std::size_t c = 0; c < m.size() + 3; ++c)
    ASSERT_EQ(s.contains(c), c < m.size() && m[c]) << "core " << c;
}

class CoreSetModel : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_index(n));
  }
  /// Random members at a random density.
  void randomize(CoreSet& s, Model& m) {
    const std::size_t cap = m.size();
    s = CoreSet(cap);
    m.assign(cap, false);
    const std::size_t density = pick(5);  // 0%, 25%, ..., 100%
    for (std::size_t c = 0; c < cap; ++c) {
      if (pick(4) < density) {
        s.add(c);
        m[c] = true;
      }
    }
  }

  Xoshiro256 rng_{0xC0DE5E7ULL + GetParam()};
};

TEST_P(CoreSetModel, RandomOperationSequencesMatchTheModel) {
  const std::size_t cap = GetParam();
  CoreSet a(cap), b(cap);
  Model ma(cap, false), mb(cap, false);
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (pick(12)) {
      case 0: {
        const std::size_t c = pick(cap);
        a.add(c);
        ma[c] = true;
        break;
      }
      case 1: {
        const std::size_t c = pick(cap);
        a.remove(c);
        ma[c] = false;
        break;
      }
      case 2: {
        const std::size_t first = pick(cap + 1);
        const std::size_t count = pick(cap - first + 1);
        a = CoreSet::range(cap, first, count);
        ma.assign(cap, false);
        for (std::size_t c = first; c < first + count; ++c) ma[c] = true;
        break;
      }
      case 3:
        a = CoreSet::all(cap);
        ma.assign(cap, true);
        break;
      case 4:
        a = a.union_with(b);
        for (std::size_t c = 0; c < cap; ++c) ma[c] = ma[c] || mb[c];
        break;
      case 5:
        a = a.intersect(b);
        for (std::size_t c = 0; c < cap; ++c) ma[c] = ma[c] && mb[c];
        break;
      case 6:
        a = a.minus(b);
        for (std::size_t c = 0; c < cap; ++c) ma[c] = ma[c] && !mb[c];
        break;
      case 7: {
        const std::vector<std::size_t> members = members_of(ma);
        const std::size_t n = pick(members.size() + 1);
        a = a.take_lowest(n);
        ma.assign(cap, false);
        for (std::size_t i = 0; i < n; ++i) ma[members[i]] = true;
        break;
      }
      case 8:
        a.clear();
        ma.assign(cap, false);
        break;
      case 9:
        randomize(b, mb);
        break;
      case 10:
        std::swap(a, b);
        std::swap(ma, mb);
        break;
      default:
        b = a;
        mb = ma;
        break;
    }
    expect_matches(a, ma);
    expect_matches(b, mb);

    bool disjoint = true, subset = true;
    for (std::size_t c = 0; c < cap; ++c) {
      if (ma[c] && mb[c]) disjoint = false;
      if (ma[c] && !mb[c]) subset = false;
    }
    EXPECT_EQ(a.disjoint_with(b), disjoint);
    EXPECT_EQ(a.is_subset_of(b), subset);
    EXPECT_EQ(a == b, ma == mb);
    if (a == b) {
      EXPECT_EQ(a.hash(), b.hash());
    }
  }
}

TEST_P(CoreSetModel, EqualSetsBuiltDifferentlyHashEqual) {
  const std::size_t cap = GetParam();
  for (int round = 0; round < 50; ++round) {
    const std::size_t first = pick(cap + 1);
    const std::size_t count = pick(cap - first + 1);
    const CoreSet by_range = CoreSet::range(cap, first, count);
    CoreSet by_add(cap);
    for (std::size_t c = first; c < first + count; ++c) by_add.add(c);
    const CoreSet by_take =
        CoreSet::all(cap).minus(CoreSet::range(cap, 0, first))
            .take_lowest(count);
    CoreSet by_remove = CoreSet::all(cap);
    for (std::size_t c = 0; c < cap; ++c)
      if (c < first || c >= first + count) by_remove.remove(c);
    const CoreSet* const built[] = {&by_add, &by_take, &by_remove};
    for (const CoreSet* s : built) {
      EXPECT_EQ(*s, by_range);
      EXPECT_EQ(s->hash(), by_range.hash());
    }
  }
}

TEST_P(CoreSetModel, EveryDocumentedExceptionIsThrown) {
  const std::size_t cap = GetParam();
  CoreSet s = CoreSet::all(cap);
  EXPECT_THROW(s.add(cap), std::out_of_range);
  EXPECT_THROW(s.remove(cap), std::out_of_range);
  EXPECT_THROW(CoreSet::range(cap, 0, cap + 1), std::out_of_range);
  EXPECT_THROW(CoreSet::range(cap, cap, 1), std::out_of_range);
  EXPECT_THROW(CoreSet::range(cap, 1, cap), std::out_of_range);
  EXPECT_NO_THROW(CoreSet::range(cap, cap, 0));
  EXPECT_THROW(s.take_lowest(cap + 1), std::invalid_argument);
  EXPECT_THROW(CoreSet(cap).take_lowest(1), std::invalid_argument);
  EXPECT_EQ(s.take_lowest(cap), s);

  // Capacity mismatches, also between inline and heap-stored sets.
  for (const std::size_t other_cap : {cap + 1, std::size_t{200}}) {
    if (other_cap == cap) continue;
    const CoreSet o(other_cap);
    EXPECT_THROW(s.union_with(o), std::invalid_argument);
    EXPECT_THROW(s.intersect(o), std::invalid_argument);
    EXPECT_THROW(s.minus(o), std::invalid_argument);
    EXPECT_THROW(s.disjoint_with(o), std::invalid_argument);
    EXPECT_THROW(s.is_subset_of(o), std::invalid_argument);
    EXPECT_FALSE(s == o);
  }
  // A failed call leaves the set unchanged.
  EXPECT_EQ(s, CoreSet::all(cap));
}

TEST_P(CoreSetModel, CopiesAndMovesAcrossStorageForms) {
  const std::size_t cap = GetParam();
  Model m;
  CoreSet s;
  m.assign(cap, false);
  randomize(s, m);
  for (const std::size_t other_cap : {std::size_t{1}, std::size_t{68},
                                      std::size_t{129}, std::size_t{200}}) {
    CoreSet other = CoreSet::all(other_cap);
    other = s;  // copy over a set of another capacity
    expect_matches(other, m);
    CoreSet moved = std::move(other);
    expect_matches(moved, m);
    other = CoreSet::all(other_cap);  // a moved-from set is reusable
    EXPECT_EQ(other.count(), other_cap);
    CoreSet target = CoreSet::all(other_cap);
    target = std::move(moved);  // move over a set of another capacity
    expect_matches(target, m);
    const CoreSet& alias = target;
    target = alias;  // self-assignment keeps the members
    expect_matches(target, m);
  }
  expect_matches(s, m);  // the source was only copied from
}

INSTANTIATE_TEST_SUITE_P(Capacities, CoreSetModel,
                         ::testing::Values(1, 63, 64, 65, 68, 128, 129, 200));

}  // namespace
}  // namespace opsched
