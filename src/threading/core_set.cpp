#include "threading/core_set.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace opsched {

std::uint64_t* CoreSet::copy_words(const CoreSet& other) {
  auto* words = new std::uint64_t[other.num_words()];
  std::copy_n(other.heap_, other.num_words(), words);
  return words;
}

void CoreSet::fill(std::size_t first, std::size_t count) noexcept {
  std::uint64_t* w = words();
  while (count > 0) {
    const std::size_t offset = first % 64;
    const std::size_t n = std::min(64 - offset, count);
    const std::uint64_t bits = n == 64 ? ~0ULL : (1ULL << n) - 1;
    w[first / 64] |= bits << offset;
    first += n;
    count -= n;
  }
}

CoreSet CoreSet::range(std::size_t capacity, std::size_t first,
                       std::size_t count) {
  if (count > 0 && (first >= capacity || count > capacity - first))
    throw std::out_of_range("CoreSet::range: core id beyond capacity");
  CoreSet s(capacity);
  s.fill(first, count);
  return s;
}

CoreSet CoreSet::all(std::size_t capacity) {
  return range(capacity, 0, capacity);
}

void CoreSet::add(std::size_t core) {
  if (core >= capacity_)
    throw std::out_of_range("CoreSet::add: core id beyond capacity");
  words()[core / 64] |= (1ULL << (core % 64));
}

void CoreSet::remove(std::size_t core) {
  if (core >= capacity_)
    throw std::out_of_range("CoreSet::remove: core id beyond capacity");
  words()[core / 64] &= ~(1ULL << (core % 64));
}

void CoreSet::clear() { std::fill_n(words(), num_words(), 0); }

void CoreSet::check_capacity(const CoreSet& other) const {
  if (capacity_ != other.capacity_)
    throw std::invalid_argument("CoreSet: capacity mismatch");
}

CoreSet CoreSet::union_with(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  const std::uint64_t *a = words(), *b = other.words();
  std::uint64_t* o = out.words();
  for (std::size_t i = 0; i < num_words(); ++i) o[i] = a[i] | b[i];
  return out;
}

CoreSet CoreSet::intersect(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  const std::uint64_t *a = words(), *b = other.words();
  std::uint64_t* o = out.words();
  for (std::size_t i = 0; i < num_words(); ++i) o[i] = a[i] & b[i];
  return out;
}

CoreSet CoreSet::minus(const CoreSet& other) const {
  check_capacity(other);
  CoreSet out(capacity_);
  const std::uint64_t *a = words(), *b = other.words();
  std::uint64_t* o = out.words();
  for (std::size_t i = 0; i < num_words(); ++i) o[i] = a[i] & ~b[i];
  return out;
}

bool CoreSet::disjoint_with(const CoreSet& other) const {
  check_capacity(other);
  const std::uint64_t *a = words(), *b = other.words();
  for (std::size_t i = 0; i < num_words(); ++i)
    if (a[i] & b[i]) return false;
  return true;
}

bool CoreSet::is_subset_of(const CoreSet& other) const {
  check_capacity(other);
  const std::uint64_t *a = words(), *b = other.words();
  for (std::size_t i = 0; i < num_words(); ++i)
    if (a[i] & ~b[i]) return false;
  return true;
}

CoreSet CoreSet::take_lowest(std::size_t n) const {
  CoreSet out(capacity_);
  const std::uint64_t* src = words();
  std::uint64_t* dst = out.words();
  for (std::size_t i = 0; i < num_words() && n > 0; ++i) {
    std::uint64_t w = src[i];
    const auto present = static_cast<std::size_t>(std::popcount(w));
    if (present <= n) {
      // The whole word fits.
      dst[i] = w;
      n -= present;
      continue;
    }
    // Peel the lowest n members off this word.
    for (; n > 0; --n) {
      const std::uint64_t low = w & (~w + 1);
      dst[i] |= low;
      w ^= low;
    }
  }
  if (n > 0)
    throw std::invalid_argument("CoreSet::take_lowest: not enough cores");
  return out;
}

std::size_t CoreSet::lowest() const noexcept {
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if (w[i] != 0)
      return i * 64 + static_cast<std::size_t>(std::countr_zero(w[i]));
  }
  return capacity_;
}

std::size_t CoreSet::hash() const noexcept {
  // FNV-1a over the words plus the capacity; equal sets (same capacity,
  // same members) hash equal by construction.
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  mix(static_cast<std::uint64_t>(capacity_));
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < num_words(); ++i) mix(w[i]);
  return static_cast<std::size_t>(h);
}

std::vector<std::size_t> CoreSet::to_vector() const {
  std::vector<std::size_t> v;
  v.reserve(count());
  const std::uint64_t* words_in = words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    for (std::uint64_t w = words_in[i]; w != 0; w &= w - 1)
      v.push_back(i * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }
  return v;
}

bool CoreSet::operator==(const CoreSet& other) const {
  return capacity_ == other.capacity_ &&
         std::equal(words(), words() + num_words(), other.words());
}

std::string CoreSet::to_string() const {
  std::string out = "{";
  bool open = false;  // a run [start, last] is pending
  std::size_t start = 0, last = 0;
  const auto close_run = [&] {
    if (out.size() > 1) out += ',';
    out += std::to_string(start);
    if (last != start) {
      out += '-';
      out += std::to_string(last);
    }
  };
  const std::uint64_t* words_in = words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    for (std::uint64_t w = words_in[i]; w != 0; w &= w - 1) {
      const std::size_t c =
          i * 64 + static_cast<std::size_t>(std::countr_zero(w));
      if (open && c == last + 1) {
        last = c;
        continue;
      }
      if (open) close_run();
      start = last = c;
      open = true;
    }
  }
  if (open) close_run();
  out += '}';
  return out;
}

}  // namespace opsched
