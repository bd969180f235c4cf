// CoreSet: a set of core ids, used both by the real thread pool (affinity
// hints) and by the simulated machine (core allocation accounting for the
// scheduler's Strategy 3/4 decisions).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace opsched {

/// Bitset over core ids [0, capacity), one bit per core in 64-bit words.
/// Up to kInlineCores cores (two words: the 68-core KNL and any ordinary
/// host) the words live inside the object, so creating, copying and
/// combining sets never touches the heap; larger capacities spill the words
/// to one heap array. Bits at or beyond capacity() are always zero, so
/// equality and hash() are plain word compares. Set algebra works a word at
/// a time. Core ids are *physical core* ids on the simulated machine
/// (hyper-thread slots are tracked separately by the machine, matching how
/// the paper reasons about "cores" vs "hardware threads").
class CoreSet {
 public:
  /// Largest capacity stored without a heap allocation.
  static constexpr std::size_t kInlineCores = 128;

  CoreSet() noexcept : inline_{0, 0} {}
  explicit CoreSet(std::size_t capacity) : capacity_(capacity) {
    if (spilled()) heap_ = new std::uint64_t[num_words()]();
    else inline_[0] = inline_[1] = 0;
  }
  CoreSet(const CoreSet& other) : capacity_(other.capacity_) {
    if (spilled()) heap_ = copy_words(other);
    else take_inline(other);
  }
  CoreSet(CoreSet&& other) noexcept : capacity_(other.capacity_) {
    if (spilled()) steal_heap(other);
    else take_inline(other);
  }
  CoreSet& operator=(const CoreSet& other) {
    if (!spilled() && !other.spilled()) {
      capacity_ = other.capacity_;
      take_inline(other);
    } else if (this != &other) {
      *this = CoreSet(other);
    }
    return *this;
  }
  CoreSet& operator=(CoreSet&& other) noexcept {
    if (this == &other) return *this;
    if (spilled()) delete[] heap_;
    capacity_ = other.capacity_;
    if (spilled()) steal_heap(other);
    else take_inline(other);
    return *this;
  }
  ~CoreSet() {
    if (spilled()) delete[] heap_;
  }

  /// Set with cores [first, first+count) present; throws std::out_of_range
  /// when that range reaches past `capacity`.
  static CoreSet range(std::size_t capacity, std::size_t first,
                       std::size_t count);
  /// Full set of `capacity` cores.
  static CoreSet all(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t count() const noexcept {
    const std::uint64_t* w = words();
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      n += static_cast<std::size_t>(std::popcount(w[i]));
    return n;
  }
  bool empty() const noexcept {
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] != 0) return false;
    return true;
  }

  bool contains(std::size_t core) const noexcept {
    return core < capacity_ && ((words()[core / 64] >> (core % 64)) & 1ULL);
  }
  void add(std::size_t core);
  void remove(std::size_t core);
  void clear();

  /// Set algebra. Operands must share capacity.
  CoreSet union_with(const CoreSet& other) const;
  CoreSet intersect(const CoreSet& other) const;
  CoreSet minus(const CoreSet& other) const;
  bool disjoint_with(const CoreSet& other) const;
  bool is_subset_of(const CoreSet& other) const;

  /// The `n` lowest-id cores in this set; throws if fewer available.
  CoreSet take_lowest(std::size_t n) const;
  /// The lowest member id, or capacity() when the set is empty. The host
  /// executor uses this as a dense lane index (a launched op's span is
  /// identified by its lowest core while the span stays busy).
  std::size_t lowest() const noexcept;
  /// All members in ascending order.
  std::vector<std::size_t> to_vector() const;

  bool operator==(const CoreSet& other) const;

  /// Hash consistent with operator== (covers capacity and members), so the
  /// set can key unordered containers — TeamPool's team cache looks up
  /// (width, affinity, slot) on every launch.
  std::size_t hash() const noexcept;

  /// Debug representation like "{0-3,8,10-11}".
  std::string to_string() const;

 private:
  bool spilled() const noexcept { return capacity_ > kInlineCores; }
  std::size_t num_words() const noexcept { return (capacity_ + 63) / 64; }
  std::uint64_t* words() noexcept { return spilled() ? heap_ : inline_; }
  const std::uint64_t* words() const noexcept {
    return spilled() ? heap_ : inline_;
  }
  void take_inline(const CoreSet& other) noexcept {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  /// Takes a spilled `other`'s words, leaving it an empty inline set.
  void steal_heap(CoreSet& other) noexcept {
    heap_ = other.heap_;
    other.capacity_ = 0;
    other.inline_[0] = other.inline_[1] = 0;
  }
  /// A fresh heap copy of a spilled `other`'s words.
  static std::uint64_t* copy_words(const CoreSet& other);
  /// Sets bits [first, first+count), which must lie below capacity.
  void fill(std::size_t first, std::size_t count) noexcept;
  void check_capacity(const CoreSet& other) const;

  std::size_t capacity_ = 0;
  union {
    std::uint64_t inline_[kInlineCores / 64];  // unused words stay 0
    std::uint64_t* heap_;                       // capacity > kInlineCores
  };
};

}  // namespace opsched
