// Sorted-vector replacements for std::set / std::map on hot protocol state.
//
// The SPSI bookkeeping sets (OLCSet, dependency sets, certification acks)
// are small, short-lived and per-transaction; node-based containers spend
// one allocation per element and defeat the transaction-record pooling.
// These containers keep their elements in one contiguous sorted vector, so
// a pooled record retains the capacity across reuse and steady-state
// inserts allocate nothing. Iteration order is ascending — identical to the
// std::set / std::map they replace, which keeps every fan-out and merge
// that walks them deterministic and unchanged.
//
// Only the operations the protocol uses are provided.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace str {

template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> init) {
    for (const T& v : init) insert(v);
  }

  std::pair<const_iterator, bool> insert(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it != data_.end() && *it == v) return {it, false};
    return {data_.insert(it, v), true};
  }

  /// Set union in place, linear in size() + other.size(). One forward
  /// pass counts the union; the vector grows once, to the power of two at
  /// or above it, and one backward merge fills it in place, writing each
  /// shared element once. Sizing by the union rather than by size() +
  /// other.size() matters for pooled sets: overlap is the common case, and
  /// a record keeps its capacity across reuse. Power-of-two growth keeps
  /// the pool on a few block sizes. Merging a set into itself is a no-op.
  void merge(const FlatSet& other) {
    if (&other == this || other.data_.empty()) return;
    const std::size_t n = data_.size();
    std::size_t u = n + other.data_.size();
    for (auto a = data_.begin(), b = other.data_.begin();
         a != data_.end() && b != other.data_.end();) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        --u;
        ++a;
        ++b;
      }
    }
    if (u == n) return;  // other is a subset
    if (data_.capacity() < u) data_.reserve(std::bit_ceil(u));
    data_.resize(u);
    auto out = data_.end();
    auto mine = data_.begin() + static_cast<std::ptrdiff_t>(n);
    auto theirs = other.data_.end();
    // out - mine is the number of distinct elements still to place from
    // `other`, so out never passes an unread element of ours. Once `other`
    // is used up, the rest of our own run is already in place.
    while (theirs != other.data_.begin()) {
      if (mine != data_.begin() && *(theirs - 1) < *(mine - 1)) {
        *--out = std::move(*--mine);
      } else {
        if (mine != data_.begin() && !(*(mine - 1) < *(theirs - 1))) {
          --mine;  // equal: place one copy
        }
        *--out = *--theirs;
      }
    }
  }

  template <typename... Args>
  std::pair<const_iterator, bool> emplace(Args&&... args) {
    return insert(T(std::forward<Args>(args)...));
  }

  std::size_t erase(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it == data_.end() || !(*it == v)) return 0;
    data_.erase(it);
    return 1;
  }

  bool contains(const T& v) const {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    return it != data_.end() && *it == v;
  }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return data_.capacity(); }
  void clear() { data_.clear(); }  ///< keeps capacity (pooled-record reuse)
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

 private:
  std::vector<T> data_;
};

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  std::pair<iterator, bool> emplace(const K& k, const V& v) {
    auto it = lower_bound(k);
    if (it != data_.end() && it->first == k) return {it, false};
    return {data_.insert(it, value_type{k, v}), true};
  }

  std::size_t erase(const K& k) {
    auto it = lower_bound(k);
    if (it == data_.end() || !(it->first == k)) return 0;
    data_.erase(it);
    return 1;
  }

  bool contains(const K& k) const {
    auto it = const_cast<FlatMap*>(this)->lower_bound(k);
    return it != data_.end() && it->first == k;
  }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }  ///< keeps capacity (pooled-record reuse)
  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

 private:
  iterator lower_bound(const K& k) {
    return std::lower_bound(
        data_.begin(), data_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> data_;
};

}  // namespace str
