#pragma once

// Z-sets: multisets with signed 64-bit multiplicities.
//
// A Z-set is the value flowing on every edge of the incremental dataflow
// graph: the *current contents* of a relation (all weights positive) and a
// *delta* (mixed signs) are the same type. Z-sets form a commutative group
// under `merge`, which is what makes incremental operators compositional:
// an operator receiving delta d over state S must emit f(S+d) - f(S).

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hash.h"

namespace rcfg::dd {

using Weight = std::int64_t;

template <class T>
class ZSet {
 public:
  using Map = std::unordered_map<T, Weight, core::TupleHash>;
  using const_iterator = typename Map::const_iterator;

  ZSet() = default;

  /// Add `w` to the multiplicity of `t`; entries reaching zero are erased,
  /// so the container is always consolidated.
  void add(const T& t, Weight w) {
    if (w == 0) return;
    auto [it, inserted] = data_.try_emplace(t, w);
    if (!inserted) {
      it->second += w;
      if (it->second == 0) data_.erase(it);
    }
  }

  void add(T&& t, Weight w) {
    if (w == 0) return;
    auto [it, inserted] = data_.try_emplace(std::move(t), w);
    if (!inserted) {
      it->second += w;
      if (it->second == 0) data_.erase(it);
    }
  }

  /// Merge another Z-set into this one (group addition).
  void merge(const ZSet& other) {
    for (const auto& [t, w] : other.data_) add(t, w);
  }

  void merge(ZSet&& other) {
    if (data_.empty()) {
      data_ = std::move(other.data_);
      other.data_.clear();
      return;
    }
    for (auto& [t, w] : other.data_) add(t, w);
    other.data_.clear();
  }

  /// Multiplicity of `t` (0 if absent).
  Weight weight(const T& t) const {
    auto it = data_.find(t);
    return it == data_.end() ? 0 : it->second;
  }

  bool contains(const T& t) const { return data_.contains(t); }

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  void clear() noexcept { data_.clear(); }

  const_iterator begin() const noexcept { return data_.begin(); }
  const_iterator end() const noexcept { return data_.end(); }

  /// True when every multiplicity is positive (i.e., this is a valid
  /// relation snapshot rather than a general delta).
  bool is_set_like() const {
    for (const auto& [t, w] : data_) {
      if (w < 0) return false;
    }
    return true;
  }

  /// The delta turning `from` into `this` (this - from).
  static ZSet difference(const ZSet& to, const ZSet& from) {
    ZSet out = to;
    for (const auto& [t, w] : from.data_) out.add(t, -w);
    return out;
  }

  friend bool operator==(const ZSet& a, const ZSet& b) { return a.data_ == b.data_; }

  /// Sorted materialization is occasionally handy for tests and debugging.
  std::vector<std::pair<T, Weight>> entries() const {
    return std::vector<std::pair<T, Weight>>(data_.begin(), data_.end());
  }

 private:
  Map data_;
};

}  // namespace rcfg::dd
