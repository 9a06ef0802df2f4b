#pragma once

// The incremental operator library: Input, Map, Negate, Concat, Arrange,
// JoinArranged, Reduce, Output — what the routing program is built from.
//
// Every operator keeps whatever persistent state it needs (join
// arrangements, reduce groups) so that processing a delta costs time
// proportional to the delta and the state it touches — never to the full
// relation. That state reuse is precisely the "incremental
// computation" the paper borrows from differential dataflow.

#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dd/graph.h"
#include "dd/zset.h"

namespace rcfg::dd {

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

/// An editable base relation. Mutations accumulate until the next
/// Graph::commit(). `set_to` computes the delta against the current
/// contents, which is how whole-snapshot reloads stay incremental.
template <class T>
class Input final : public OperatorBase {
 public:
  explicit Input(Graph& graph, std::string name = "input")
      : OperatorBase(graph, std::move(name)) {}

  void insert(const T& t) { update(t, +1); }
  void remove(const T& t) { update(t, -1); }

  void update(const T& t, Weight w) {
    pending_.add(t, w);
    graph_.schedule(*this);
  }

  /// Replace the full contents with `target`: stages target - current.
  /// Any not-yet-committed staged edits are discarded.
  void set_to(const ZSet<T>& target) {
    pending_ = ZSet<T>::difference(target, current_);
    if (!pending_.empty()) graph_.schedule(*this);
  }

  void flush() override {
    ZSet<T> delta = std::move(pending_);
    pending_.clear();
    current_.merge(delta);
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const ZSet<T>>(current_);
  }
  void load_state(const void* state) override {
    current_ = *static_cast<const ZSet<T>*>(state);
    pending_.clear();
  }

  const ZSet<T>& current() const noexcept { return current_; }

  Stream<T> out;

 private:
  ZSet<T> current_;
  ZSet<T> pending_;
};

// ---------------------------------------------------------------------------
// Stateless per-tuple operators
// ---------------------------------------------------------------------------

/// One-to-one transform; weights pass through.
template <class In, class Out>
class Map final : public OperatorBase {
 public:
  using Fn = std::function<Out(const In&)>;

  Map(Graph& graph, Stream<In>& upstream, Fn fn, std::string name = "map")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    upstream.subscribe([this](const ZSet<In>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<Out> delta;
    for (const auto& [t, w] : pending_) delta.add(fn_(t), w);
    pending_.clear();
    out.emit(delta);
  }

  // Stateless: only the pending buffer, which a restore discards.
  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<Out> out;

 private:
  Fn fn_;
  ZSet<In> pending_;
};

/// Weight negation: the output is the input with every multiplicity
/// flipped. concat(a, negate(b)) materializes the difference a - b, which
/// is how convergence checks compare two relations cheaply.
template <class T>
class Negate final : public OperatorBase {
 public:
  Negate(Graph& graph, Stream<T>& upstream, std::string name = "negate")
      : OperatorBase(graph, std::move(name)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta;
    for (const auto& [t, w] : pending_) delta.add(t, -w);
    pending_.clear();
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<T> out;

 private:
  ZSet<T> pending_;
};

/// N-ary union (weights add). `add_input` may be called after downstream
/// operators were built, which is how feedback cycles are tied.
template <class T>
class Concat final : public OperatorBase {
 public:
  explicit Concat(Graph& graph, std::string name = "concat")
      : OperatorBase(graph, std::move(name)) {}

  void add_input(Stream<T>& upstream) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<T> delta = std::move(pending_);
    pending_.clear();
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override { return nullptr; }
  void load_state(const void*) override { pending_.clear(); }

  Stream<T> out;

 private:
  ZSet<T> pending_;
};

// ---------------------------------------------------------------------------
// Arrange / JoinArranged
// ---------------------------------------------------------------------------

/// A relation indexed by key, built once and read by any number of
/// JoinArranged operators — one index where a join per reader would each
/// keep a copy (differential dataflow's `arrange`). A flush folds the
/// pending delta into the index *before* emitting it keyed on `out`, so a
/// reader, which must be created after this operator and therefore flushes
/// later, always finds the index already holding the delta it receives.
template <class K, class V>
class Arrange final : public OperatorBase {
 public:
  using KeyFn = std::function<K(const V&)>;

  Arrange(Graph& graph, Stream<V>& upstream, KeyFn key, std::string name = "arrange")
      : OperatorBase(graph, std::move(name)), key_(std::move(key)) {
    upstream.subscribe([this](const ZSet<V>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<std::pair<K, V>> delta;
    for (const auto& [v, w] : pending_) {
      K k = key_(v);
      auto it = index_.try_emplace(k).first;
      it->second.add(v, w);
      if (it->second.empty()) index_.erase(it);
      delta.add(std::pair<K, V>{std::move(k), v}, w);
    }
    pending_.clear();
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Index>(index_);
  }
  void load_state(const void* state) override {
    index_ = *static_cast<const Index*>(state);
    pending_.clear();
  }

  /// The current contents under `k`, or nullptr when there are none.
  const ZSet<V>* find(const K& k) const {
    auto it = index_.find(k);
    return it == index_.end() ? nullptr : &it->second;
  }

  /// Keyed deltas, emitted after the index has absorbed them.
  Stream<std::pair<K, V>> out;

 private:
  using Index = std::unordered_map<K, ZSet<V>, core::TupleHash>;

  KeyFn key_;
  Index index_;
  ZSet<V> pending_;
};

/// Equi-join of a stream of A, keyed by `key(a)`, against a shared
/// Arrange<K, B>, emitting `*fn(a, b)` for each matching pair where `fn`
/// returns a value (rejected pairs emit nothing). The operator arranges A
/// itself; B's index belongs to the Arrange, which has already absorbed dB
/// by the time this operator flushes. Each flush therefore applies
///     d(A ⋈ B) = dA ⋈ B_new + A_old ⋈ dB
/// with A_old this operator's arrangement before the flush. The rule stays
/// exact when a feedback edge flushes the operator several times in one
/// commit: each dB is delivered exactly once, and later flushes carry only
/// dA, joined against the B that is current by then. Build with
/// join_arranged(), which deduces the closure types.
template <class K, class A, class B, class Out, class KeyFn, class Fn>
class JoinArranged final : public OperatorBase {
 public:
  JoinArranged(Graph& graph, Stream<A>& left, Arrange<K, B>& right, KeyFn key, Fn fn,
               std::string name)
      : OperatorBase(graph, std::move(name)),
        right_(right),
        key_(std::move(key)),
        fn_(std::move(fn)) {
    left.subscribe([this](const ZSet<A>& d) {
      pending_left_.insert(pending_left_.end(), d.begin(), d.end());
      graph_.schedule(*this);
    });
    right.out.subscribe([this](const ZSet<std::pair<K, B>>& d) {
      pending_right_.insert(pending_right_.end(), d.begin(), d.end());
      graph_.schedule(*this);
    });
  }

  void flush() override {
    ZSet<Out> delta;
    // A_old ⋈ dB, before dA reaches the arrangement.
    for (const auto& [kb, wb] : pending_right_) {
      auto it = left_.find(kb.first);
      if (it == left_.end()) continue;
      for (const auto& [a, wa] : it->second) join_into(delta, a, kb.second, wa * wb);
    }
    // dA ⋈ B_new, folding dA in as we go (the rule is linear in dA).
    for (const auto& [a, wa] : pending_left_) {
      K k = key_(a);
      if (const ZSet<B>* group = right_.find(k)) {
        for (const auto& [b, wb] : *group) join_into(delta, a, b, wa * wb);
      }
      auto it = left_.try_emplace(std::move(k)).first;
      it->second.add(a, wa);
      if (it->second.empty()) left_.erase(it);
    }
    pending_left_.clear();
    pending_right_.clear();
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Arrangement>(left_);
  }
  void load_state(const void* state) override {
    left_ = *static_cast<const Arrangement*>(state);
    pending_left_.clear();
    pending_right_.clear();
  }

  Stream<Out> out;

 private:
  using Arrangement = std::unordered_map<K, ZSet<A>, core::TupleHash>;

  void join_into(ZSet<Out>& delta, const A& a, const B& b, Weight w) {
    if (std::optional<Out> o = fn_(a, b)) delta.add(std::move(*o), w);
  }

  const Arrange<K, B>& right_;
  KeyFn key_;
  Fn fn_;
  Arrangement left_;
  // Flat, unconsolidated batches: every use below is linear in the delta.
  std::vector<std::pair<A, Weight>> pending_left_;
  std::vector<std::pair<std::pair<K, B>, Weight>> pending_right_;
};

/// Builds a JoinArranged in `graph`. `key(a)` gives A's join key; `fn(a, b)`
/// returns std::optional<Out>.
template <class A, class K, class B, class KeyFn, class Fn>
auto& join_arranged(Graph& graph, Stream<A>& left, Arrange<K, B>& right, KeyFn key, Fn fn,
                    std::string name = "join_arranged") {
  using Out = typename std::invoke_result_t<Fn&, const A&, const B&>::value_type;
  return graph.make<JoinArranged<K, A, B, Out, KeyFn, Fn>>(left, right, std::move(key),
                                                           std::move(fn), std::move(name));
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

/// A Reduce group's contents as its function sees them: each distinct value
/// once, with its weight.
template <class V>
using GroupView = std::span<const std::pair<V, Weight>>;

/// Group-by-key aggregation over the union of one or more inputs. Only
/// groups touched by the incoming deltas are re-evaluated; the operator
/// emits the difference between each group's new and previously emitted
/// output (retract old / assert new), which is what lets best-route changes
/// ripple like protocol withdrawals.
template <class K, class V, class Out>
class Reduce final : public OperatorBase {
 public:
  /// `fn` sees the group's full contents, each distinct value once with its
  /// weight (all positive in a well-formed program), and appends output
  /// tuples (weight 1 each).
  using Fn = std::function<void(const K&, GroupView<V>, std::vector<Out>&)>;

  Reduce(Graph& graph, Stream<std::pair<K, V>>& upstream, Fn fn, std::string name = "reduce")
      : OperatorBase(graph, std::move(name)), fn_(std::move(fn)) {
    add_input(upstream);
  }

  /// Add another input; the groups see the union (weights add). May be
  /// called after downstream operators were built.
  void add_input(Stream<std::pair<K, V>>& upstream) {
    upstream.subscribe([this](const ZSet<std::pair<K, V>>& d) {
      pending_.insert(pending_.end(), d.begin(), d.end());
      graph_.schedule(*this);
    });
  }

  void flush() override {
    // Apply deltas to group contents, listing each touched group once.
    // `touched` never outlives this flush, so saved state never holds it.
    for (const auto& [kv, w] : pending_) {
      auto& entry = *groups_.try_emplace(kv.first).first;
      entry.second.add(kv.second, w);
      if (!entry.second.touched) {
        entry.second.touched = true;
        touched_.push_back(&entry);
      }
    }
    pending_.clear();

    // Node-based map: entry pointers survive the rehashes above.
    ZSet<Out> delta;
    for (auto* entry : touched_) {
      Group& g = entry->second;
      g.touched = false;
      next_.clear();
      if (!g.input.empty()) fn_(entry->first, g.input, next_);
      add_difference(delta, g.output, next_);
      if (g.input.empty()) {
        groups_.erase(entry->first);
      } else {
        g.output.swap(next_);
      }
    }
    touched_.clear();

    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Groups>(groups_);
  }
  void load_state(const void* state) override {
    groups_ = *static_cast<const Groups*>(state);
    pending_.clear();
    touched_.clear();
  }

  Stream<Out> out;

  std::size_t group_count() const noexcept { return groups_.size(); }

 private:
  /// Groups are small (a selection's candidates), so flat vectors beat
  /// hash maps: an update scans its group.
  struct Group {
    std::vector<std::pair<V, Weight>> input;  ///< distinct values, nonzero weights
    std::vector<Out> output;  ///< what `fn` last produced, duplicates kept
    bool touched = false;     ///< listed in touched_; only true mid-flush

    void add(const V& v, Weight w) {
      for (auto& entry : input) {
        if (!(entry.first == v)) continue;
        entry.second += w;
        if (entry.second == 0) {
          entry = std::move(input.back());
          input.pop_back();
        }
        return;
      }
      input.emplace_back(v, w);
    }
  };
  using Groups = std::unordered_map<K, Group, core::TupleHash>;

  /// delta += next - prev as multisets. Pairwise matching is quadratic,
  /// which is cheaper than hashing for the handful of tuples a selection
  /// emits per group.
  void add_difference(ZSet<Out>& delta, const std::vector<Out>& prev,
                      const std::vector<Out>& next) {
    if (prev == next) return;
    matched_.assign(next.size(), false);
    for (const Out& p : prev) {
      std::size_t i = 0;
      while (i < next.size() && (matched_[i] || !(next[i] == p))) ++i;
      if (i < next.size()) {
        matched_[i] = true;
      } else {
        delta.add(p, -1);
      }
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (!matched_[i]) delta.add(next[i], +1);
    }
  }

  Fn fn_;
  Groups groups_;
  std::vector<std::pair<std::pair<K, V>, Weight>> pending_;
  // Per-flush scratch, reused so steady-state flushes do not allocate.
  std::vector<typename Groups::value_type*> touched_;
  std::vector<Out> next_;
  std::vector<bool> matched_;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Materialized sink: exposes the relation's current contents plus the
/// accumulated delta since the caller last drained it.
template <class T>
class Output final : public OperatorBase {
 public:
  Output(Graph& graph, Stream<T>& upstream, std::string name = "output")
      : OperatorBase(graph, std::move(name)) {
    upstream.subscribe([this](const ZSet<T>& d) {
      pending_.merge(d);
      graph_.schedule(*this);
    });
  }

  void flush() override {
    current_.merge(pending_);
    accumulated_.merge(std::move(pending_));
    pending_.clear();
  }

  std::shared_ptr<const void> save_state() const override {
    return std::make_shared<const Saved>(Saved{current_, accumulated_});
  }
  void load_state(const void* state) override {
    const Saved& s = *static_cast<const Saved*>(state);
    current_ = s.current;
    accumulated_ = s.accumulated;
    pending_.clear();
  }

  const ZSet<T>& current() const noexcept { return current_; }

  /// Deltas accumulated since the previous take_delta() call.
  ZSet<T> take_delta() {
    ZSet<T> d = std::move(accumulated_);
    accumulated_.clear();
    return d;
  }

 private:
  struct Saved {
    ZSet<T> current;
    ZSet<T> accumulated;
  };

  ZSet<T> current_;
  ZSet<T> accumulated_;
  ZSet<T> pending_;
};

}  // namespace rcfg::dd
