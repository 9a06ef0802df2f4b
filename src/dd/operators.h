#pragma once

// The incremental operator library: Input, Map, Concat, Arrange,
// JoinArranged, Reduce, RoundFixpoint, Output — what the routing program is
// built from.
//
// Every operator keeps whatever persistent state it needs (join
// arrangements, reduce groups) so that processing a delta costs time
// proportional to the delta and the state it touches — never to the full
// relation. That state reuse is precisely the "incremental
// computation" the paper borrows from differential dataflow.

#include <algorithm>
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
// RoundFixpoint
// ---------------------------------------------------------------------------

/// What a RoundFixpoint reports, whatever its tuple and closure types.
class RoundFixpointBase : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;

  /// Keys whose selection changes at the last round, i.e. best_R ≠ best_{R−1}:
  /// nonzero means the computation has not converged within R rounds.
  std::size_t unconverged() const noexcept { return unconverged_; }

  /// (key, round) selections evaluated since construction.
  std::uint64_t evaluations() const noexcept { return evaluations_; }

 protected:
  std::size_t unconverged_ = 0;
  std::uint64_t evaluations_ = 0;
};

/// The round-stratified fixpoint
///     best_0 = select(origins)
///     best_r = select(origins ∪ extend(best_{r−1} ⋈ links)),   r = 1..R
/// with the round kept as a sparse second timestamp, as differential
/// dataflow keeps an iteration's round. Per key the operator stores only
/// its change points, the rounds at which its selection differs from the
/// round before (best_r is the last one at or before r), and its candidates
/// as round differences: the origins at round 0, and at round r+1 the
/// extension of each neighbour's change at round r. A converged key holds
/// no state, and costs no work, past its convergence round.
///
/// A flush joins the link delta with the change points as they stood
/// (the links Arrange has already absorbed it, so later extensions read the
/// new links), adds the origin delta at round 0, and then walks per-round
/// worklists in ascending order. Re-selecting key k at round r compares the
/// result with the value it replaces; when that moved from X to Y, the
/// extension of Y − X goes to round r+1 and that of X − Y to one round past
/// k's next change point, where the old value stopped holding. k is then
/// queued at its next round with candidates or a change point, since the
/// candidates it sees there include the ones that just changed. Each flush
/// leaves the exact fixpoint of the inputs seen so far, so feedback that
/// flushes the operator again in one commit stays exact.
///
/// The output is the delta of best_R. Build with round_fixpoint(), which
/// deduces the closure types.
template <class K, class J, class V, class L, class KeyFn, class ByFn, class Extend,
          class Select>
class RoundFixpoint final : public RoundFixpointBase {
 public:
  /// `key(v)` is a value's key, `by(k)` the links key its extensions join
  /// on, `extend(v, l)` returns std::optional<V>, and `select(k, group, out)`
  /// appends the selection from a group as Reduce's function does.
  RoundFixpoint(Graph& graph, Stream<V>& origins, Arrange<J, L>& links, unsigned rounds,
                KeyFn key, ByFn by, Extend extend, Select select, std::string name)
      : RoundFixpointBase(graph, std::move(name)),
        links_(links),
        rounds_(rounds),
        key_(std::move(key)),
        by_(std::move(by)),
        extend_(std::move(extend)),
        select_(std::move(select)),
        work_(rounds + 1) {
    origins.subscribe([this](const ZSet<V>& d) {
      pending_origins_.insert(pending_origins_.end(), d.begin(), d.end());
      graph_.schedule(*this);
    });
    links.out.subscribe([this](const ZSet<std::pair<J, L>>& d) {
      pending_links_.insert(pending_links_.end(), d.begin(), d.end());
      graph_.schedule(*this);
    });
  }

  void flush() override {
    // dL against the change points as they stand. The pushes are staged:
    // they may add keys under the very join key being walked.
    for (const auto& [jl, wl] : pending_links_) {
      auto it = state_.by_join.find(jl.first);
      if (it == state_.by_join.end()) continue;
      for (const K& k : it->second) {
        const std::vector<V>* before = &empty_;
        for (const Point& p : state_.keys.find(k)->second.points) {
          if (p.round >= rounds_) break;
          difference(p.best, *before, diff_);
          for (const auto& [v, wv] : diff_) {
            if (std::optional<V> o = extend_(v, jl.second)) {
              staged_.push_back(Cand{p.round + 1, std::move(*o), wl * wv});
            }
          }
          before = &p.best;
        }
      }
    }
    pending_links_.clear();
    for (Cand& c : staged_) push(c.round, std::move(c.value), c.weight);
    staged_.clear();
    for (auto& [v, w] : pending_origins_) push(0, std::move(v), w);
    pending_origins_.clear();

    // A key is evaluated only at rounds >= the one it is queued at, so
    // nothing is queued at a round already walked.
    for (std::uint32_t r = 0; r <= rounds_; ++r) {
      for (Entry* e : work_[r]) {
        if (e->second.queued != r) continue;  // requeued earlier; that walk covers r
        e->second.queued = kIdle;
        evaluate(*e, r);
      }
      work_[r].clear();
    }

    ZSet<V> delta;
    for (auto& [e, old_last] : touched_) {
      History& h = e->second;
      h.touched = false;
      add_difference(delta, old_last, h.points.empty() ? empty_ : h.points.back().best);
    }
    touched_.clear();
    for (const K& k : drained_) {
      auto it = state_.keys.find(k);
      if (it == state_.keys.end() || !it->second.cands.empty() || !it->second.points.empty()) {
        continue;
      }
      std::vector<K>& peers = state_.by_join.find(by_(k))->second;
      std::swap(*std::find(peers.begin(), peers.end(), k), peers.back());
      peers.pop_back();
      if (peers.empty()) state_.by_join.erase(by_(k));
      state_.keys.erase(it);
    }
    drained_.clear();
    out.emit(delta);
  }

  std::shared_ptr<const void> save_state() const override {
    State s = state_;
    s.unconverged = unconverged_;
    return std::make_shared<const State>(std::move(s));
  }
  void load_state(const void* state) override {
    state_ = *static_cast<const State*>(state);
    unconverged_ = state_.unconverged;
    pending_origins_.clear();
    pending_links_.clear();
  }

  /// Deltas of best_R.
  Stream<V> out;

 private:
  static constexpr std::uint32_t kIdle = static_cast<std::uint32_t>(-1);

  /// One round difference of a key's candidates.
  struct Cand {
    std::uint32_t round;
    V value;
    Weight weight;
  };
  /// A change point: from `round` on (until the next one) the key selects `best`.
  struct Point {
    std::uint32_t round;
    std::vector<V> best;
  };
  struct History {
    std::vector<Cand> cands;    ///< by round; (round, value) distinct, weights nonzero
    std::vector<Point> points;  ///< by round; each differs from the one before
    std::uint32_t queued = kIdle;  ///< round it waits at; kIdle outside a flush
    bool touched = false;          ///< listed in touched_; only true mid-flush
  };
  using Histories = std::unordered_map<K, History, core::TupleHash>;
  using Entry = typename Histories::value_type;
  struct State {
    Histories keys;
    std::unordered_map<J, std::vector<K>, core::TupleHash> by_join;  ///< every key, by by(k)
    std::size_t unconverged = 0;  ///< only meaningful in a saved copy
  };

  /// Adds `w` to k's candidate difference at `round` and queues k there.
  void push(std::uint32_t round, V&& value, Weight w) {
    auto [it, inserted] = state_.keys.try_emplace(key_(value));
    if (inserted) state_.by_join[by_(it->first)].push_back(it->first);
    std::vector<Cand>& cands = it->second.cands;
    auto c = std::lower_bound(cands.begin(), cands.end(), round,
                              [](const Cand& x, std::uint32_t r) { return x.round < r; });
    for (; c != cands.end() && c->round == round; ++c) {
      if (!(c->value == value)) continue;
      c->weight += w;
      if (c->weight == 0) {
        cands.erase(c);
        if (cands.empty()) drained_.push_back(it->first);
      }
      queue(*it, round);
      return;
    }
    cands.insert(c, Cand{round, std::move(value), w});
    queue(*it, round);
  }

  void queue(Entry& e, std::uint32_t round) {
    if (round >= e.second.queued) return;  // the walk from the earlier round reaches it
    e.second.queued = round;
    work_[round].push_back(&e);
  }

  void evaluate(Entry& e, std::uint32_t r) {
    History& h = e.second;
    group_.clear();
    for (const Cand& c : h.cands) {
      if (c.round > r) break;
      auto g = std::find_if(group_.begin(), group_.end(),
                            [&](const auto& x) { return x.first == c.value; });
      if (g == group_.end()) {
        group_.emplace_back(c.value, c.weight);
      } else {
        g->second += c.weight;
      }
    }
    std::erase_if(group_, [](const auto& x) { return x.second == 0; });
    next_.clear();
    if (!group_.empty()) select_(e.first, GroupView<V>(group_), next_);
    ++evaluations_;

    auto pos = std::lower_bound(h.points.begin(), h.points.end(), r,
                                [](const Point& p, std::uint32_t x) { return p.round < x; });
    const bool at_r = pos != h.points.end() && pos->round == r;
    const std::vector<V>& before = pos == h.points.begin() ? empty_ : std::prev(pos)->best;
    const std::vector<V>& old = at_r ? pos->best : before;
    // A point at r may also have become redundant, equal to the one before
    // it, when an earlier round of this key changed: drop it then too.
    const bool changed = !same(old, next_);
    const bool keep = !same(next_, before);
    std::uint32_t until = kIdle;
    if (changed) {
      if (!h.touched) {
        h.touched = true;
        touched_.emplace_back(&e, h.points.empty() ? empty_ : h.points.back().best);
      }
      difference(next_, old, diff_);
      auto after = at_r ? std::next(pos) : pos;
      if (after != h.points.end()) until = after->round;
    }
    if (at_r && !keep) {
      h.points.erase(pos);
      if (r == rounds_) --unconverged_;
    } else if (at_r && changed) {
      pos->best.swap(next_);
    } else if (!at_r && keep) {
      h.points.insert(pos, Point{r, std::move(next_)});
      if (r == rounds_) ++unconverged_;
    }
    if (changed) {
      if (r < rounds_) extend_diff(e.first, r + 1, +1);
      if (until < rounds_) extend_diff(e.first, until + 1, -1);
    }

    // Every later round's candidates include this round's: walk on to the
    // next round where they or the selection change.
    std::uint32_t next_round = kIdle;
    auto c = std::upper_bound(h.cands.begin(), h.cands.end(), r,
                              [](std::uint32_t x, const Cand& y) { return x < y.round; });
    if (c != h.cands.end()) next_round = c->round;
    auto p = std::upper_bound(h.points.begin(), h.points.end(), r,
                              [](std::uint32_t x, const Point& y) { return x < y.round; });
    if (p != h.points.end()) next_round = std::min(next_round, p->round);
    if (next_round <= rounds_) queue(e, next_round);
  }

  /// Pushes sign · extend(diff_) over k's current links to `round`.
  void extend_diff(const K& k, std::uint32_t round, Weight sign) {
    const ZSet<L>* links = links_.find(by_(k));
    if (links == nullptr) return;
    for (const auto& [l, wl] : *links) {
      for (const auto& [v, wv] : diff_) {
        if (std::optional<V> o = extend_(v, l)) push(round, std::move(*o), sign * wl * wv);
      }
    }
  }

  /// Multiset equality. Selections are a handful of values, so pairwise
  /// matching beats hashing.
  bool same(const std::vector<V>& a, const std::vector<V>& b) {
    if (a.size() != b.size()) return false;
    used_.assign(b.size(), false);
    for (const V& x : a) {
      std::size_t i = 0;
      while (i < b.size() && (used_[i] || !(b[i] == x))) ++i;
      if (i == b.size()) return false;
      used_[i] = true;
    }
    return true;
  }

  /// out = next − prev as a multiset, in weight-±1 entries.
  void difference(const std::vector<V>& next, const std::vector<V>& prev,
                  std::vector<std::pair<V, Weight>>& out) {
    out.clear();
    used_.assign(next.size(), false);
    for (const V& p : prev) {
      std::size_t i = 0;
      while (i < next.size() && (used_[i] || !(next[i] == p))) ++i;
      if (i < next.size()) {
        used_[i] = true;
      } else {
        out.emplace_back(p, -1);
      }
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (!used_[i]) out.emplace_back(next[i], +1);
    }
  }

  void add_difference(ZSet<V>& delta, const std::vector<V>& prev, const std::vector<V>& next) {
    difference(next, prev, diff_);
    for (auto& [v, w] : diff_) delta.add(std::move(v), w);
  }

  const Arrange<J, L>& links_;
  std::uint32_t rounds_;
  KeyFn key_;
  ByFn by_;
  Extend extend_;
  Select select_;
  State state_;
  std::vector<std::pair<V, Weight>> pending_origins_;
  std::vector<std::pair<std::pair<J, L>, Weight>> pending_links_;
  // Per-flush scratch; empty between flushes, so saved state never holds it.
  std::vector<std::vector<Entry*>> work_;  ///< per round; node-based map keeps entries put
  std::vector<std::pair<Entry*, std::vector<V>>> touched_;  ///< with best_R before the flush
  std::vector<K> drained_;                                   ///< keys whose candidates emptied
  std::vector<Cand> staged_;
  std::vector<std::pair<V, Weight>> group_;
  std::vector<std::pair<V, Weight>> diff_;
  std::vector<V> next_;
  std::vector<bool> used_;
  const std::vector<V> empty_;
};

/// Builds a RoundFixpoint in `graph` computing `rounds` rounds; see the class
/// for the closures.
template <class V, class J, class L, class KeyFn, class ByFn, class Extend, class Select>
auto& round_fixpoint(Graph& graph, Stream<V>& origins, Arrange<J, L>& links, unsigned rounds,
                     KeyFn key, ByFn by, Extend extend, Select select,
                     std::string name = "round_fixpoint") {
  using K = std::decay_t<std::invoke_result_t<KeyFn&, const V&>>;
  return graph.make<RoundFixpoint<K, J, V, L, KeyFn, ByFn, Extend, Select>>(
      origins, links, rounds, std::move(key), std::move(by), std::move(extend),
      std::move(select), std::move(name));
}

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
