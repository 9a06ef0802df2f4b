#pragma once

// Dataflow graph core: operators, typed streams, and the delta scheduler.
//
// Execution model (the substitute for Differential Dataflow, see DESIGN.md
// §2): users mutate Input operators, then call Graph::commit(). The
// scheduler flushes operators in ascending id order; flushing consumes an
// operator's pending input deltas, updates its persistent state, and emits
// an output delta to its subscribers' pending buffers. Feedback edges
// (subscriptions from a later operator back to an earlier one) simply
// re-schedule the earlier operator, so recursive programs iterate until no
// pending deltas remain — a fixpoint reached *from the previous fixpoint*,
// touching only state reachable from the input change.
//
// Nontermination (paper §6): a commit in which any one operator flushes
// more than Graph::kMaxOperatorFlushes times throws NonterminationError
// naming that operator. A converging routing commit flushes each operator a
// handful of times, and the routing program evaluates its rounds inside one
// RoundFixpoint per protocol, whose count of keys still changing at the last
// round (routing/generator.h) diagnoses oscillation after a finished
// commit; the cap is the backstop for feedback cycles that never quiesce
// (e.g. mutual redistribution).

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dd/zset.h"

namespace rcfg::dd {

class Graph;

/// Commit diverged: an operator hit the flush cap without quiescence.
class NonterminationError : public std::runtime_error {
 public:
  explicit NonterminationError(const std::string& message) : std::runtime_error(message) {}
};

/// Base class of every dataflow operator. Identity (`id`) doubles as the
/// scheduling priority; operators are created in dependency order for
/// acyclic edges, so ascending-id scheduling gives each operator at most
/// one flush per "round" of a recursive computation.
class OperatorBase {
 public:
  explicit OperatorBase(Graph& graph, std::string name);
  virtual ~OperatorBase() = default;

  OperatorBase(const OperatorBase&) = delete;
  OperatorBase& operator=(const OperatorBase&) = delete;

  /// Consume pending inputs, update state, emit deltas downstream.
  virtual void flush() = 0;

  /// Deep-copy the operator's persistent state (arrangements, groups,
  /// counts) into an immutable, type-erased blob. Stateless operators
  /// return nullptr. The blob is shared: many forks may restore from it.
  virtual std::shared_ptr<const void> save_state() const = 0;

  /// Replace the operator's state with a copy of `state` — a blob produced
  /// by save_state() on an operator occupying the same graph position —
  /// and discard any pending input deltas. `state` may be nullptr for
  /// stateless operators.
  virtual void load_state(const void* state) = 0;

  std::uint32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t flush_count() const noexcept { return flushes_; }

 protected:
  Graph& graph_;

 private:
  friend class Graph;
  std::uint32_t id_ = 0;
  std::string name_;
  std::uint64_t flushes_ = 0;
};

/// A typed edge bundle: the producer-side handle holding subscriber
/// callbacks. Subscribers merge emitted deltas into their pending buffers
/// and ask the graph to schedule them.
template <class T>
class Stream {
 public:
  using Subscriber = std::function<void(const ZSet<T>&)>;

  void subscribe(Subscriber fn) { subs_.push_back(std::move(fn)); }

  /// Deliver a delta to all subscribers (no-op when empty).
  void emit(const ZSet<T>& delta) {
    if (delta.empty()) return;
    for (const Subscriber& s : subs_) s(delta);
  }

 private:
  std::vector<Subscriber> subs_;
};

/// A checkpoint of every operator's persistent state, taken at quiescence.
/// The per-operator blobs are immutable and shared, so one snapshot can
/// seed any number of forked replicas without further copying; each
/// Graph::restore() deep-copies blob contents back into its operators.
struct GraphSnapshot {
  std::vector<std::shared_ptr<const void>> op_state;
  std::uint64_t commits = 0;
};

/// Owns the operators and runs commits. See file header for the model.
class Graph {
 public:
  Graph() = default;

  /// Construct an operator of type Op in this graph.
  template <class Op, class... Args>
  Op& make(Args&&... args) {
    auto op = std::make_unique<Op>(*this, std::forward<Args>(args)...);
    Op& ref = *op;
    ref.id_ = static_cast<std::uint32_t>(ops_.size());
    ops_.push_back(std::move(op));
    return ref;
  }

  /// Mark an operator as having pending input.
  void schedule(OperatorBase& op) { ready_.insert(op.id()); }

  /// Flushes one operator may take in one commit before the commit is
  /// declared divergent.
  static constexpr std::uint64_t kMaxOperatorFlushes = 10'000;

  /// Run to quiescence. Throws NonterminationError once any operator
  /// flushes more than kMaxOperatorFlushes times.
  void commit();

  std::size_t operator_count() const noexcept { return ops_.size(); }
  std::uint64_t last_commit_flushes() const noexcept { return last_commit_flushes_; }
  std::uint64_t commit_count() const noexcept { return commits_; }

  /// Checkpoint every operator's state. Requires quiescence (no operator
  /// scheduled); throws std::logic_error mid-commit or with pending work.
  GraphSnapshot snapshot() const;

  /// Restore every operator's state from `snap`, discarding pending deltas
  /// and clearing the schedule. The snapshot must come from a graph with an
  /// identical program (same operator count/order) — in practice either this
  /// graph or one built by the same deterministic builder. Safe to call on a
  /// graph whose last commit diverged: partially flushed state is simply
  /// overwritten.
  void restore(const GraphSnapshot& snap);

 private:
  std::vector<std::unique_ptr<OperatorBase>> ops_;
  std::set<std::uint32_t> ready_;  // ordered: lowest id flushed first
  std::uint64_t last_commit_flushes_ = 0;
  std::uint64_t commits_ = 0;
  std::vector<std::uint64_t> commit_flushes_;  // per operator, reset each commit
  bool in_commit_ = false;
  std::uint64_t commit_flush_counter_ = 0;
};

}  // namespace rcfg::dd
