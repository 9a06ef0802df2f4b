// Graph snapshot/restore tests: a snapshot captures every operator's
// accumulated state at a quiescent point; restore rewinds the graph (or a
// structurally identical twin — the fork case) to it, clearing any
// leftover pending buffers so the next commit starts clean. That last part
// is what makes restore the sanctioned recovery path after a divergent
// commit: divergence aborts mid-flush with tuples still parked in operator
// pendings.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dd/operators.h"

namespace rcfg::dd {
namespace {

using Entry = std::pair<int, int>;  // (key, value)

/// A little program with every stateful operator kind: Input, Arrange,
/// JoinArranged, Reduce, Output. keys() reads the distinct joined keys
/// currently derivable.
struct JoinProgram {
  Graph graph;
  Input<Entry>* left = nullptr;
  Input<Entry>* right = nullptr;
  Output<int>* keys = nullptr;

  JoinProgram() {
    left = &graph.make<Input<Entry>>("left");
    right = &graph.make<Input<Entry>>("right");
    auto& right_by_key = graph.make<Arrange<int, Entry>>(
        right->out, [](const Entry& e) { return e.first; }, "right_by_key");
    auto& joined = join_arranged(
        graph, left->out, right_by_key, [](const Entry& e) { return e.first; },
        [](const Entry& a, const Entry&) { return std::optional<Entry>(Entry{a.first, 0}); },
        "join");
    // Distinct keys: one output per key while any joined pair carries it.
    auto& distinct = graph.make<Reduce<int, int, int>>(
        joined.out,
        [](const int& k, GroupView<int> group, std::vector<int>& out) {
          if (std::ranges::any_of(group, [](const auto& e) { return e.second > 0; })) {
            out.push_back(k);
          }
        },
        "distinct");
    keys = &graph.make<Output<int>>(distinct.out, "keys");
  }

  std::set<int> current() const {
    std::set<int> s;
    for (const auto& [k, w] : keys->current()) {
      EXPECT_EQ(w, 1);
      s.insert(k);
    }
    return s;
  }
};

/// Feedback program whose key 0 oscillates forever and every other key is
/// stable: a divergence trigger with observable convergent state alongside.
struct MixedOscillator {
  Graph graph;
  Input<Entry>* seed = nullptr;
  Output<Entry>* out = nullptr;

  MixedOscillator() {
    seed = &graph.make<Input<Entry>>("seed");
    auto& hub = graph.make<Concat<Entry>>("hub");
    hub.add_input(seed->out);
    auto& flip = graph.make<Reduce<int, int, Entry>>(
        hub.out,
        [](const int& k, GroupView<int> group, std::vector<Entry>& emit) {
          if (k != 0) {
            emit.push_back({k, 2});
            return;
          }
          // Key 0: emit the marker iff absent. No fixpoint exists.
          if (std::ranges::none_of(group,
                                   [](const auto& e) { return e.first == 1 && e.second > 0; })) {
            emit.push_back({k, 1});
          }
        },
        "flip");
    hub.add_input(flip.out);
    out = &graph.make<Output<Entry>>(flip.out, "out");
  }
};

TEST(GraphSnapshot, RoundTripRestoresOperatorState) {
  JoinProgram p;
  for (int k = 0; k < 4; ++k) {
    p.left->insert({k, 10 + k});
    p.right->insert({k, 20 + k});
  }
  p.graph.commit();
  ASSERT_EQ(p.current(), (std::set<int>{0, 1, 2, 3}));

  const GraphSnapshot snap = p.graph.snapshot();
  const std::uint64_t commits_at_snap = p.graph.commit_count();

  p.left->remove({1, 11});
  p.right->insert({7, 27});
  p.left->insert({7, 17});
  p.graph.commit();
  ASSERT_EQ(p.current(), (std::set<int>{0, 2, 3, 7}));

  p.graph.restore(snap);
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(p.graph.commit_count(), commits_at_snap);

  // Incremental work from the restored state: the arrangements must be
  // back too, or this join would mis-derive.
  p.right->remove({2, 22});
  p.graph.commit();
  EXPECT_EQ(p.current(), (std::set<int>{0, 1, 3}));
}

TEST(GraphSnapshot, RestoreIntoStructuralTwin) {
  // The fork case: a snapshot taken on one graph seeds a second graph
  // built by the same deterministic constructor.
  JoinProgram a;
  for (int k = 0; k < 3; ++k) {
    a.left->insert({k, k});
    a.right->insert({k, k});
  }
  a.graph.commit();

  JoinProgram b;
  b.graph.restore(a.graph.snapshot());
  EXPECT_EQ(b.current(), a.current());

  // Both sides evolve identically from here.
  a.left->insert({9, 9});
  a.right->insert({9, 9});
  a.graph.commit();
  b.left->insert({9, 9});
  b.right->insert({9, 9});
  b.graph.commit();
  EXPECT_EQ(b.current(), a.current());
}

TEST(GraphSnapshot, SnapshotRejectsPendingInput) {
  JoinProgram p;
  p.graph.commit();
  p.left->insert({1, 1});
  EXPECT_THROW(p.graph.snapshot(), std::logic_error);
  p.graph.commit();
  EXPECT_NO_THROW(p.graph.snapshot());
}

TEST(GraphSnapshot, RestoreRejectsMismatchedGraph) {
  JoinProgram p;
  p.graph.commit();
  MixedOscillator other;
  EXPECT_THROW(other.graph.restore(p.graph.snapshot()), std::logic_error);
}

TEST(GraphSnapshot, RestoreRecoversFromDivergence) {
  MixedOscillator p;

  p.seed->insert({5, 0});
  p.graph.commit();
  const GraphSnapshot snap = p.graph.snapshot();

  p.seed->insert({0, 0});  // the oscillating key
  ASSERT_THROW(p.graph.commit(), NonterminationError);

  // The aborted flush left tuples in operator pendings; restore must clear
  // them, or they would leak into the next commit.
  p.graph.restore(snap);
  p.seed->insert({7, 0});
  p.graph.commit();

  std::set<int> keys;
  for (const auto& [e, w] : p.out->current()) {
    EXPECT_GT(w, 0);
    keys.insert(e.first);
  }
  EXPECT_EQ(keys, (std::set<int>{5, 7}));  // no trace of key 0
}

}  // namespace
}  // namespace rcfg::dd
