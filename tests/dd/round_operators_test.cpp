// Tests for the operators redistribution, aggregation and FIB selection are
// built from: JoinArranged reading a shared Arrange, and the multi-input
// Reduce. Each is checked
// against a from-scratch computation, including under a feedback edge that
// flushes a reader several times in one commit and across a save/load of
// operator state.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "core/rng.h"
#include "dd/operators.h"

namespace rcfg::dd {
namespace {

using Edge = std::pair<int, int>;  // (from, to)
using KW = std::pair<int, int>;    // (key, value)

std::optional<int> label_edge(const int& n, const Edge& e) {
  if (e.second < 0) return std::nullopt;  // rejected extension
  return n * 100 + e.second;
}

/// One node relation joined with an edge relation arranged by tail.
struct EdgeJoin {
  Graph g;
  Input<Edge>* edges = nullptr;
  Input<int>* nodes = nullptr;
  Output<int>* out = nullptr;

  EdgeJoin() {
    edges = &g.make<Input<Edge>>("edges");
    auto& by_from =
        g.make<Arrange<int, Edge>>(edges->out, [](const Edge& e) { return e.first; }, "by_from");
    nodes = &g.make<Input<int>>("nodes");
    auto& j = join_arranged(g, nodes->out, by_from, [](const int& n) { return n; }, label_edge);
    out = &g.make<Output<int>>(j.out);
  }
};

/// The join computed directly from both relations' contents.
ZSet<int> scratch_join(const ZSet<int>& nodes, const ZSet<Edge>& edges) {
  ZSet<int> z;
  for (const auto& [n, wn] : nodes) {
    for (const auto& [e, we] : edges) {
      if (e.first != n) continue;
      if (std::optional<int> o = label_edge(n, e)) z.add(*o, wn * we);
    }
  }
  return z;
}

TEST(JoinArranged, DeltasOnBothSidesInOneFlush) {
  EdgeJoin p;
  p.nodes->insert(1);
  p.edges->insert({1, 2});
  p.g.commit();
  EXPECT_EQ(p.out->take_delta().entries(), (std::vector<std::pair<int, Weight>>{{102, 1}}));

  // One commit moves both sides: node 1 gains weight, a new edge arrives
  // with weight 3, and a rejected edge arrives too.
  p.nodes->update(1, +1);
  p.edges->update({1, 3}, 3);
  p.edges->insert({1, -5});
  p.g.commit();
  const ZSet<int> d = p.out->take_delta();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.weight(102), 1);  // dA ⋈ B_new: (+1) * 1
  EXPECT_EQ(d.weight(103), 6);  // A_new ⋈ dB: 2 * 3
  EXPECT_EQ(p.out->current().weight(102), 2);
  EXPECT_EQ(p.out->current().weight(103), 6);
  for (const auto& [v, w] : p.out->current()) EXPECT_NE(v % 100, 95) << "rejected pair emitted";

  // Retracting both sides together cancels exactly.
  p.nodes->update(1, -2);
  p.edges->remove({1, 2});
  p.g.commit();
  EXPECT_TRUE(p.out->current().empty());
}

TEST(JoinArrangedProperty, RandomBothSidedEditsMatchScratch) {
  EdgeJoin p;
  core::Rng rng{17};
  for (int step = 0; step < 300; ++step) {
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < edits; ++i) {
      const int a = static_cast<int>(rng.next_below(6));
      const int b = static_cast<int>(rng.next_below(8)) - 2;  // some rejected
      const Weight w = rng.next_below(3) == 0 ? -1 : 1;
      if (rng.next_below(2) == 0) {
        if (w > 0 || p.nodes->current().weight(a) > 0) p.nodes->update(a, w);
      } else if (w > 0 || p.edges->current().weight({a, b}) > 0) {
        p.edges->update({a, b}, w);
      }
    }
    p.g.commit();
    ASSERT_EQ(p.out->current(), scratch_join(p.nodes->current(), p.edges->current()))
        << "step " << step;
  }
}

using Path = std::vector<int>;

/// Loop-free paths from a source set, extended by a JoinArranged that feeds
/// back into the Concat ahead of it: one commit flushes the reader once per
/// path length. Two such loops read one shared edge arrangement.
struct SharedReach {
  Graph g;
  Input<Edge>* edges = nullptr;
  Input<int>* sources[2] = {nullptr, nullptr};
  OperatorBase* extend[2] = {nullptr, nullptr};
  Output<Path>* paths[2] = {nullptr, nullptr};

  static int head(const Path& p) { return p.back(); }
  static std::optional<Path> step(const Path& p, const Edge& e) {
    if (std::find(p.begin(), p.end(), e.second) != p.end()) return std::nullopt;
    Path q = p;
    q.push_back(e.second);
    return q;
  }

  SharedReach() {
    edges = &g.make<Input<Edge>>("edges");
    auto& by_from =
        g.make<Arrange<int, Edge>>(edges->out, [](const Edge& e) { return e.first; }, "by_from");
    for (int i = 0; i < 2; ++i) {
      sources[i] = &g.make<Input<int>>("sources");
      auto& all = g.make<Concat<Path>>("paths");
      auto& seed = g.make<Map<int, Path>>(sources[i]->out, [](const int& s) { return Path{s}; });
      all.add_input(seed.out);
      auto& ext = join_arranged(g, all.out, by_from, &head, &step, "extend");
      all.add_input(ext.out);
      extend[i] = &ext;
      paths[i] = &g.make<Output<Path>>(all.out);
    }
  }
};

/// Every loop-free path from `sources` over `edges`.
std::set<Path> enumerate_paths(const std::set<Edge>& edges, const std::set<int>& sources) {
  std::set<Path> out;
  std::queue<Path> todo;
  for (int s : sources) todo.push(Path{s});
  while (!todo.empty()) {
    Path p = todo.front();
    todo.pop();
    out.insert(p);
    for (const Edge& e : edges) {
      if (e.first != p.back()) continue;
      if (std::optional<Path> q = SharedReach::step(p, e)) todo.push(*q);
    }
  }
  return out;
}

std::set<Path> as_set(const Output<Path>& out) {
  std::set<Path> s;
  for (const auto& [p, w] : out.current()) {
    EXPECT_EQ(w, 1) << "path derived more than once";
    s.insert(p);
  }
  return s;
}

TEST(JoinArranged, SharedArrangementUnderFeedbackMatchesScratch) {
  SharedReach p;
  core::Rng rng{5};
  std::set<Edge> edges;
  std::set<int> sources[2];
  std::uint64_t most_flushes = 0;  // by one reader in one commit
  for (int step = 0; step < 120; ++step) {
    // Edges and sources change in the same commit, so a reader sees dB in
    // its first flush and only dA in the feedback flushes after it.
    for (int i = 0; i < 2; ++i) {
      const Edge e{static_cast<int>(rng.next_below(6)), static_cast<int>(rng.next_below(6))};
      if (e.first == e.second) continue;
      if (edges.erase(e) > 0) {
        p.edges->remove(e);
      } else {
        edges.insert(e);
        p.edges->insert(e);
      }
    }
    const int which = static_cast<int>(rng.next_below(2));
    const int s = static_cast<int>(rng.next_below(6));
    if (sources[which].erase(s) > 0) {
      p.sources[which]->remove(s);
    } else {
      sources[which].insert(s);
      p.sources[which]->insert(s);
    }
    const std::uint64_t before[2] = {p.extend[0]->flush_count(), p.extend[1]->flush_count()};
    p.g.commit();
    for (int i = 0; i < 2; ++i) {
      most_flushes = std::max(most_flushes, p.extend[i]->flush_count() - before[i]);
      ASSERT_EQ(as_set(*p.paths[i]), enumerate_paths(edges, sources[i]))
          << "step " << step << " loop " << i;
    }
  }
  EXPECT_GE(most_flushes, 3u) << "feedback never re-flushed a reader within a commit";
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

/// Emits the group minimum twice and the maximum once, so outputs repeat.
void min_min_max(const int&, GroupView<int> group, std::vector<int>& out) {
  int lo = INT_MAX, hi = INT_MIN;
  for (const auto& [v, w] : group) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  out.push_back(lo);
  out.push_back(lo);
  out.push_back(hi);
}

TEST(Reduce, TwoInputsMultisetOutputsAndRegrowingGroups) {
  Graph g;
  auto& a = g.make<Input<KW>>();
  auto& b = g.make<Input<KW>>();
  auto& r = g.make<Reduce<int, int, int>>(a.out, min_min_max);
  r.add_input(b.out);
  auto& out = g.make<Output<int>>(r.out);

  a.insert({1, 5});
  b.insert({1, 3});
  g.commit();
  EXPECT_EQ(out.current().weight(3), 2);
  EXPECT_EQ(out.current().weight(5), 1);
  (void)out.take_delta();

  // Outputs {3,3,5} -> {4,4,5}: both 3s retract, two 4s assert, and the
  // 5, matched on both sides, is not re-emitted.
  a.remove({1, 5});
  a.insert({1, 4});
  b.insert({1, 5});
  b.remove({1, 3});
  b.insert({1, 4});
  g.commit();
  ZSet<int> d = out.take_delta();
  EXPECT_EQ(d.weight(3), -2);
  EXPECT_EQ(d.weight(4), 2);
  EXPECT_EQ(d.weight(5), 0);
  EXPECT_EQ(d.size(), 2u);

  // Empty the group from both inputs at once: everything retracts.
  a.remove({1, 4});
  b.remove({1, 4});
  b.remove({1, 5});
  g.commit();
  EXPECT_TRUE(out.current().empty());
  EXPECT_EQ(r.group_count(), 0u);

  // The group reappears from the other input.
  b.insert({1, 7});
  g.commit();
  EXPECT_EQ(out.current().weight(7), 3);
  EXPECT_EQ(r.group_count(), 1u);
}

/// A Reduce over one input, used to compare restored and scratch builds.
struct MinProgram {
  Graph g;
  Input<KW>* in = nullptr;
  Output<int>* out = nullptr;

  MinProgram() {
    in = &g.make<Input<KW>>();
    auto& r = g.make<Reduce<int, int, int>>(in->out, min_min_max);
    out = &g.make<Output<int>>(r.out);
  }
};

TEST(Reduce, LoadedStateMatchesScratchAfterManyCommits) {
  MinProgram live;
  core::Rng rng{23};
  auto random_edit = [&rng](MinProgram& p) {
    const KW kv{static_cast<int>(rng.next_below(8)), static_cast<int>(rng.next_below(10))};
    if (p.in->current().weight(kv) > 0) {
      p.in->remove(kv);
    } else {
      p.in->insert(kv);
    }
  };
  for (int i = 0; i < 300; ++i) {
    random_edit(live);
    live.g.commit();
  }
  const GraphSnapshot snap = live.g.snapshot();

  // As a failure sweep does: every step loads the same saved state into one
  // instance, lowers every group's minimum, and compares with a build that
  // sees the same contents in a single commit. The loaded instance's own
  // flush count runs past the live one's, so a per-group "touched" mark
  // judged against that count would go stale and skip a group.
  MinProgram loaded;
  for (int step = 0; step < 400; ++step) {
    loaded.g.restore(snap);
    for (int k = 0; k < 8; ++k) loaded.in->insert({k, -1});
    loaded.g.commit();
    MinProgram scratch;
    scratch.in->set_to(loaded.in->current());
    scratch.g.commit();
    ASSERT_EQ(loaded.out->current(), scratch.out->current()) << "step " << step;
  }
}

}  // namespace
}  // namespace rcfg::dd
