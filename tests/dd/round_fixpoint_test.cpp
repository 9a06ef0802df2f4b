// Tests for RoundFixpoint, the sparse round-stratified fixpoint operator.
// The oracle is the same fixpoint unrolled into explicit rounds — best_0 a
// Reduce over the origins, then per round a JoinArranged extending
// best_{r-1} over a shared links Arrange and a Reduce over origins and
// those candidates — with convergence read off as the keys whose best_R
// and best_{R-1} differ. Both programs see the same random edits, with and
// without a feedback edge into the origins, and across save/load of state.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "dd/operators.h"

namespace rcfg::dd {
namespace {

using Link = std::tuple<int, int, int>;         // (from, to, cost)
using Route = std::tuple<int, int, int, int>;   // (node, prefix, cost, previous hop)
using Key = std::pair<int, int>;                // (node, prefix)
using Redist = std::tuple<int, int, int>;       // (node, from prefix, to prefix)

constexpr int kMaxCost = 12;

Key key_of(const Route& r) { return {std::get<0>(r), std::get<1>(r)}; }

std::optional<Route> extend(const Route& r, const Link& l) {
  const int cost = std::get<2>(r) + std::get<2>(l);
  if (cost > kMaxCost) return std::nullopt;  // rejected extension
  return Route{std::get<1>(l), std::get<1>(r), cost, std::get<0>(l)};
}

/// Every minimum-cost candidate: monotone, converges, several winners.
void min_cost(const Key&, GroupView<Route> group, std::vector<Route>& out) {
  int best = kMaxCost + 1;
  for (const auto& [r, w] : group) best = std::min(best, std::get<2>(r));
  for (const auto& [r, w] : group) {
    if (std::get<2>(r) == best) out.push_back(r);
  }
}

/// One winner under an arbitrary fixed preference: prone to oscillate, so
/// small round counts leave keys unconverged.
void quirky(const Key&, GroupView<Route> group, std::vector<Route>& out) {
  auto rank = [](const Route& r) {
    return std::pair<int, Route>{(std::get<2>(r) * 7 + std::get<3>(r) * 3) % 5, r};
  };
  const Route* best = nullptr;
  for (const auto& [r, w] : group) {
    if (best == nullptr || rank(r) < rank(*best)) best = &r;
  }
  if (best != nullptr) out.push_back(*best);
}

using SelectFn = void (*)(const Key&, GroupView<Route>, std::vector<Route>&);

/// Inputs, links arrangement and origins union shared by both programs; the
/// fixpoint (or the unrolled oracle) is built on top. With `feedback`,
/// best_R is arranged by node and joined with redistribution facts back
/// into the origins, so one commit flushes the fixpoint several times.
struct Program {
  Graph g;
  Input<Link>* links = nullptr;
  Input<Route>* origins = nullptr;
  Input<Redist>* redist = nullptr;
  Output<Route>* best = nullptr;
  Output<Route>* best_prev = nullptr;          ///< oracle only: best_{R-1}
  RoundFixpointBase* fixpoint = nullptr;       ///< fixpoint only

  Program(unsigned rounds, SelectFn select, bool unrolled, bool feedback) {
    links = &g.make<Input<Link>>("links");
    origins = &g.make<Input<Route>>("origins");
    redist = &g.make<Input<Redist>>("redist");
    auto& by_from =
        g.make<Arrange<int, Link>>(links->out, [](const Link& l) { return std::get<0>(l); });
    auto& all_origins = g.make<Concat<Route>>("all_origins");
    all_origins.add_input(origins->out);

    Stream<Route>* last = nullptr;
    if (unrolled) {
      auto& keyed = g.make<Map<Route, std::pair<Key, Route>>>(
          all_origins.out, [](const Route& r) { return std::pair<Key, Route>{key_of(r), r}; });
      auto* prev = &g.make<Reduce<Key, Route, Route>>(keyed.out, select, "best_r0");
      Reduce<Key, Route, Route>* prev_prev = nullptr;
      for (unsigned r = 1; r <= rounds; ++r) {
        auto& ext = join_arranged(
            g, prev->out, by_from, [](const Route& rt) { return std::get<0>(rt); },
            [](const Route& rt, const Link& l) -> std::optional<std::pair<Key, Route>> {
              std::optional<Route> next = extend(rt, l);
              if (!next) return std::nullopt;
              return std::pair<Key, Route>{key_of(*next), *next};
            });
        auto& round = g.make<Reduce<Key, Route, Route>>(keyed.out, select);
        round.add_input(ext.out);
        prev_prev = prev;
        prev = &round;
      }
      last = &prev->out;
      best_prev = &g.make<Output<Route>>(prev_prev->out);
    } else {
      auto& fix = round_fixpoint(
          g, all_origins.out, by_from, rounds, key_of, [](const Key& k) { return k.first; },
          extend, select, "fixpoint");
      fixpoint = &fix;
      last = &fix.out;
    }
    best = &g.make<Output<Route>>(*last);

    if (feedback) {
      auto& by_node =
          g.make<Arrange<int, Route>>(*last, [](const Route& r) { return std::get<0>(r); });
      auto& back = join_arranged(
          g, redist->out, by_node, [](const Redist& f) { return std::get<0>(f); },
          [](const Redist& f, const Route& r) -> std::optional<Route> {
            if (std::get<1>(r) != std::get<1>(f)) return std::nullopt;
            return Route{std::get<0>(r), std::get<2>(f), std::get<2>(r) / 2, -1};
          });
      all_origins.add_input(back.out);
    }
  }

  /// Keys whose selection differs between the last two rounds.
  std::size_t unconverged() const {
    if (fixpoint != nullptr) return fixpoint->unconverged();
    std::map<Key, std::multiset<Route>> last;
    std::map<Key, std::multiset<Route>> prev;
    for (const auto& [r, w] : best->current()) {
      for (Weight i = 0; i < w; ++i) last[key_of(r)].insert(r);
    }
    for (const auto& [r, w] : best_prev->current()) {
      for (Weight i = 0; i < w; ++i) prev[key_of(r)].insert(r);
    }
    std::set<Key> keys;
    for (const auto& [k, v] : last) keys.insert(k);
    for (const auto& [k, v] : prev) keys.insert(k);
    std::size_t n = 0;
    for (const Key& k : keys) n += last[k] != prev[k] ? 1 : 0;
    return n;
  }
};

/// Random relation contents over `nodes` nodes and three prefixes.
struct Contents {
  ZSet<Link> links;
  ZSet<Route> origins;
  ZSet<Redist> redist;

  void load(Program& p) const {
    p.links->set_to(links);
    p.origins->set_to(origins);
    p.redist->set_to(redist);
  }

  /// One random edit: toggle a link or an origin, or re-cost a link. Links
  /// and origins carry weight 1 or 2, so multiplicities are exercised too.
  void edit(core::Rng& rng, int nodes) {
    const int a = static_cast<int>(rng.next_below(nodes));
    const int b = static_cast<int>(rng.next_below(nodes));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const Link l{a, b, 1 + static_cast<int>(rng.next_below(4))};
        if (a == b) break;
        if (links.contains(l)) {
          links.add(l, -links.weight(l));
        } else {
          links.add(l, 1 + static_cast<Weight>(rng.next_below(2)));
        }
        break;
      }
      case 2: {
        const int prefix = static_cast<int>(rng.next_below(3));
        const Route o{a, prefix, static_cast<int>(rng.next_below(3)), -1};
        if (origins.contains(o)) {
          origins.add(o, -origins.weight(o));
        } else {
          origins.add(o, 1 + static_cast<Weight>(rng.next_below(2)));
        }
        break;
      }
      default: {
        for (const auto& [l, w] : links.entries()) {
          if (std::get<0>(l) != a) continue;
          links.add(l, -w);
          links.add(Link{a, std::get<1>(l), 1 + static_cast<int>(rng.next_below(4))}, w);
          break;
        }
      }
    }
  }
};

void expect_same(Program& fix, Program& oracle, const std::string& where) {
  ASSERT_TRUE(fix.best->current() == oracle.best->current()) << where << ": best_R";
  ASSERT_EQ(fix.unconverged(), oracle.unconverged()) << where << ": unconverged keys";
}

TEST(RoundFixpointProperty, MatchesUnrolledRoundsUnderRandomEdits) {
  std::size_t unconverged_seen = 0;
  for (const unsigned rounds : {2u, 3u, 5u, 9u}) {
    for (const SelectFn select : {&min_cost, &quirky}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        core::Rng rng(seed * 131 + rounds);
        const int nodes = 3 + static_cast<int>(rng.next_below(5));
        Program fix(rounds, select, /*unrolled=*/false, /*feedback=*/false);
        Program oracle(rounds, select, /*unrolled=*/true, /*feedback=*/false);
        Contents c;
        for (int i = 0; i < nodes * 2; ++i) c.edit(rng, nodes);
        for (int step = 0; step < 40; ++step) {
          const std::string where = "R=" + std::to_string(rounds) +
                                    (select == &min_cost ? " min_cost" : " quirky") + " seed " +
                                    std::to_string(seed) + " step " + std::to_string(step);
          c.load(fix);
          c.load(oracle);
          fix.g.commit();
          oracle.g.commit();
          ASSERT_TRUE(fix.best->take_delta() == oracle.best->take_delta()) << where << ": delta";
          expect_same(fix, oracle, where);
          if (fix.unconverged() != 0) ++unconverged_seen;
          const int edits = 1 + static_cast<int>(rng.next_below(3));
          for (int i = 0; i < edits; ++i) c.edit(rng, nodes);
        }
      }
    }
  }
  EXPECT_GT(unconverged_seen, 0u) << "no case left a key unconverged";
}

TEST(RoundFixpointFeedback, ExactWhenFlushedSeveralTimesInOneCommit) {
  // Prefix 0 routes are redistributed into prefix 1 and prefix 1 into 2 at
  // some nodes, so a commit that changes prefix 0 re-enters the fixpoint
  // once per redistribution hop.
  std::uint64_t most_flushes = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    core::Rng rng(seed);
    const int nodes = 4 + static_cast<int>(rng.next_below(4));
    Program fix(6, &min_cost, /*unrolled=*/false, /*feedback=*/true);
    Program oracle(6, &min_cost, /*unrolled=*/true, /*feedback=*/true);
    Contents c;
    for (int i = 0; i < nodes * 3; ++i) c.edit(rng, nodes);
    for (int n = 0; n < nodes; n += 2) {
      c.redist.add(Redist{n, 0, 1}, 1);
      c.redist.add(Redist{n + 1, 1, 2}, 1);
    }
    for (int step = 0; step < 30; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      c.load(fix);
      c.load(oracle);
      const std::uint64_t before = fix.fixpoint->flush_count();
      fix.g.commit();
      oracle.g.commit();
      most_flushes = std::max(most_flushes, fix.fixpoint->flush_count() - before);
      ASSERT_TRUE(fix.best->take_delta() == oracle.best->take_delta()) << where << ": delta";
      expect_same(fix, oracle, where);
      c.edit(rng, nodes);
      if (rng.next_below(3) == 0) {
        c.origins.add(Route{static_cast<int>(rng.next_below(nodes)), 0, 0, -1}, 1);
      }
    }
  }
  EXPECT_GE(most_flushes, 2u) << "the feedback edge never re-flushed the fixpoint";
}

TEST(RoundFixpointState, SaveLoadRoundTripsIntoOneInstance) {
  // As a sweep does: one base state, reloaded into the same instance before
  // each scenario, each scenario a different random edit on top of it.
  for (const SelectFn select : {&min_cost, &quirky}) {
    core::Rng rng(select == &min_cost ? 7 : 8);
    const int nodes = 6;
    Program fix(4, select, /*unrolled=*/false, /*feedback=*/false);
    Program oracle(4, select, /*unrolled=*/true, /*feedback=*/false);
    Contents base;
    for (int i = 0; i < 30; ++i) {
      base.edit(rng, nodes);
      base.load(fix);
      fix.g.commit();
    }
    const GraphSnapshot snap = fix.g.snapshot();
    base.load(oracle);
    oracle.g.commit();
    expect_same(fix, oracle, "base");
    const ZSet<Route> base_best = fix.best->current();
    const std::size_t base_unconverged = fix.unconverged();

    for (int scenario = 0; scenario < 300; ++scenario) {
      const std::string where = "scenario " + std::to_string(scenario);
      fix.g.restore(snap);
      ASSERT_TRUE(fix.best->current() == base_best) << where << ": restored best_R";
      ASSERT_EQ(fix.unconverged(), base_unconverged) << where << ": restored count";
      Contents c = base;
      const int edits = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < edits; ++i) c.edit(rng, nodes);
      c.load(fix);
      c.load(oracle);
      fix.g.commit();
      oracle.g.commit();
      expect_same(fix, oracle, where);
    }
  }
}

}  // namespace
}  // namespace rcfg::dd
