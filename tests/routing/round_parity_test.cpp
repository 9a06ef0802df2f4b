// Link-by-link parity of the round-stratified generator on fat-tree k=4 at
// recommended_max_rounds: every single-link failure matches the baseline
// simulator, every revert restores the healthy FIB exactly, and a twin
// restored from the healthy snapshot reaches the same state. The program's
// size and its routing work are pinned as independent of max_rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "routing/generator.h"
#include "routing/metrics.h"
#include "topo/generators.h"

namespace rcfg::routing {
namespace {

class RoundParity : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundParity, FailAndRevertEveryLink) {
  const std::string protocol = GetParam();
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig healthy =
      protocol == "ospf" ? config::build_ospf_network(t) : config::build_bgp_network(t);
  const GeneratorOptions options{recommended_max_rounds(t)};

  IncrementalGenerator gen(t, options);
  gen.apply(healthy);
  const dd::ZSet<FibEntry> healthy_fib = gen.fib();
  const IncrementalGenerator::Snapshot healthy_snap = gen.snapshot();
  IncrementalGenerator twin(t, options);

  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const std::string where = protocol + " link " + std::to_string(l);
    config::NetworkConfig failed = healthy;
    config::fail_link(failed, t, l);

    const DataPlaneDelta down = gen.apply(failed);
    ASSERT_TRUE(gen.fib() == baseline::simulate(t, failed).fib) << where << ": failure";

    twin.restore(healthy_snap);
    const DataPlaneDelta twin_down = twin.apply(failed);
    ASSERT_TRUE(twin.fib() == gen.fib()) << where << ": restored twin";
    ASSERT_TRUE(twin_down.fib == down.fib) << where << ": restored twin's delta";

    const DataPlaneDelta up = gen.apply(healthy);
    ASSERT_TRUE(gen.fib() == healthy_fib) << where << ": revert";
    for (const auto& [e, w] : down.fib) ASSERT_EQ(up.fib.weight(e), -w) << where;
    ASSERT_EQ(up.fib.size(), down.fib.size()) << where;
  }
}

// The rounds past convergence cost nothing: failing and reverting every
// link at recommended_max_rounds and at 24 gives the same FIB, the same
// deltas and the same count of (key, round) selections evaluated.
TEST_P(RoundParity, WorkIsFlatInMaxRounds) {
  const std::string protocol = GetParam();
  const topo::Topology t = topo::make_fat_tree(4);
  const config::NetworkConfig healthy =
      protocol == "ospf" ? config::build_ospf_network(t) : config::build_bgp_network(t);
  ASSERT_LT(recommended_max_rounds(t), 24u);

  IncrementalGenerator tight(t, GeneratorOptions{recommended_max_rounds(t)});
  IncrementalGenerator loose(t, GeneratorOptions{24});
  auto apply_both = [&](const config::NetworkConfig& cfg, const std::string& where) {
    const std::uint64_t tight_before = tight.round_evaluations();
    const std::uint64_t loose_before = loose.round_evaluations();
    const DataPlaneDelta a = tight.apply(cfg);
    const DataPlaneDelta b = loose.apply(cfg);
    ASSERT_TRUE(a.fib == b.fib) << where << ": delta";
    ASSERT_TRUE(tight.fib() == loose.fib()) << where << ": FIB";
    ASSERT_EQ(tight.round_evaluations() - tight_before, loose.round_evaluations() - loose_before)
        << where << ": selections evaluated";
  };

  apply_both(healthy, protocol + " scratch");
  ASSERT_GT(tight.round_evaluations(), 0u);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const std::string where = protocol + " link " + std::to_string(l);
    config::NetworkConfig failed = healthy;
    config::fail_link(failed, t, l);
    apply_both(failed, where + " failure");
    apply_both(healthy, where + " revert");
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, RoundParity, ::testing::Values("ospf", "bgp"));

// One fixpoint operator per protocol, whatever max_rounds is: per protocol
// its origins, its links arrangement and the fixpoint itself, 9 in all. The
// rest is 33: ten inputs, three fact origin maps, three best-route sinks,
// three best-route arrangements, six redistribution joins, the aggregation
// join, five FIB candidate maps, the FIB selection and its sink.
TEST(RoundParity, OperatorCountIsFlatInMaxRounds) {
  const topo::Topology t = topo::make_fat_tree(4);
  for (unsigned rounds : {2u, recommended_max_rounds(t), 15u, 24u}) {
    const IncrementalGenerator gen(t, GeneratorOptions{rounds});
    EXPECT_EQ(gen.operator_count(), 3u * 3u + 33u) << "max_rounds " << rounds;
  }
}

}  // namespace
}  // namespace rcfg::routing
