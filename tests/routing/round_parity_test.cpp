// Link-by-link parity of the round-stratified generator on fat-tree k=4 at
// recommended_max_rounds: every single-link failure matches the baseline
// simulator, every revert restores the healthy FIB exactly, and a twin
// restored from the healthy snapshot reaches the same state. The program's
// size is pinned as a formula in max_rounds, so an operator added to every
// round shows up here.

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

INSTANTIATE_TEST_SUITE_P(Protocols, RoundParity, ::testing::Values("ospf", "bgp"));

// Per protocol: origins, origins keyed, the links arrangement, best_r0, two
// operators per round, and the two convergence-check operators. RIP's
// horizon caps its rounds at 15. The rest is 36: ten inputs, three fact
// origin maps, six sinks, three best-route arrangements, six
// redistribution joins, the aggregation join, five FIB candidate maps, the
// FIB selection and its sink.
TEST(RoundParity, OperatorCountIsTwoPerRound) {
  const topo::Topology t = topo::make_fat_tree(4);
  for (unsigned rounds : {2u, recommended_max_rounds(t), 15u, 24u}) {
    const IncrementalGenerator gen(t, GeneratorOptions{rounds});
    const std::size_t rip_rounds = std::min(rounds, 15u);
    EXPECT_EQ(gen.operator_count(), 2 * (2 * rounds + 6) + (2 * rip_rounds + 6) + 36)
        << "max_rounds " << rounds;
  }
}

}  // namespace
}  // namespace rcfg::routing
