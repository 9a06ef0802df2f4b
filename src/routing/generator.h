#pragma once

// The incremental data plane generator — RealConfig's first pipeline stage
// (paper §4.2): configuration changes in, forwarding/filtering rule changes
// out.
//
// The control-plane semantics (OSPF, BGP, static routes, connected routes,
// route redistribution) are written once, as a dataflow program over the
// rcfg::dd engine, our stand-in for DDlog/Differential Dataflow. apply()
// lowers the new configuration to fact relations, stages the fact delta
// against the previous snapshot, and commits; the engine re-converges
// incrementally from the previous fixpoint and the FIB delta falls out of
// the output sink. Filter (ACL) rules never need simulation and are diffed
// directly from the configs.
//
// Round-stratified evaluation. Route propagation is a fixpoint of
//     best_r = select(origins ∪ extend(best_{r-1}))
// evaluated for r = 0..max_rounds, with the round as a second timestamp
// (differential dataflow's per-iteration timestamps). This keeps the
// dataflow acyclic, so deletions cost work proportional to the truly
// affected state per round — the naive cyclic formulation instead "path
// hunts" through exponentially many stale alternative routes when a route
// is withdrawn. Convergence means best_R = best_{R-1}; a difference means
// either max_rounds is too small for the network's diameter/metric
// structure (increase it) or the control plane genuinely oscillates (paper
// §6) — both reported as NonterminationError.
//
// Each protocol is one dd::RoundFixpoint reading a dd::Arrange of its links.
// The operator stores, per (node, prefix), only the rounds at which the
// selection changes, and re-selects a key at round r only when one of its
// inputs at r changed: its origins, a neighbour's value at r−1, or a link.
// A converged route therefore costs no work and no state past its
// convergence round, and the program's size does not depend on max_rounds.
// The operator counts the keys whose selection still changes at round R,
// which is the convergence check.

#include <array>
#include <cstdint>
#include <memory>

#include "config/types.h"
#include "dd/graph.h"
#include "dd/operators.h"
#include "dd/zset.h"
#include "routing/facts.h"
#include "routing/types.h"
#include "topo/topology.h"

namespace rcfg::routing {

/// Rule-level changes produced by one configuration change.
struct DataPlaneDelta {
  dd::ZSet<FibEntry> fib;        ///< +1 inserted rule, -1 deleted rule
  dd::ZSet<FilterRule> filters;  ///< ditto for ACL rules

  bool empty() const { return fib.empty() && filters.empty(); }
  std::size_t insertions() const;
  std::size_t deletions() const;
};

struct GeneratorOptions {
  /// Number of synchronous propagation rounds evaluated per protocol.
  /// Must exceed the longest minimal route's hop count (bounded by the
  /// node count; for fat-tree-like fabrics a couple dozen is plenty).
  unsigned max_rounds = 24;
};

class IncrementalGenerator {
 public:
  /// The topology is fixed for the generator's lifetime; configurations
  /// (including interface shutdowns) vary per apply().
  explicit IncrementalGenerator(const topo::Topology& topo, GeneratorOptions options = {});

  /// Load a configuration (the first call computes from scratch; later
  /// calls re-converge incrementally) and return the data plane delta.
  /// Throws dd::NonterminationError when the route computation has not
  /// converged within max_rounds (see header comment).
  DataPlaneDelta apply(const config::NetworkConfig& cfg);

  /// Current converged state.
  const dd::ZSet<FibEntry>& fib() const { return fib_out_->current(); }
  const dd::ZSet<FilterRule>& filters() const { return filters_; }
  const dd::ZSet<OspfRoute>& ospf_best() const { return ospf_best_out_->current(); }
  const dd::ZSet<BgpRoute>& bgp_best() const { return bgp_best_out_->current(); }
  const dd::ZSet<RipRoute>& rip_best() const { return rip_best_out_->current(); }

  /// Engine work done by the last apply() — the paper's "incremental
  /// computation is small" claim made measurable.
  std::uint64_t last_flushes() const { return graph_.last_commit_flushes(); }
  std::size_t operator_count() const { return graph_.operator_count(); }
  /// (key, round) route selections evaluated since construction, over all
  /// protocols: the routing work, which stops at each route's convergence
  /// round and so does not grow with max_rounds.
  std::uint64_t round_evaluations() const;
  unsigned max_rounds() const { return options_.max_rounds; }

  /// Checkpoint of the generator's converged state: every dataflow
  /// operator's state plus the directly diffed filter relation (and, when
  /// provenance is on, the previous fact snapshot). Restorable into this
  /// generator or any generator built over the same topology and options —
  /// build_program() is deterministic, so operator positions line up.
  struct Snapshot {
    dd::GraphSnapshot graph;
    dd::ZSet<FilterRule> filters;
    std::shared_ptr<const FactSnapshot> prev_facts;  ///< null when provenance off
  };

  /// Requires a quiescent graph (apply() either finished or threw with the
  /// commit unwound); throws std::logic_error otherwise.
  Snapshot snapshot() const;

  /// Restore converged state from `snap`. Also recovers a generator whose
  /// last apply() diverged — the partially flushed operator state is
  /// overwritten wholesale.
  void restore(const Snapshot& snap);

  // --- provenance (pay-as-you-go: nothing is retained until enabled) ------
  /// When on, apply() keeps the previous fact snapshot and records which
  /// devices' compiled facts changed — the fact-level origin of the rule
  /// delta, used by the explain layer to tie ops back to config edits.
  void set_provenance(bool on);
  bool provenance() const noexcept { return provenance_; }
  /// Devices whose facts changed in the last apply() (sorted, unique).
  /// Always empty while provenance is off.
  const std::vector<topo::NodeId>& last_changed_devices() const noexcept {
    return changed_devices_;
  }

 private:
  void build_program();
  void record_changed_devices_(const FactSnapshot& facts);

  const topo::Topology& topo_;
  GeneratorOptions options_;
  dd::Graph graph_;

  bool provenance_ = false;
  std::unique_ptr<FactSnapshot> prev_facts_;  ///< only while provenance is on
  std::vector<topo::NodeId> changed_devices_;

  // Input relations.
  dd::Input<OspfLinkFact>* in_ospf_links_ = nullptr;
  dd::Input<OspfOriginFact>* in_ospf_origins_ = nullptr;
  dd::Input<BgpSessionFact>* in_bgp_sessions_ = nullptr;
  dd::Input<BgpOriginFact>* in_bgp_origins_ = nullptr;
  dd::Input<BgpAggregateFact>* in_bgp_aggregates_ = nullptr;
  dd::Input<RipLinkFact>* in_rip_links_ = nullptr;
  dd::Input<RipOriginFact>* in_rip_origins_ = nullptr;
  dd::Input<DynRedistFact>* in_redist_ = nullptr;
  dd::Input<StaticFact>* in_statics_ = nullptr;
  dd::Input<ConnectedFact>* in_connected_ = nullptr;

  // Output sinks.
  dd::Output<FibEntry>* fib_out_ = nullptr;
  dd::Output<OspfRoute>* ospf_best_out_ = nullptr;
  dd::Output<BgpRoute>* bgp_best_out_ = nullptr;
  dd::Output<RipRoute>* rip_best_out_ = nullptr;
  // Each protocol's fixpoint operator (OSPF, BGP, RIP), for its counters.
  std::array<const dd::RoundFixpointBase*, 3> fixpoints_{};

  // Filter rules are maintained by direct diffing (no simulation needed).
  dd::ZSet<FilterRule> filters_;
};

}  // namespace rcfg::routing
