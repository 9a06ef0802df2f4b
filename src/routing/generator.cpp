#include "routing/generator.h"

#include <algorithm>
#include <limits>
#include <string>

#include "routing/semantics.h"

namespace rcfg::routing {

namespace {

using namespace rcfg::dd;

/// Reduce key: (node, prefix).
using Key = std::pair<topo::NodeId, net::Ipv4Prefix>;

/// FIB candidate packed as a hashable tuple: (ad, metric, action, egress).
using Cand = std::tuple<std::uint32_t, std::uint32_t, std::uint8_t, topo::IfaceId>;

Cand pack(const FibCandidate& c) {
  return Cand{c.ad, c.metric, static_cast<std::uint8_t>(c.action), c.egress};
}

FibCandidate unpack(const Cand& c) {
  return FibCandidate{std::get<0>(c), std::get<1>(c), static_cast<FibAction>(std::get<2>(c)),
                      std::get<3>(c)};
}

std::uint32_t metric_of(const OspfRoute& r) { return r.cost; }
std::uint32_t metric_of(const RipRoute& r) { return r.metric; }

/// OSPF/RIP selection: every minimum-metric candidate (the ECMP set).
template <class Route>
void min_metric_select(const Key&, GroupView<Route> group, std::vector<Route>& out) {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& [r, w] : group) best = std::min(best, metric_of(r));
  for (const auto& [r, w] : group) {
    if (metric_of(r) == best) out.push_back(r);
  }
}

/// BGP decision process: single deterministic winner.
void bgp_select(const Key&, GroupView<BgpRoute> group, std::vector<BgpRoute>& out) {
  const BgpRoute* best = nullptr;
  for (const auto& [r, w] : group) {
    if (best == nullptr || bgp_better(r, *best)) best = &r;
  }
  if (best != nullptr) out.push_back(*best);
}

/// One protocol's route computation plus its plumbing handles.
template <class Route>
struct Chain {
  Concat<Route>* origins = nullptr;          ///< extra origins can be wired in later
  RoundFixpointBase* fixpoint = nullptr;     ///< its convergence and work counters
  Stream<Route>* best = nullptr;             ///< best_R
};

/// Builds: origins -> RoundFixpoint over the protocol's links, arranged
/// once by their `from` node. `extend(route, link)` returns the propagated
/// route or nullopt; `select` is the protocol's decision.
template <class Route, class LinkFact, class Select, class Extend>
Chain<Route> build_chain(Graph& g, const std::string& proto, Stream<LinkFact>& links,
                         unsigned rounds, Select select, Extend extend) {
  Chain<Route> chain;
  chain.origins = &g.make<Concat<Route>>(proto + ".origins");
  auto& links_by_from = g.make<Arrange<topo::NodeId, LinkFact>>(
      links, [](const LinkFact& f) { return f.from; }, proto + ".links_by_from");
  auto& best = round_fixpoint(
      g, chain.origins->out, links_by_from, rounds,
      [](const Route& r) { return Key{r.node, r.prefix}; }, [](const Key& k) { return k.first; },
      extend, select, proto + ".best");
  chain.fixpoint = &best;
  chain.best = &best.out;
  return chain;
}

/// A RIB source's tuples keyed by (node, prefix) as packed FIB candidates.
template <class T>
Stream<std::pair<Key, Cand>>& fib_candidates(Graph& g, Stream<T>& source,
                                             const std::string& name) {
  return g
      .make<Map<T, std::pair<Key, Cand>>>(
          source,
          [](const T& t) {
            return std::pair<Key, Cand>{{t.node, t.prefix}, pack(candidate_of(t))};
          },
          "fib.cand_" + name)
      .out;
}

/// A protocol's converged best routes indexed by node: read by its
/// redistribution joins (and, for BGP, by aggregation).
template <class Route>
Arrange<topo::NodeId, Route>& arrange_by_node(Graph& g, const std::string& proto,
                                              Stream<Route>& best) {
  return g.make<Arrange<topo::NodeId, Route>>(
      best, [](const Route& r) { return r.node; }, proto + ".best_by_node");
}

/// Wires dynamic redistribution `from` -> `to`: the node's redistribution
/// facts for this direction, joined with the native best routes of the
/// source protocol at that node, are converted and added to the target
/// protocol's origins. `convert(prefix, egress, fact)` returns the target
/// route or nullopt.
template <class FromRoute, class ToRoute, class Convert>
void wire_redist(Graph& g, const std::string& name, Stream<DynRedistFact>& redist,
                 Arrange<topo::NodeId, FromRoute>& from_best, Proto from, Proto to,
                 Concat<ToRoute>& to_origins, Convert convert) {
  auto& join = join_arranged(
      g, redist, from_best, [](const DynRedistFact& f) { return f.node; },
      [from, to, convert](const DynRedistFact& f, const FromRoute& r) -> std::optional<ToRoute> {
        if (f.from != from || f.to != to || r.tag != kTagNative) return std::nullopt;
        return convert(r.prefix, r.egress, f);
      },
      name);
  to_origins.add_input(join.out);
}

}  // namespace

std::size_t DataPlaneDelta::insertions() const {
  std::size_t n = 0;
  for (const auto& [e, w] : fib) {
    if (w > 0) ++n;
  }
  for (const auto& [e, w] : filters) {
    if (w > 0) ++n;
  }
  return n;
}

std::size_t DataPlaneDelta::deletions() const {
  std::size_t n = 0;
  for (const auto& [e, w] : fib) {
    if (w < 0) ++n;
  }
  for (const auto& [e, w] : filters) {
    if (w < 0) ++n;
  }
  return n;
}

IncrementalGenerator::IncrementalGenerator(const topo::Topology& topo, GeneratorOptions options)
    : topo_(topo), options_(options) {
  if (options_.max_rounds < 2) options_.max_rounds = 2;
  build_program();
}

void IncrementalGenerator::build_program() {
  const unsigned rounds = options_.max_rounds;

  // ---- input relations ----------------------------------------------------
  in_ospf_links_ = &graph_.make<Input<OspfLinkFact>>("in.ospf_links");
  in_ospf_origins_ = &graph_.make<Input<OspfOriginFact>>("in.ospf_origins");
  in_bgp_sessions_ = &graph_.make<Input<BgpSessionFact>>("in.bgp_sessions");
  in_bgp_origins_ = &graph_.make<Input<BgpOriginFact>>("in.bgp_origins");
  in_bgp_aggregates_ = &graph_.make<Input<BgpAggregateFact>>("in.bgp_aggregates");
  in_rip_links_ = &graph_.make<Input<RipLinkFact>>("in.rip_links");
  in_rip_origins_ = &graph_.make<Input<RipOriginFact>>("in.rip_origins");
  in_redist_ = &graph_.make<Input<DynRedistFact>>("in.redist");
  in_statics_ = &graph_.make<Input<StaticFact>>("in.statics");
  in_connected_ = &graph_.make<Input<ConnectedFact>>("in.connected");

  // ---- protocol chains -----------------------------------------------------
  Chain<OspfRoute> ospf = build_chain<OspfRoute, OspfLinkFact>(
      graph_, "ospf", in_ospf_links_->out, rounds, min_metric_select<OspfRoute>,
      [](const OspfRoute& rt, const OspfLinkFact& l) { return extend_ospf(rt, l); });
  auto& ospf_fact_origins = graph_.make<Map<OspfOriginFact, OspfRoute>>(
      in_ospf_origins_->out, [](const OspfOriginFact& f) { return make_ospf_origin(f); },
      "ospf.fact_origins");
  ospf.origins->add_input(ospf_fact_origins.out);

  Chain<BgpRoute> bgp = build_chain<BgpRoute, BgpSessionFact>(
      graph_, "bgp", in_bgp_sessions_->out, rounds, bgp_select,
      [](const BgpRoute& rt, const BgpSessionFact& s) { return extend_bgp(rt, s); });
  auto& bgp_fact_origins = graph_.make<Map<BgpOriginFact, BgpRoute>>(
      in_bgp_origins_->out, [](const BgpOriginFact& f) { return make_bgp_origin(f); },
      "bgp.fact_origins");
  bgp.origins->add_input(bgp_fact_origins.out);

  // RIP's horizon bounds convergence at 15 rounds regardless of topology.
  const unsigned rip_rounds = std::min(rounds, config::kRipInfinity - 1);
  Chain<RipRoute> rip = build_chain<RipRoute, RipLinkFact>(
      graph_, "rip", in_rip_links_->out, rip_rounds, min_metric_select<RipRoute>,
      [](const RipRoute& rt, const RipLinkFact& l) { return extend_rip(rt, l); });
  auto& rip_fact_origins = graph_.make<Map<RipOriginFact, RipRoute>>(
      in_rip_origins_->out, [](const RipOriginFact& f) { return make_rip_origin(f); },
      "rip.fact_origins");
  rip.origins->add_input(rip_fact_origins.out);

  ospf_best_out_ = &graph_.make<Output<OspfRoute>>(*ospf.best, "ospf.best_out");
  bgp_best_out_ = &graph_.make<Output<BgpRoute>>(*bgp.best, "bgp.best_out");
  rip_best_out_ = &graph_.make<Output<RipRoute>>(*rip.best, "rip.best_out");
  fixpoints_ = {ospf.fixpoint, bgp.fixpoint, rip.fixpoint};

  auto& ospf_by_node = arrange_by_node(graph_, "ospf", *ospf.best);
  auto& bgp_by_node = arrange_by_node(graph_, "bgp", *bgp.best);
  auto& rip_by_node = arrange_by_node(graph_, "rip", *rip.best);

  // ---- BGP route aggregation --------------------------------------------------
  // An aggregate is originated while any strictly more-specific route sits
  // in the node's BGP table. Each contributor derives the same aggregate
  // tuple, so Z-set weights count the contributors: the aggregate retracts
  // exactly when the last contributor withdraws. Aggregates may contribute
  // to wider aggregates; containment keeps such chains finite.
  auto& contrib = join_arranged(
      graph_, in_bgp_aggregates_->out, bgp_by_node,
      [](const BgpAggregateFact& f) { return f.node; },
      [](const BgpAggregateFact& f, const BgpRoute& r) -> std::optional<BgpRoute> {
        if (!contributes_to_aggregate(r, f)) return std::nullopt;
        return make_bgp_aggregate(f);
      },
      "agg.contrib");
  bgp.origins->add_input(contrib.out);

  // ---- dynamic redistribution: the full protocol triangle --------------------
  Stream<DynRedistFact>& redist = in_redist_->out;
  wire_redist(graph_, "redist.ospf2bgp", redist, ospf_by_node, Proto::kOspf, Proto::kBgp,
              *bgp.origins, make_redist_bgp);
  wire_redist(graph_, "redist.ospf2rip", redist, ospf_by_node, Proto::kOspf, Proto::kRip,
              *rip.origins, make_redist_rip);
  wire_redist(graph_, "redist.bgp2ospf", redist, bgp_by_node, Proto::kBgp, Proto::kOspf,
              *ospf.origins, make_redist_ospf);
  wire_redist(graph_, "redist.bgp2rip", redist, bgp_by_node, Proto::kBgp, Proto::kRip,
              *rip.origins, make_redist_rip);
  wire_redist(graph_, "redist.rip2ospf", redist, rip_by_node, Proto::kRip, Proto::kOspf,
              *ospf.origins, make_redist_ospf);
  wire_redist(graph_, "redist.rip2bgp", redist, rip_by_node, Proto::kRip, Proto::kBgp,
              *bgp.origins, make_redist_bgp);

  // ---- FIB selection -----------------------------------------------------------
  // One Reduce over every RIB source picks each (node, prefix)'s FIB row.
  auto& cand_connected = fib_candidates(graph_, in_connected_->out, "connected");
  auto& cand_static = fib_candidates(graph_, in_statics_->out, "static");
  auto& cand_ospf = fib_candidates(graph_, *ospf.best, "ospf");
  auto& cand_bgp = fib_candidates(graph_, *bgp.best, "bgp");
  auto& cand_rip = fib_candidates(graph_, *rip.best, "rip");
  auto& fib = graph_.make<Reduce<Key, Cand, FibEntry>>(
      cand_connected,
      [](const Key& key, GroupView<Cand> group, std::vector<FibEntry>& out) {
        std::vector<FibCandidate> cands;
        cands.reserve(group.size());
        for (const auto& [c, w] : group) cands.push_back(unpack(c));
        out.push_back(select_fib(key.first, key.second, cands));
      },
      "fib.select");
  for (Stream<std::pair<Key, Cand>>* cands : {&cand_static, &cand_ospf, &cand_bgp, &cand_rip}) {
    fib.add_input(*cands);
  }
  fib_out_ = &graph_.make<Output<FibEntry>>(fib.out, "fib.out");
}

std::uint64_t IncrementalGenerator::round_evaluations() const {
  std::uint64_t n = 0;
  for (const dd::RoundFixpointBase* f : fixpoints_) n += f->evaluations();
  return n;
}

void IncrementalGenerator::set_provenance(bool on) {
  provenance_ = on;
  if (!on) {
    prev_facts_.reset();
    changed_devices_.clear();
  }
}

namespace {

/// Collect the device endpoints of every fact in the symmetric difference
/// of two relation snapshots. `endpoints` projects one fact to its nodes.
template <typename T, typename Fn>
void changed_endpoints(const dd::ZSet<T>& now, const dd::ZSet<T>& before, Fn endpoints,
                       std::vector<topo::NodeId>& out) {
  for (const auto& [fact, weight] : dd::ZSet<T>::difference(now, before)) {
    (void)weight;
    endpoints(fact, out);
  }
}

}  // namespace

void IncrementalGenerator::record_changed_devices_(const FactSnapshot& facts) {
  changed_devices_.clear();
  if (prev_facts_ != nullptr) {
    const FactSnapshot& prev = *prev_facts_;
    auto node = [](const auto& f, std::vector<topo::NodeId>& out) { out.push_back(f.node); };
    auto edge = [](const auto& f, std::vector<topo::NodeId>& out) {
      out.push_back(f.from);
      out.push_back(f.to);
    };
    changed_endpoints(facts.ospf_links, prev.ospf_links, edge, changed_devices_);
    changed_endpoints(facts.ospf_origins, prev.ospf_origins, node, changed_devices_);
    changed_endpoints(facts.bgp_sessions, prev.bgp_sessions, edge, changed_devices_);
    changed_endpoints(facts.bgp_origins, prev.bgp_origins, node, changed_devices_);
    changed_endpoints(facts.bgp_aggregates, prev.bgp_aggregates, node, changed_devices_);
    changed_endpoints(facts.rip_links, prev.rip_links, edge, changed_devices_);
    changed_endpoints(facts.rip_origins, prev.rip_origins, node, changed_devices_);
    changed_endpoints(facts.redist, prev.redist, node, changed_devices_);
    changed_endpoints(facts.statics, prev.statics, node, changed_devices_);
    changed_endpoints(facts.connected, prev.connected, node, changed_devices_);
    std::sort(changed_devices_.begin(), changed_devices_.end());
    changed_devices_.erase(std::unique(changed_devices_.begin(), changed_devices_.end()),
                           changed_devices_.end());
  }
  prev_facts_ = std::make_unique<FactSnapshot>(facts);
}

IncrementalGenerator::Snapshot IncrementalGenerator::snapshot() const {
  Snapshot snap;
  snap.graph = graph_.snapshot();
  snap.filters = filters_;
  if (provenance_ && prev_facts_ != nullptr) {
    snap.prev_facts = std::make_shared<const FactSnapshot>(*prev_facts_);
  }
  return snap;
}

void IncrementalGenerator::restore(const Snapshot& snap) {
  graph_.restore(snap.graph);
  filters_ = snap.filters;
  changed_devices_.clear();
  if (provenance_ && snap.prev_facts != nullptr) {
    prev_facts_ = std::make_unique<FactSnapshot>(*snap.prev_facts);
  } else {
    prev_facts_.reset();
  }
}

DataPlaneDelta IncrementalGenerator::apply(const config::NetworkConfig& cfg) {
  const FactSnapshot facts = compile_facts(topo_, cfg);
  if (provenance_) record_changed_devices_(facts);
  in_ospf_links_->set_to(facts.ospf_links);
  in_ospf_origins_->set_to(facts.ospf_origins);
  in_bgp_sessions_->set_to(facts.bgp_sessions);
  in_bgp_origins_->set_to(facts.bgp_origins);
  in_bgp_aggregates_->set_to(facts.bgp_aggregates);
  in_rip_links_->set_to(facts.rip_links);
  in_rip_origins_->set_to(facts.rip_origins);
  in_redist_->set_to(facts.redist);
  in_statics_->set_to(facts.statics);
  in_connected_->set_to(facts.connected);

  graph_.commit();

  // Keep the sinks' delta accumulators from growing unboundedly.
  (void)ospf_best_out_->take_delta();
  (void)bgp_best_out_->take_delta();
  (void)rip_best_out_->take_delta();

  if (std::any_of(fixpoints_.begin(), fixpoints_.end(),
                  [](const dd::RoundFixpointBase* f) { return f->unconverged() != 0; })) {
    throw dd::NonterminationError(
        "route computation did not converge within " + std::to_string(options_.max_rounds) +
        " rounds: either raise GeneratorOptions::max_rounds (long minimal paths) or the "
        "control plane oscillates with no stable state (paper §6, e.g. a BGP dispute wheel)");
  }

  DataPlaneDelta delta;
  delta.fib = fib_out_->take_delta();

  // Filter rules: straight extraction + diff, no simulation involved.
  dd::ZSet<FilterRule> new_filters = extract_filter_rules(topo_, cfg);
  delta.filters = dd::ZSet<FilterRule>::difference(new_filters, filters_);
  filters_ = std::move(new_filters);

  return delta;
}

std::string to_string(const FibEntry& e) {
  std::string out = "node=" + std::to_string(e.node) + " " + e.prefix.to_string() + " -> ";
  switch (e.action) {
    case FibAction::kDeliver:
      out += "deliver";
      break;
    case FibAction::kDrop:
      out += "drop";
      break;
    case FibAction::kForward: {
      out += "ifaces[";
      for (std::size_t i = 0; i < e.out_ifaces.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(e.out_ifaces[i]);
      }
      out += "]";
      break;
    }
  }
  return out;
}

}  // namespace rcfg::routing
