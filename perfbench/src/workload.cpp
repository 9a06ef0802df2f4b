#include "workload.h"

#include <set>
#include <stdexcept>

#include "config/builders.h"
#include "config/print.h"
#include "routing/metrics.h"
#include "service/json.h"
#include "topo/generators.h"

namespace perfbench {

using rcfg::service::json::Value;

namespace {

constexpr unsigned kFatTreeK = 6;
constexpr unsigned kDeviationCost = 100;
constexpr std::size_t kMaxAttachedAcls = 8;

/// How many transactions separate two sweeps (ospf_churn: at least that
/// many, see sweep_due_). Every workload reports the
/// sweep metrics; the churn workloads sweep rarely, so changes take most
/// of their time, and what_if_sweep often enough that sweeps take about
/// 60% of it while a 30 s run still holds about 200 proposals.
std::size_t sweep_every(Workload w) {
  switch (w) {
    case Workload::kOspfChurn:
      return 64;
    case Workload::kAclChurn:
      return 128;
    case Workload::kWhatIfSweep:
      return 12;
  }
  return 0;
}

std::size_t policy_count(Workload w) { return w == Workload::kAclChurn ? 64 : 16; }

/// The pod of a fat-tree edge switch, from its name "edge<pod>-<index>".
std::string pod_of(const topo::Topology& t, topo::NodeId edge) {
  const std::string& name = t.node(edge).name;
  return name.substr(4, name.find('-') - 4);
}

std::vector<topo::NodeId> edge_switches(const topo::Topology& t) {
  std::vector<topo::NodeId> out;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    if (t.node(n).name.rfind("edge", 0) == 0) out.push_back(n);
  }
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "ospf_churn") return Workload::kOspfChurn;
  if (name == "acl_churn") return Workload::kAclChurn;
  if (name == "what_if_sweep") return Workload::kWhatIfSweep;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kOspfChurn: return "ospf_churn";
    case Workload::kAclChurn: return "acl_churn";
    case Workload::kWhatIfSweep: return "what_if_sweep";
  }
  return "?";
}

std::vector<AclBinding> attached_acls(const config::NetworkConfig& cfg) {
  std::vector<AclBinding> out;
  for (const auto& [name, dev] : cfg.devices) {
    for (const config::InterfaceConfig& i : dev.interfaces) {
      if (i.acl_in) out.push_back({name, i.name, true});
      if (i.acl_out) out.push_back({name, i.name, false});
    }
  }
  return out;
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), rng_(seed), topo_(topo::make_fat_tree(kFatTreeK)) {
  max_rounds_ = rcfg::routing::recommended_max_rounds(topo_);
  next_sweep_ = sweep_every(workload);
  std::vector<topo::LinkId> links(topo_.link_count());
  for (topo::LinkId l = 0; l < links.size(); ++l) links[l] = l;
  link_bag_ = Bag(std::move(links));
  std::vector<std::pair<topo::NodeId, topo::IfaceId>> ifaces;
  for (topo::NodeId n = 0; n < topo_.node_count(); ++n) {
    for (const auto& a : topo_.adjacencies(n)) ifaces.emplace_back(n, a.iface);
  }
  iface_bag_ = Bag(std::move(ifaces));
  healthy_ = workload == Workload::kAclChurn ? config::build_bgp_network(topo_)
                                             : config::build_ospf_network(topo_);
  committed_ = healthy_;

  // Distinct ordered edge-to-edge pairs across pods, each guarding the
  // destination's host subnet. Destinations go round a seeded permutation
  // of the edge switches, so every seed guards the same number of distinct
  // subnets, each by as many policies give or take one.
  std::vector<topo::NodeId> edges = edge_switches(topo_);
  const std::size_t n = policy_count(workload);
  if (n > edges.size() * (edges.size() - kFatTreeK / 2)) {
    throw std::logic_error("perfbench: too few edge pairs");
  }
  rng_.shuffle(edges);
  std::set<std::pair<topo::NodeId, topo::NodeId>> used;
  for (std::size_t i = 0; i < n; ++i) {
    const topo::NodeId d = edges[i % edges.size()];
    topo::NodeId s = d;
    while (pod_of(topo_, s) == pod_of(topo_, d) || used.count({s, d}) != 0) {
      s = edges[rng_.next_below(edges.size())];
    }
    used.emplace(s, d);
    // Name appended in place: "p" + std::to_string(i) trips a GCC 12
    // -Wrestrict false positive.
    policies_.push_back({"p", topo_.node(s).name, topo_.node(d).name,
                         config::host_prefix(d).to_string()});
    policies_.back().name += std::to_string(i);
  }
}

std::vector<std::string> RequestStream::setup_lines() {
  std::vector<std::string> out;
  Value open;
  open["id"] = Value(next_id_++);
  open["op"] = Value("open");
  open["session"] = Value(kSession);
  open["topology"]["kind"] = Value("fat_tree");
  open["topology"]["k"] = Value(kFatTreeK);
  open["config"] = Value(config::print_network(healthy_));
  open["max_rounds"] = Value(max_rounds_);
  if (reclaim()) open["reclaim"] = Value(true);
  out.push_back(open.dump());
  for (const PolicyDef& p : policies_) {
    Value req;
    req["id"] = Value(next_id_++);
    req["op"] = Value("add_policy");
    req["session"] = Value(kSession);
    req["policy"]["kind"] = Value("reachable");
    req["policy"]["name"] = Value(p.name);
    req["policy"]["src"] = Value(p.src);
    req["policy"]["dst"] = Value(p.dst);
    req["policy"]["prefix"] = Value(p.prefix);
    out.push_back(req.dump());
  }
  return out;
}

config::NetworkConfig RequestStream::ospf_change_() {
  // One deviation from the healthy config, or the revert of the committed
  // one: deviations never pile up (see README.md, "Sizing gap").
  if (deviated_) {
    kind_ = 2 + committed_kind_;
    return healthy_;
  }
  config::NetworkConfig cfg = healthy_;
  // Two link failures, then one cost change, so every seed gets the same
  // mix. A link failure costs about 1.6 times a cost change; with the two
  // kinds half and half, the p50 of proposals and of aborts would fall in
  // the gap between them and jump with the slowest cost change or the
  // fastest link failure of a run.
  const bool fail = deviations_++ % 3 != 2;
  kind_ = fail ? 0 : 1;
  if (fail) {
    config::fail_link(cfg, topo_, link_bag_.draw(rng_));
  } else {
    const auto [node, iface] = iface_bag_.draw(rng_);
    config::set_ospf_cost(cfg, topo_.node(node).name, topo_.iface(iface).name, kDeviationCost);
  }
  return cfg;
}

config::NetworkConfig RequestStream::acl_change_() {
  config::NetworkConfig cfg = committed_;
  const std::vector<AclBinding> bound = attached_acls(cfg);
  // Removing an ACL costs about ten times re-randomizing one to verify.
  // Removing exactly when the population is full keeps the share of
  // removals near one half for every seed.
  const bool remove = bound.size() >= kMaxAttachedAcls;
  kind_ = remove ? 1 : 0;
  if (!remove) {
    config::campus_acl_churn_step(cfg, topo_, rng_);
    return cfg;
  }
  const AclBinding& b = bound[rng_.next_below(bound.size())];
  config::DeviceConfig& dev = cfg.devices.at(b.device);
  for (config::InterfaceConfig& i : dev.interfaces) {
    if (i.name != b.iface) continue;
    std::optional<std::string>& slot = b.inbound ? i.acl_in : i.acl_out;
    dev.acls.erase(*slot);
    slot.reset();
  }
  return cfg;
}

std::string RequestStream::finish_(const config::NetworkConfig& proposed, bool aborts) {
  Value req;
  req["id"] = Value(next_id_++);
  req["op"] = Value(aborts ? "abort" : "commit");
  req["session"] = Value(kSession);
  if (!aborts) {
    if (workload_ != Workload::kAclChurn) {
      if (!deviated_) committed_kind_ = kind_;
      deviated_ = !deviated_;
    }
    committed_ = proposed;
  }
  return req.dump();
}

Step RequestStream::next() {
  Step step;
  const config::NetworkConfig proposed =
      workload_ == Workload::kAclChurn ? acl_change_() : ospf_change_();
  Value propose;
  propose["id"] = Value(next_id_++);
  propose["op"] = Value("propose");
  propose["session"] = Value(kSession);
  propose["config"] = Value(config::print_network(proposed));
  step.propose = propose.dump();
  // One abort in every block of four proposals of the same kind, at a
  // seeded position. Kinds differ in cost (a link failure takes longer to
  // verify and to roll back than a cost change), so stratifying per kind
  // keeps the mix of aborted changes, and with it rollback_p50_ms, the same
  // for every seed.
  std::uint64_t& seen = kind_count_[kind_];
  if (seen % 4 == 0) kind_slot_[kind_] = rng_.next_below(4);
  step.aborts = seen % 4 == kind_slot_[kind_];
  ++seen;
  step.finish = finish_(proposed, step.aborts);
  ++steps_;
  if (sweep_due_()) step.sweep = sweep_line();
  return step;
}

bool RequestStream::sweep_due_() {
  if (steps_ < next_sweep_) return false;
  // ospf_churn sweeps only the healthy configuration, so every sweep of
  // every seed explores the same network; what_if_sweep sweeps whatever
  // is committed.
  if (workload_ == Workload::kOspfChurn && deviated_) return false;
  next_sweep_ = steps_ + sweep_every(workload_);
  return true;
}

std::string RequestStream::query_line() {
  Value req;
  req["id"] = Value(next_id_++);
  req["op"] = Value("query");
  req["session"] = Value(kSession);
  return req.dump();
}

std::string RequestStream::sweep_line() {
  Value req;
  req["id"] = Value(next_id_++);
  req["op"] = Value("sweep");
  req["session"] = Value(kSession);
  req["max_failures"] = Value(kSweepMaxFailures);
  req["prune"] = Value(true);
  req["budget"] = Value(kSweepBudget);
  req["threads"] = Value(kSweepThreads);
  return req.dump();
}

}  // namespace perfbench
