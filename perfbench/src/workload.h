#pragma once

// Seeded request streams for the three benchmark workloads.
//
// A stream is the exact sequence of rcfgd JSON-lines requests the client
// sends: the set-up (open + add_policy) and then one step per closed-loop
// iteration (propose, commit or abort, and on sweep steps a sweep). Every
// request is a function of the workload and the seed alone, never of the
// replies, so the same seed yields a byte-identical stream and a traced
// run can replay the untraced run's sequence exactly.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/types.h"
#include "core/rng.h"
#include "topo/topology.h"

namespace perfbench {

namespace config = rcfg::config;
namespace core = rcfg::core;
namespace topo = rcfg::topo;

enum class Workload { kOspfChurn, kAclChurn, kWhatIfSweep };

/// "ospf_churn" | "acl_churn" | "what_if_sweep"; nullopt otherwise.
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

struct PolicyDef {
  std::string name, src, dst;
  std::string prefix;  ///< CIDR text
};

/// Draws without replacement from a fixed set, reshuffling the set once
/// every item has been drawn. A run then covers the set evenly whatever the
/// seed, so the mix of changes (and their cost) barely moves between seeds.
template <class T>
class Bag {
 public:
  explicit Bag(std::vector<T> items = {}) : items_(std::move(items)), next_(items_.size()) {}

  const T& draw(core::Rng& rng) {
    if (next_ == items_.size()) {
      rng.shuffle(items_);
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  std::vector<T> items_;
  std::size_t next_;
};

/// One closed-loop iteration.
struct Step {
  std::string propose;              ///< propose request line
  std::string finish;               ///< commit or abort request line
  bool aborts = false;
  std::optional<std::string> sweep; ///< sweep request line (sweep steps only)
};

/// Sweep parameters every sweep request uses (see README.md).
inline constexpr unsigned kSweepMaxFailures = 2;
inline constexpr unsigned kSweepBudget = 32;
inline constexpr unsigned kSweepThreads = 4;

class RequestStream {
 public:
  static constexpr const char* kSession = "bench";

  RequestStream(Workload workload, std::uint64_t seed);

  const topo::Topology& topology() const { return topo_; }
  unsigned max_rounds() const { return max_rounds_; }
  bool reclaim() const { return workload_ == Workload::kAclChurn; }
  const std::vector<PolicyDef>& policies() const { return policies_; }

  /// open followed by one add_policy per policy.
  std::vector<std::string> setup_lines();

  /// A summary query (every policy's verdict) and a sweep request, with
  /// the parameters above, for the end-of-run checks.
  std::string query_line();
  std::string sweep_line();

  /// The next step. The stream assumes its own commit/abort decision takes
  /// effect, so `committed()` afterwards is the configuration the session
  /// holds once the step's finish request has been answered.
  Step next();
  const config::NetworkConfig& committed() const { return committed_; }

 private:
  std::string finish_(const config::NetworkConfig& proposed, bool aborts);
  config::NetworkConfig ospf_change_();
  config::NetworkConfig acl_change_();
  bool sweep_due_();

  Workload workload_;
  core::Rng rng_;
  topo::Topology topo_;
  unsigned max_rounds_ = 0;
  config::NetworkConfig healthy_;
  config::NetworkConfig committed_;
  bool deviated_ = false;  ///< ospf: the committed config carries a deviation
  std::uint64_t deviations_ = 0;  ///< ospf: deviations proposed so far
  /// The kind of the change being proposed. ospf: 0 link-failure deviation,
  /// 1 cost deviation, 2 + that for the revert of one. acl: 0 re-randomize,
  /// 1 remove.
  unsigned kind_ = 0;
  unsigned committed_kind_ = 0;  ///< ospf: kind of the committed deviation
  /// ospf: the links and the (switch, interface) pairs deviations draw
  /// from, each drawn without replacement and reshuffled once used up.
  Bag<topo::LinkId> link_bag_;
  Bag<std::pair<topo::NodeId, topo::IfaceId>> iface_bag_;
  std::array<std::uint64_t, 4> kind_count_{};  ///< proposals per kind
  std::array<std::uint64_t, 4> kind_slot_{};   ///< abort position per kind
  std::vector<PolicyDef> policies_;
  std::uint64_t next_id_ = 1;
  std::size_t steps_ = 0;
  std::size_t next_sweep_ = 0;  ///< the first step after which a sweep may follow
};

/// One ACL attached to an interface in one direction.
struct AclBinding {
  std::string device, iface;
  bool inbound = false;
};

/// Every ACL binding of `cfg`, in device/interface order.
std::vector<AclBinding> attached_acls(const config::NetworkConfig& cfg);

}  // namespace perfbench
