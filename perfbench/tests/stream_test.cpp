// Seed-determinism and convergence tests for the benchmark's request
// streams. Plain main: exits 1 on the first failed expectation.
//
//   * The same seed gives a byte-identical request stream; a different
//     seed gives a different one (every workload).
//   * The seeded ospf_churn stream converges at the max_rounds it sets at
//     open (recommended_max_rounds of fat-tree k=6, which is 8): no
//     proposal comes back "nonconvergent".

#include <iostream>
#include <string>

#include "routing/metrics.h"
#include "service/engine.h"
#include "service/json.h"
#include "service/protocol.h"
#include "workload.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

/// The first `steps` steps of a stream, every request line concatenated.
std::string stream_bytes(perfbench::Workload w, std::uint64_t seed, std::size_t steps) {
  perfbench::RequestStream stream(w, seed);
  std::string out;
  for (const std::string& line : stream.setup_lines()) out += line + "\n";
  for (std::size_t i = 0; i < steps; ++i) {
    const perfbench::Step step = stream.next();
    out += step.propose + "\n" + step.finish + "\n";
    if (step.sweep) out += *step.sweep + "\n";
  }
  return out;
}

void test_determinism() {
  for (const auto w : {perfbench::Workload::kOspfChurn, perfbench::Workload::kAclChurn,
                       perfbench::Workload::kWhatIfSweep}) {
    const std::string name = perfbench::workload_name(w);
    const std::string a = stream_bytes(w, 7, 150);
    expect(a == stream_bytes(w, 7, 150), name + ": same seed, different stream");
    expect(a != stream_bytes(w, 8, 150), name + ": different seeds, same stream");
  }
}

void test_ospf_churn_converges() {
  using rcfg::service::json::Value;
  perfbench::RequestStream stream(perfbench::Workload::kOspfChurn, 1);
  expect(stream.max_rounds() == rcfg::routing::recommended_max_rounds(stream.topology()),
         "ospf_churn: max_rounds is not the recommended value");
  expect(stream.max_rounds() == 8, "ospf_churn: recommended max_rounds of k=6 is not 8");

  rcfg::service::Engine engine;
  const auto call = [&](const std::string& line) {
    return rcfg::service::response_value(engine.call(rcfg::service::parse_request(line)));
  };
  for (const std::string& line : stream.setup_lines()) {
    expect(call(line).get_bool("ok"), "ospf_churn: set-up request failed");
  }
  for (int i = 0; i < 40; ++i) {
    const perfbench::Step step = stream.next();
    const Value reply = call(step.propose);
    expect(reply.get_string("status") == "staged",
           "ospf_churn step " + std::to_string(i) + ": " + reply.dump().substr(0, 200));
    expect(call(step.finish).get_bool("ok"), "ospf_churn: commit/abort failed");
  }
}

}  // namespace

int main() {
  test_determinism();
  test_ospf_churn_converges();
  if (failures == 0) std::cout << "perfbench stream tests: ok\n";
  return failures == 0 ? 0 : 1;
}
