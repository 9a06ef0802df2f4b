// rcfg_perfbench: the repository benchmark.
//
//   rcfg_perfbench --workload NAME --seed N --seconds N --trace 0|1 [--spans PATH]
//
// Drives the verifier in-process through service::Engine::call — the rcfgd
// request path without the socket — from one closed-loop client: the next
// request is sent only after the previous reply arrived. The request stream
// comes from the seed alone (workload.h).
//
// --trace 0 measures the end-to-end metrics. --trace 1 replays the same
// seeded stream and, after each Engine reply, repeats the request on a twin
// verifier by calling each layer's public functions one at a time inside
// spans; the spans give the per-layer metrics. Both modes check their
// outputs (README.md, "Correctness gate") and print one JSON result line
// last on stdout. Exit codes: 0 ok, 1 a failed request or check, 2 bad
// arguments.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "baseline/simulator.h"
#include "config/builders.h"
#include "config/parse.h"
#include "config/print.h"
#include "routing/facts.h"
#include "service/cli.h"
#include "service/engine.h"
#include "service/json.h"
#include "service/protocol.h"
#include "spans.h"
#include "verify/failures.h"
#include "verify/realconfig.h"
#include "verify/sweep_space.h"
#include "workload.h"

namespace perfbench {
namespace {

using rcfg::service::json::Value;
namespace service = rcfg::service;
namespace verify = rcfg::verify;

constexpr int kSetupRuns = 5;        ///< setup_s is the median of this many set-ups
constexpr std::size_t kBaselineEvery = 8;  ///< traced run: FIB vs baseline cadence
/// changes_per_s is the median throughput of blocks of this many
/// consecutive transactions: a stall of the host slows one block, not the
/// metric.
constexpr std::size_t kChangeBlock = 16;
/// Largest relative disagreement allowed between a traced stage median and
/// the same stage's median in the Engine replies (the widest end-to-end
/// bound in BENCHMARK.json).
constexpr double kStageTolerance = 0.25;
/// Stage medians closer than this share of the propose latency agree
/// regardless of their ratio: such a gap cannot move the end-to-end
/// metric by more than a fifth of its bound.
constexpr double kStageSlack = 0.05;

struct Args {
  Workload workload = Workload::kOspfChurn;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      // Seeds are counts with 0 allowed; everything else goes through the
      // bounds-checked count parser, so "12x" or "-1" is refused.
      if (std::strcmp(value, "0") == 0) {
        a.seed = 0;
      } else {
        const auto n = service::parse_count_arg(value);
        if (!n) return std::nullopt;
        a.seed = *n;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto n = service::parse_count_arg(value);
      if (!n) return std::nullopt;
      a.seconds = *n;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return std::nullopt;
      a.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return std::nullopt;
  return a;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median throughput, per second, of consecutive blocks of `block`
/// durations (ms); a run shorter than one block is one block.
double block_rate(const std::vector<double>& ms, std::size_t block) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < ms.size(); i += block) {
    const std::size_t n = std::min(block, ms.size() - i);
    if (n < block && !rates.empty()) break;
    double total = 0;
    for (std::size_t j = i; j < i + n; ++j) total += ms[j];
    if (total > 0) rates.push_back(1000.0 * static_cast<double>(n) / total);
  }
  return median(rates);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Requests attempted and failures (failed requests, unexpected statuses,
/// failed checks) of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failed <= 5) std::cerr << "perfbench: " << why << "\n";
  }
};

/// The closed-loop client: one request in flight, every reply inspected.
class Client {
 public:
  explicit Client(Tally& tally) : tally_(tally) {
    service::EngineOptions o;
    o.workers = 1;
    o.read_workers = 1;
    engine_ = std::make_unique<service::Engine>(o);
  }

  /// Sends one request line and returns the reply. `ms` is the request's
  /// latency on the rcfgd path: parse the line, Engine::call, serialize
  /// the reply.
  Value call(const std::string& line, double& ms) {
    const double t0 = now_ms();
    const service::Response r = engine_->call(service::parse_request(line));
    const std::string wire = service::serialize_response(r);
    ms = now_ms() - t0;
    ++tally_.attempted;
    Value v = service::response_value(r);
    if (!r.ok) fail("request failed: " + wire.substr(0, 300));
    return v;
  }
  Value call(const std::string& line) {
    double ms = 0;
    return call(line, ms);
  }

  /// Reply status check: anything but `want` counts as a failed request.
  void expect_status(const Value& reply, const char* want) {
    if (reply.get_bool("ok", false) && reply.get_string("status") != want) {
      fail(std::string("expected status '") + want + "', got: " + reply.dump().substr(0, 300));
    }
  }

  void fail(const std::string& why) { tally_.fail(why); }

 private:
  Tally& tally_;
  std::unique_ptr<service::Engine> engine_;
};

verify::RealConfigOptions verifier_options(const RequestStream& stream) {
  verify::RealConfigOptions o;
  o.generator.max_rounds = stream.max_rounds();
  o.reclamation.enabled = stream.reclaim();
  return o;
}

verify::FailureSweepOptions sweep_options(unsigned threads) {
  verify::FailureSweepOptions o;
  o.max_failures = kSweepMaxFailures;
  o.budget = kSweepBudget;
  o.prune = true;
  o.threads = threads;
  return o;
}

/// The aggregates of a sweep reply, as one comparable string.
std::string sweep_signature(const Value& reply) {
  std::ostringstream s;
  for (const char* key : {"scenarios", "total_scenarios", "explored_scenarios",
                          "replayed_scenarios", "pruned_scenarios", "healthy_pairs",
                          "fault_tolerant_pairs"}) {
    s << key << '=' << reply.get_int(key, -1) << ';';
  }
  for (const char* key :
       {"critical_links", "diverged_links", "loop_links", "diverged_scenarios",
        "policy_violations"}) {
    const Value* v = reply.find(key);
    s << key << '=' << (v == nullptr ? "-" : v->dump()) << ';';
  }
  return s.str();
}

/// The same aggregates of a library sweep result, named like the reply.
std::string sweep_signature(const verify::FailureSweepResult& r,
                            const std::vector<PolicyDef>& policies,
                            const std::vector<verify::PolicyId>& ids) {
  Value v;
  v["scenarios"] = Value(r.scenarios);
  v["total_scenarios"] = Value(r.total_scenarios);
  v["explored_scenarios"] = Value(r.explored_scenarios);
  v["replayed_scenarios"] = Value(r.replayed_scenarios);
  v["pruned_scenarios"] = Value(r.pruned_scenarios);
  v["healthy_pairs"] = Value(r.healthy_pairs.size());
  v["fault_tolerant_pairs"] = Value(r.fault_tolerant_pairs.size());
  const auto links = [](const std::vector<rcfg::topo::LinkId>& ls) {
    Value::Array a;
    for (const auto l : ls) a.push_back(Value(static_cast<std::uint64_t>(l)));
    return Value(std::move(a));
  };
  v["critical_links"] = links(r.critical_links);
  v["diverged_links"] = links(r.diverged_links);
  v["loop_links"] = links(r.loop_scenarios);
  Value::Array diverged;
  for (const verify::FailureScenario& s : r.diverged_scenarios) diverged.push_back(links(s.links));
  v["diverged_scenarios"] = Value(std::move(diverged));
  Value violations{Value::Object{}};
  for (const auto& [policy, ls] : r.policy_violations) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == policy) violations[policies[i].name] = links(ls);
    }
  }
  v["policy_violations"] = std::move(violations);
  return sweep_signature(v);
}

/// A verifier on the stream's topology, built from scratch on `cfg`, with
/// the stream's policies registered in stream order.
struct ScratchVerifier {
  ScratchVerifier(const RequestStream& stream, const config::NetworkConfig& cfg)
      : rc(stream.topology(), verifier_options(stream)) {
    rc.apply(cfg);
    for (const PolicyDef& p : stream.policies()) {
      ids.push_back(rc.require_reachable(p.src, p.dst, *rcfg::net::Ipv4Prefix::parse(p.prefix)));
    }
  }
  verify::RealConfig rc;
  std::vector<verify::PolicyId> ids;
};

/// End-of-run gate, both modes: the session's verdicts equal a from-scratch
/// build of the final committed config, and a sweep of the final state
/// equals a single-threaded library sweep of that scratch build.
void check_final_state(Client& client, RequestStream& stream) {
  ScratchVerifier scratch(stream, stream.committed());
  const Value summary = client.call(stream.query_line());
  const Value* policies = summary.find("policies");
  if (policies == nullptr || policies->as_array().size() != stream.policies().size()) {
    client.fail("final query: wrong policy list");
    return;
  }
  for (std::size_t i = 0; i < stream.policies().size(); ++i) {
    const Value& p = policies->as_array()[i];
    const bool want = scratch.rc.checker().policy_satisfied(scratch.ids[i]);
    if (p.get_string("name") != stream.policies()[i].name || p.get_bool("satisfied") != want) {
      client.fail("final verdict of " + stream.policies()[i].name + " differs from scratch");
    }
  }
  const Value sweep = client.call(stream.sweep_line());
  const verify::FailureSweepResult ref =
      verify::sweep_failures(scratch.rc, stream.committed(), sweep_options(1));
  const std::string got = sweep_signature(sweep);
  const std::string want = sweep_signature(ref, stream.policies(), scratch.ids);
  if (got != want) client.fail("final sweep differs from threads=1 scratch sweep:\n  " + got +
                               "\n  " + want);
}

/// Runs kSetupRuns set-ups (each on a fresh Engine) and keeps the last
/// client; returns the median set-up time in seconds.
double set_up(std::unique_ptr<Client>& client, const std::vector<std::string>& lines,
              Tally& tally) {
  std::vector<double> times;
  for (int r = 0; r < kSetupRuns; ++r) {
    client.reset();
    client = std::make_unique<Client>(tally);
    const double t0 = now_ms();
    client->expect_status(client->call(lines[0]), "open");
    for (std::size_t i = 1; i < lines.size(); ++i) {
      client->expect_status(client->call(lines[i]), "policy_added");
    }
    times.push_back((now_ms() - t0) / 1000.0);
  }
  return median(times);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run
// ---------------------------------------------------------------------------

int run_untraced(const Args& args) {
  RequestStream stream(args.workload, args.seed);
  Tally tally;
  std::unique_ptr<Client> client;
  const double setup_s = set_up(client, stream.setup_lines(), tally);

  std::vector<double> propose_ms, abort_ms, txn_ms, sweep_ms, sweep_rates;
  const double deadline = now_ms() + 1000.0 * args.seconds;
  while (now_ms() < deadline) {
    const Step step = stream.next();
    double ms = 0, finish_ms = 0;
    client->expect_status(client->call(step.propose, ms), "staged");
    propose_ms.push_back(ms);
    client->expect_status(client->call(step.finish, finish_ms),
                          step.aborts ? "aborted" : "committed");
    if (step.aborts) abort_ms.push_back(finish_ms);
    txn_ms.push_back(ms + finish_ms);
    if (step.sweep) {
      const Value reply = client->call(*step.sweep, ms);
      sweep_ms.push_back(ms);
      sweep_rates.push_back(1000.0 * static_cast<double>(reply.get_int("explored_scenarios")) / ms);
    }
  }
  const double rss = peak_rss_mb();
  check_final_state(*client, stream);

  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed,
               {{"setup_s", setup_s, "s"},
                {"verify_p50_ms", median(propose_ms), "ms"},
                {"verify_p95_ms", quantile(propose_ms, 0.95), "ms"},
                {"rollback_p50_ms", median(abort_ms), "ms"},
                {"changes_per_s", block_rate(txn_ms, kChangeBlock), "1/s"},
                {"sweep_p50_ms", median(sweep_ms), "ms"},
                {"scenarios_per_s", median(sweep_rates), "1/s"},
                {"peak_rss_mb", rss, "MiB"}});
  std::cerr << "perfbench: " << workload_name(args.workload) << " seed " << args.seed << ": "
            << txn_ms.size() << " changes (" << abort_ms.size() << " aborted), " << sweep_ms.size()
            << " sweeps\n";
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer run
// ---------------------------------------------------------------------------

/// Per-change samples, one entry per change the twin applied.
struct ChangeSamples {
  std::vector<double> dpm_ms;  ///< proposals only: model + reclaim
  std::vector<double> fib_changes, flushes, ec_moves, splits, affected_ecs;
  std::vector<double> ec_count, bdd_nodes;
  double stale_ops = 0, rule_ops = 0, affected_pairs = 0, changed_pairs = 0;
};

/// The traced twin: a verifier driven one layer call at a time, in spans,
/// through the same configuration sequence the Engine session sees.
class Twin {
 public:
  Twin(const RequestStream& stream, SpanRecorder& spans)
      : stream_(stream), spans_(spans), rc_(stream.topology(), verifier_options(stream)) {}

  struct Applied {
    std::map<std::string, bool> flips;  ///< policies that flipped, by name
    double stage_ms = 0;  ///< generate + model + reclaim + check
  };

  /// Applies the configuration `text` (as carried by request `request`)
  /// under a root span `root`.
  Applied apply(const char* root, std::uint64_t request, const std::string& text) {
    Applied out;
    spans_.record(root, request, [&] {
      const auto [parse_id, cfg] =
          spans_.record("config.parse", request, [&] { return config::parse_network(text); });
      const auto [generate_id, delta] =
          spans_.record("routing.generate", request, [&] { return rc_.generator().apply(cfg); });
      const auto [model_id, model] = spans_.record("dpm.model", request, [&] {
        return rc_.model().apply_batch(delta, rc_.options().update_order);
      });
      const auto [check_id, check] =
          spans_.record("verify.check", request, [&] { return rc_.checker().process(model); });
      double dpm_ms = spans_.at(model_id).ms();
      if (stream_.reclaim()) {
        dpm_ms += spans_.at(spans_.record("dpm.reclaim", request, [&] { reclaim_(); })).ms();
      }
      out.stage_ms = spans_.at(generate_id).ms() + dpm_ms + spans_.at(check_id).ms();
      if (std::strcmp(root, "twin.propose") == 0) samples.dpm_ms.push_back(dpm_ms);
      // compile_facts also runs inside generate; this times it on its own.
      spans_.record("routing.compile", request,
                    [&] { return rcfg::routing::compile_facts(stream_.topology(), cfg); });

      samples.fib_changes.push_back(static_cast<double>(delta.fib.size()));
      samples.flushes.push_back(static_cast<double>(rc_.generator().last_flushes()));
      samples.ec_moves.push_back(static_cast<double>(model.stats.ec_moves));
      samples.splits.push_back(static_cast<double>(model.stats.splits));
      samples.affected_ecs.push_back(static_cast<double>(check.affected_ecs.size()));
      samples.stale_ops += static_cast<double>(model.stats.stale_ops);
      samples.rule_ops += static_cast<double>(model.stats.rule_inserts + model.stats.rule_deletes);
      samples.affected_pairs += static_cast<double>(check.affected_pairs.size());
      samples.changed_pairs += static_cast<double>(check.changed_pairs.size());
      for (const verify::PolicyEvent& e : check.events) out.flips[name_of_(e.id)] = e.satisfied;
    });
    samples.ec_count.push_back(static_cast<double>(rc_.ecs().ec_count()));
    samples.bdd_nodes.push_back(static_cast<double>(rc_.packet_space().live_nodes()));
    return out;
  }

  void add_policies() {
    for (const PolicyDef& p : stream_.policies()) {
      ids_.push_back(
          rc_.require_reachable(p.src, p.dst, *rcfg::net::Ipv4Prefix::parse(p.prefix)));
    }
  }

  /// The sweep gate plus the per-layer sweep breakdown. First a threads=1
  /// library sweep of the same state, whose aggregates must equal the
  /// Engine's reply (returned as a signature). Then the sweep's own
  /// scenario list is replayed the way the sweep runs it: kSweepThreads
  /// lanes, each forking a replica and doing one restore and one apply per
  /// scenario, so each call is timed under the same contention.
  std::string sweep(std::uint64_t request) {
    const config::NetworkConfig& healthy = stream_.committed();
    const auto [check_id, ref] = spans_.record("twin.sweep_check", request, [&] {
      return verify::sweep_failures(rc_, healthy, sweep_options(1));
    });
    explored.push_back(static_cast<double>(ref.explored_scenarios));
    pruned.push_back(static_cast<double>(ref.pruned_scenarios));

    // The sweep's planning step (dependency pruning, priority order) on
    // its own, for the accounting of the sweep's latency.
    spans_.record("verify.sweep_plan", request, [&] {
      return verify::SweepSpace(rc_, healthy, sweep_options(kSweepThreads)).reps().size();
    });

    std::vector<SpanRecorder> lanes;
    for (unsigned t = 0; t < kSweepThreads; ++t) lanes.push_back(spans_.for_thread());
    const std::int64_t replay_id = spans_.record("twin.sweep", request, [&] {
      const auto snap =
          spans_.record("verify.snapshot", request, [&] { return rc_.snapshot(); }).second;
      // An exception must not escape a lane's thread; it is rethrown here.
      std::vector<std::string> errors(kSweepThreads);
      {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kSweepThreads; ++t) {
          threads.emplace_back([&, t] {
            try {
              replay_lane_(lanes[t], *snap, ref.outcomes, t, request);
            } catch (const std::exception& e) {
              errors[t] = e.what();
            }
          });
        }
      }
      for (const std::string& e : errors) {
        if (!e.empty()) throw std::runtime_error("sweep replay: " + e);
      }
    });
    for (const SpanRecorder& lane : lanes) spans_.adopt(lane, replay_id);
    return sweep_signature(ref, stream_.policies(), ids_);
  }

  /// The baseline-simulator gate: the twin's incremental FIB equals a
  /// Batfish-style simulation of the committed configuration.
  bool fib_matches_baseline(std::uint64_t request) {
    const auto sim = spans_.record("baseline.simulate", request, [&] {
      return rcfg::baseline::simulate(stream_.topology(), stream_.committed());
    }).second;
    return sim.fib == rc_.generator().fib();
  }

  std::size_t operator_count() { return rc_.generator().operator_count(); }

  ChangeSamples samples;
  std::vector<double> explored, pruned;

 private:
  /// One replay lane: fork a replica, then restore and apply every
  /// `kSweepThreads`-th scenario from `first` on.
  void replay_lane_(SpanRecorder& lane, const verify::RealConfig::Snapshot& snap,
                    const std::vector<verify::ScenarioOutcome>& outcomes, unsigned first,
                    std::uint64_t request) const {
    const auto replica = lane.record("verify.fork", request, [&] { return rc_.fork(snap); }).second;
    config::NetworkConfig cfg = stream_.committed();
    for (std::size_t i = first; i < outcomes.size(); i += kSweepThreads) {
      const std::vector<rcfg::topo::LinkId>& links = outcomes[i].scenario.links;
      lane.record("verify.restore", request, [&] { replica->restore(snap); });
      for (const auto l : links) config::fail_link(cfg, stream_.topology(), l);
      lane.record("verify.scenario_apply", request, [&] {
        try {
          replica->apply(cfg);
        } catch (const rcfg::dd::NonterminationError&) {
          // A diverging scenario: the sweep reports it; nothing more to time.
        }
      });
      for (const auto l : links) config::restore_link(cfg, stream_.topology(), l);
    }
  }

  /// RealConfig's post-check reclaim step at watermark 0, as public calls.
  void reclaim_() {
    bool merged = false;
    if (rc_.ecs().dropped_since_compact() > 0 && rc_.ecs().ec_count() > 0) {
      merged = rc_.ecs().compact().has_value();
    }
    if (rc_.packet_space().live_nodes() > 0 || merged) rc_.packet_space().gc();
  }

  std::string name_of_(verify::PolicyId id) const {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return stream_.policies()[i].name;
    }
    return "#" + std::to_string(id);
  }

  const RequestStream& stream_;
  SpanRecorder& spans_;
  verify::RealConfig rc_;
  std::vector<verify::PolicyId> ids_;
};

std::map<std::string, bool> reply_flips(const Value& reply) {
  std::map<std::string, bool> out;
  if (const Value* events = reply.find("events")) {
    for (const Value& e : events->as_array()) out[e.get_string("policy")] = e.get_bool("satisfied");
  }
  return out;
}

double number(const Value& v, const char* key) {
  const Value* x = v.find(key);
  return x != nullptr && x->is_number() ? x->as_double() : 0;
}

/// The request id a JSON request line carries.
std::uint64_t request_id(const std::string& line) {
  return static_cast<std::uint64_t>(Value::parse(line).get_int("id"));
}

std::string config_text(const std::string& line) {
  return Value::parse(line).get_string("config");
}

int run_traced(const Args& args) {
  RequestStream stream(args.workload, args.seed);
  SpanRecorder spans;
  Tally tally;
  Client client(tally);
  Twin twin(stream, spans);

  const std::vector<std::string> setup = stream.setup_lines();
  spans.record("service.open", request_id(setup[0]), [&] {
    client.expect_status(client.call(setup[0]), "open");
  });
  twin.apply("twin.open", request_id(setup[0]), config_text(setup[0]));
  for (std::size_t i = 1; i < setup.size(); ++i) {
    client.expect_status(client.call(setup[i]), "policy_added");
  }
  twin.add_policies();

  // Engine-side samples of the proposals the twin repeats: latency, the
  // stage times in each reply, and the reply's own share (service.self).
  std::vector<double> call_ms, self_ms, overhead_ms, accounted, sweep_ms;
  std::map<std::string, std::vector<double>> reply_stage;
  std::size_t steps = 0;
  const double deadline = now_ms() + 1000.0 * args.seconds;
  while (now_ms() < deadline) {
    const Step step = stream.next();
    const std::uint64_t id = request_id(step.propose);
    double ms = 0;
    const Value reply =
        spans.record("service.propose", id, [&] { return client.call(step.propose, ms); }).second;
    client.expect_status(reply, "staged");
    const double self = ms - number(reply, "total_ms");
    call_ms.push_back(ms);
    self_ms.push_back(self);
    for (const char* stage : {"generate_ms", "model_ms", "check_ms"}) {
      reply_stage[stage].push_back(number(reply, stage));
    }
    const Twin::Applied applied = twin.apply("twin.propose", id, config_text(step.propose));
    overhead_ms.push_back(applied.stage_ms - number(reply, "total_ms"));
    accounted.push_back((applied.stage_ms + self) / ms);
    if (applied.flips != reply_flips(reply)) {
      client.fail("step " + std::to_string(steps) + ": twin verdict flips differ from the reply");
    }

    const std::uint64_t finish_id = request_id(step.finish);
    spans.record(step.aborts ? "service.abort" : "service.commit", finish_id, [&] {
      client.expect_status(client.call(step.finish), step.aborts ? "aborted" : "committed");
    });
    if (step.aborts) twin.apply("twin.abort", finish_id, config::print_network(stream.committed()));

    if (step.sweep) {
      const std::uint64_t sweep_id = request_id(*step.sweep);
      const Value sreply =
          spans.record("service.sweep", sweep_id, [&] { return client.call(*step.sweep, ms); })
              .second;
      sweep_ms.push_back(ms);
      if (twin.sweep(sweep_id) != sweep_signature(sreply)) {
        client.fail("step " + std::to_string(steps) +
                    ": sweep reply differs from the threads=1 sweep of the same state");
      }
    }
    ++steps;
    if (steps % kBaselineEvery == 0 && !twin.fib_matches_baseline(id)) {
      client.fail("step " + std::to_string(steps) + ": FIB differs from the baseline simulator");
    }
  }
  if (!twin.fib_matches_baseline(0)) client.fail("final FIB differs from the baseline simulator");
  check_final_state(client, stream);

  const auto traced = [&](const char* name) { return median(spans.self_ms(name, "twin.propose")); };
  const double generate = traced("routing.generate");
  const double model = traced("dpm.model");
  const double check = traced("verify.check");

  // Trace consistency: each traced stage median agrees with the median of
  // the same stage in the Engine replies to the same proposals, within
  // kStageTolerance, or within kStageSlack of the propose latency.
  for (const auto& [name, mine, theirs] :
       {std::tuple{"routing.generate_ms", generate, median(reply_stage["generate_ms"])},
        std::tuple{"dpm.model_ms", model, median(reply_stage["model_ms"])},
        std::tuple{"verify.check_ms", check, median(reply_stage["check_ms"])}}) {
    const double gap = std::fabs(mine - theirs);
    std::cerr << "perfbench: trace consistency " << name << ": traced " << mine
              << " ms, replies " << theirs << " ms\n";
    if (gap > kStageTolerance * theirs && gap > kStageSlack * median(call_ms)) {
      client.fail(std::string("trace consistency: ") + name);
    }
  }

  // The traced sweep — planning, then the snapshot and the lanes' forks,
  // restores and applies in parallel — against the Engine's sweep latency.
  std::vector<double> replay_ms;
  for (const Span& s : spans.spans()) {
    if (std::strcmp(s.name, "twin.sweep") == 0) replay_ms.push_back(s.ms());
  }
  const double sweep_plan = median(spans.self_ms("verify.sweep_plan"));

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    spans.write(out);
  }
  const double service_self = median(self_ms);
  const double reclaim = traced("dpm.reclaim");
  const ChangeSamples& c = twin.samples;
  std::cerr << "perfbench: traced " << workload_name(args.workload) << " seed " << args.seed
            << ": " << steps << " changes, " << sweep_ms.size() << " sweeps, "
            << spans.spans().size() << " spans; propose p50 " << median(call_ms)
            << " ms: generate " << generate << ", model " << model << ", check " << check
            << ", reclaim " << reclaim << ", service " << service_self << "\n";

  const bool correct = tally.failed == 0;
  print_result(
      correct, tally.attempted, tally.failed,
      {{"service.self_ms", service_self, "ms"},
       {"config.parse_ms", traced("config.parse"), "ms"},
       {"routing.generate_ms", generate, "ms"},
       {"routing.generate_p95_ms",
        quantile(spans.self_ms("routing.generate", "twin.propose"), 0.95), "ms"},
       {"routing.compile_ms", traced("routing.compile"), "ms"},
       {"routing.fib_changes", median(c.fib_changes), "count"},
       {"dd.flushes", median(c.flushes), "count"},
       {"dd.operators", static_cast<double>(twin.operator_count()), "count"},
       {"dpm.model_ms", model, "ms"},
       {"dpm.self_ms", median(c.dpm_ms), "ms"},
       {"dpm.ec_moves", median(c.ec_moves), "count"},
       {"dpm.splits", median(c.splits), "count"},
       {"dpm.stale_ops_frac", c.rule_ops > 0 ? c.stale_ops / c.rule_ops : 0, "frac"},
       {"dpm.ec_count", median(c.ec_count), "count"},
       {"dpm.bdd_nodes", median(c.bdd_nodes), "count"},
       {"verify.check_ms", check, "ms"},
       {"verify.affected_ecs", median(c.affected_ecs), "count"},
       {"verify.changed_pairs_frac",
        c.affected_pairs > 0 ? c.changed_pairs / c.affected_pairs : 0, "frac"},
       {"verify.snapshot_ms", median(spans.self_ms("verify.snapshot")), "ms"},
       {"verify.fork_ms", median(spans.self_ms("verify.fork")), "ms"},
       {"verify.restore_ms", median(spans.self_ms("verify.restore")), "ms"},
       {"verify.scenario_apply_ms", median(spans.self_ms("verify.scenario_apply")), "ms"},
       {"verify.sweep_explored", median(twin.explored), "count"},
       {"verify.sweep_pruned", median(twin.pruned), "count"},
       {"baseline.simulate_ms", median(spans.self_ms("baseline.simulate")), "ms"},
       {"trace.overhead_ms", median(overhead_ms), "ms"},
       {"trace.accounted_frac", median(accounted), "frac"},
       {"verify.sweep_plan_ms", sweep_plan, "ms"},
       {"trace.sweep_accounted_frac", (sweep_plan + median(replay_ms)) / median(sweep_ms),
        "frac"}});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: rcfg_perfbench --workload ospf_churn|acl_churn|what_if_sweep "
                 "--seed N --seconds N --trace 0|1 [--spans PATH]\n";
    return 2;
  }
  try {
    return args->trace ? perfbench::run_traced(*args) : perfbench::run_untraced(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
