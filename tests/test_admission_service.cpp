// Tests for the admission-control service (ISSUE-9): golden decisions over
// the redesigned API, cache invalidation on churn, the memoized-vs-full
// byte-identity contract, the JSON-lines wire codec (malformed input is a
// diagnostic, never a crash), and determinism across worker widths.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/artifact_builder.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "sched/slot_table.hpp"
#include "service/admission_engine.hpp"
#include "service/admission_json.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "workload/generator.hpp"
#include "workload/task.hpp"

namespace ioguard::service {
namespace {

workload::IoTaskSpec task(std::uint32_t id, Slot t, Slot c, Slot d) {
  workload::IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = "t";
  s.name += std::to_string(id);
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.payload_bytes = 8;
  return s;
}

/// A 20-slot table with slots 0-3 reserved: 0.8 free bandwidth.
sched::TimeSlotTable small_table() {
  sched::TimeSlotTable table(20);
  for (Slot s = 0; s < 4; ++s) table.reserve(s, TaskId{99});
  return table;
}

AdmissionRequest admit(const std::string& tenant, const std::string& vm,
                       const workload::TaskSet& tasks) {
  AdmissionRequest r;
  r.op = RequestOp::kAdmit;
  r.tenant = tenant;
  r.vm = vm;
  r.tasks = tasks;
  return r;
}

// ------------------------------------------------------------ decisions

TEST(AdmissionEngine, GoldenAdmitDecision) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  AdmissionRequest req = admit("t0", "vm0", ts);
  req.server = sched::ServerParams{10, 2};

  const auto decision = engine.handle(req);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_TRUE(decision->applied);
  EXPECT_TRUE(decision->admitted);

  // The canonical string is the byte-identity contract's unit: pin it.
  const auto replay = AdmissionEngine(small_table(), AdmissionEngineConfig{})
                          .handle(req);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(decision->canonical_string(), replay->canonical_string());
  EXPECT_NE(decision->canonical_string().find(
                "decision|op=admit|tenant=t0|vm=vm0|applied=1|admitted=1"),
            std::string::npos)
      << decision->canonical_string();
  EXPECT_NE(decision->canonical_string().find("vm|t0/vm0|pi=10|theta=2"),
            std::string::npos)
      << decision->canonical_string();
}

TEST(AdmissionEngine, CallerErrorsAreStatusNotDecisions) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));

  // Evicting a VM that was never admitted: NOT_FOUND, exit-2 class.
  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t0";
  evict.vm = "ghost";
  const auto missing = engine.handle(evict);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(exit_code(missing.status()), 2);

  // Empty task set on admit (TaskSet::add enforces the per-task invariants
  // at construction, so emptiness is the malformed shape reachable through
  // the C++ facade): INVALID_ARGUMENT.
  const auto malformed = engine.handle(admit("t0", "vm0", {}));
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);

  // Theta > Pi on an explicit server: INVALID_ARGUMENT.
  AdmissionRequest req = admit("t0", "vm0", ts);
  req.server = sched::ServerParams{10, 11};
  EXPECT_EQ(engine.handle(req).status().code(), StatusCode::kInvalidArgument);

  // Double admit: FAILED_PRECONDITION (update is the mutation op).
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());
  EXPECT_EQ(engine.handle(admit("t0", "vm0", ts)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.fleet_size(), 1u);
}

TEST(AdmissionEngine, AnalyticRejectionLeavesFleetUntouched) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet light;
  light.add(task(1, 100, 2, 100));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", light)).ok());
  const std::uint64_t before = engine.fleet_fingerprint();

  // A set the 0.8-bandwidth table can never host: rejection, not error.
  workload::TaskSet heavy;
  heavy.add(task(2, 10, 9, 10));
  const auto rejected = engine.handle(admit("t0", "vm1", heavy));
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_FALSE(rejected->applied);
  EXPECT_FALSE(rejected->admitted);
  EXPECT_FALSE(rejected->reason.empty());
  EXPECT_EQ(engine.fleet_size(), 1u);
  EXPECT_EQ(engine.fleet_fingerprint(), before);
  EXPECT_EQ(engine.counters().rejected, 1u);
}

// ------------------------------------------------------- cache behaviour

TEST(AdmissionEngine, ChurnReusesAndInvalidatesCaches) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet a;
  a.add(task(1, 100, 5, 80));
  workload::TaskSet b;
  b.add(task(1, 100, 8, 80));  // same id, different demand -> new fingerprint

  ASSERT_TRUE(engine.handle(admit("t0", "vm0", a)).ok());
  const std::uint64_t misses_after_admit = engine.counters().local_misses;
  EXPECT_GE(misses_after_admit, 1u);

  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t0";
  evict.vm = "vm0";
  ASSERT_TRUE(engine.handle(evict).ok());

  // Re-admitting the same profile must be served from the cache...
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", a)).ok());
  EXPECT_EQ(engine.counters().local_misses, misses_after_admit);
  EXPECT_GE(engine.counters().local_hits, 1u);

  // ...while updating to a different profile re-analyzes (cache key moves).
  AdmissionRequest update = admit("t0", "vm0", b);
  update.op = RequestOp::kUpdate;
  ASSERT_TRUE(engine.handle(update).ok());
  EXPECT_GT(engine.counters().local_misses, misses_after_admit);
}

/// The tentpole contract, ctest-enforced: memoized and full re-analysis
/// produce byte-identical decisions over a randomized churn sequence.
TEST(AdmissionEngine, MemoizedMatchesFullReanalysisByteForByte) {
  Rng rng(11);
  std::vector<workload::TaskSet> profiles;
  for (std::uint32_t v = 0; v < 12; ++v) {
    workload::TaskSet ts;
    const auto shares = workload::uunifast(rng, 3, 0.04);
    for (std::uint32_t i = 0; i < 3; ++i) {
      const Slot period = static_cast<Slot>(rng.log_uniform(50, 500));
      const Slot deadline = period - rng.uniform_int(0, period / 8);
      Slot wcet = std::max<Slot>(
          1, static_cast<Slot>(shares[i] * static_cast<double>(period)));
      if (wcet > deadline) wcet = deadline;
      ts.add(task(v * 8 + i, period, wcet, deadline));
    }
    profiles.push_back(std::move(ts));
  }

  AdmissionEngineConfig memo_cfg;
  AdmissionEngineConfig full_cfg;
  full_cfg.memoize = false;
  AdmissionEngine memo(small_table(), memo_cfg);
  AdmissionEngine full(small_table(), full_cfg);

  std::vector<bool> in_fleet(profiles.size(), false);
  std::uint64_t state = 7;
  for (int step = 0; step < 240; ++step) {
    state += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t r = splitmix64_step(state);
    const auto i = static_cast<std::size_t>(r % profiles.size());
    AdmissionRequest req;
    req.tenant = "tenant" + std::to_string(i % 3);
    req.vm = "vm" + std::to_string(i);
    if (!in_fleet[i]) {
      req.op = RequestOp::kAdmit;
      req.tasks = profiles[i];
      in_fleet[i] = true;
    } else if (((r >> 32) & 1) != 0) {
      req.op = RequestOp::kUpdate;
      req.tasks = profiles[i];
    } else {
      req.op = RequestOp::kEvict;
      in_fleet[i] = false;
    }
    const auto md = memo.handle(req);
    const auto fd = full.handle(req);
    ASSERT_EQ(md.ok(), fd.ok()) << "step " << step;
    if (!md.ok()) continue;
    ASSERT_EQ(md->canonical_string(), fd->canonical_string())
        << "decisions diverge at step " << step;
  }
  EXPECT_EQ(memo.fleet_fingerprint(), full.fleet_fingerprint());
  // Memoization must actually have fired, or the contract test is vacuous.
  EXPECT_GT(memo.counters().local_hits, 0u);
  EXPECT_EQ(full.counters().local_hits, 0u);
}

TEST(AdmissionEngine, PoisonedCacheBreaksByteIdentity) {
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  AdmissionEngine memo(small_table(), AdmissionEngineConfig{});
  AdmissionEngineConfig full_cfg;
  full_cfg.memoize = false;
  AdmissionEngine full(small_table(), full_cfg);

  ASSERT_TRUE(memo.handle(admit("t0", "vm0", ts)).ok());
  ASSERT_TRUE(full.handle(admit("t0", "vm0", ts)).ok());
  memo.poison_local_cache_for_testing();

  AdmissionRequest query;
  query.op = RequestOp::kQuery;
  const auto md = memo.handle(query);
  const auto fd = full.handle(query);
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(fd.ok());
  EXPECT_NE(md->canonical_string(), fd->canonical_string())
      << "poisoning the cache must be observable, or ADM002 checks nothing";
}

// -------------------------------------------------------------- telemetry

TEST(AdmissionEngine, ExportsCountersAsMetrics) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());

  telemetry::MetricsRegistry registry;
  engine.export_metrics(registry);
  std::ostringstream os;
  telemetry::write_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_NE(text.find("ioguard_admission_requests_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ioguard_admission_fleet_vms 1"), std::string::npos)
      << text;
}

// ------------------------------------------------------------ wire codec

TEST(AdmissionJson, DecodeAdmitRequest) {
  const auto wire = decode_request(
      R"({"op":"admit","tenant":"t0","vm":"vm1","server":{"pi":20,"theta":5},)"
      R"("tasks":[{"id":7,"period":100,"wcet":5,"deadline":80}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_FALSE(wire->stats);
  EXPECT_EQ(wire->request.op, RequestOp::kAdmit);
  EXPECT_EQ(wire->request.tenant, "t0");
  EXPECT_EQ(wire->request.vm, "vm1");
  ASSERT_TRUE(wire->request.server.has_value());
  EXPECT_EQ(wire->request.server->pi, 20u);
  EXPECT_EQ(wire->request.server->theta, 5u);
  ASSERT_EQ(wire->request.tasks.size(), 1u);
  const auto& t = wire->request.tasks.tasks()[0];
  EXPECT_EQ(t.id.value, 7u);
  EXPECT_EQ(t.period, 100u);
  EXPECT_EQ(t.wcet, 5u);
  EXPECT_EQ(t.deadline, 80u);
}

TEST(AdmissionJson, DeadlineDefaultsToPeriod) {
  const auto wire = decode_request(
      R"({"op":"admit","tenant":"t","vm":"v",)"
      R"("tasks":[{"id":1,"period":50,"wcet":2}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->request.tasks.tasks()[0].deadline, 50u);
}

TEST(AdmissionJson, MalformedInputIsDiagnosticNotCrash) {
  // JSON syntax error: DATA_LOSS.
  const auto syntax = decode_request("{\"op\":");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().code(), StatusCode::kDataLoss);

  // Schema violations: INVALID_ARGUMENT, the usage (exit-2) class.
  for (const char* line : {
           "{}",
           R"({"op":"frobnicate"})",
           R"({"op":"admit","tenant":"t","vm":"v","tasks":[]})",
           R"({"op":"admit","tenant":"t","vm":"v","tasks":[{"id":1}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":-3,"period":10,"wcet":1}]})",
           // Wire tasks violating 0 < C <= D <= T must be rejected by the
           // codec, never CHECK-crash the daemon in TaskSet::add.
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":20}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":0}]})",
           R"({"op":"admit","tenant":"t","vm":"v",
               "tasks":[{"id":1,"period":10,"wcet":2,"deadline":15}]})",
           R"({"op":"evict","tenant":"t"})",
       }) {
    const auto wire = decode_request(line);
    ASSERT_FALSE(wire.ok()) << line;
    EXPECT_EQ(wire.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(exit_code(wire.status()), 2) << line;
  }

  // The error line a daemon would answer with is well-formed JSON itself.
  const std::string err = encode_error(syntax.status());
  const auto parsed = parse_json(err);
  ASSERT_TRUE(parsed.ok()) << err;
  ASSERT_NE(parsed->find("code"), nullptr);
  EXPECT_EQ(parsed->find("code")->str, "data_loss");
}

TEST(AdmissionJson, DecisionRoundTripsThroughWireFormat) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  const auto decision = engine.handle(admit("t0", "vm0", ts));
  ASSERT_TRUE(decision.ok());

  const std::string line = encode_decision(*decision);
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.ok()) << line;
  ASSERT_NE(parsed->find("ok"), nullptr);
  EXPECT_TRUE(parsed->find("ok")->boolean);
  EXPECT_EQ(parsed->find("op")->str, "admit");
  EXPECT_EQ(parsed->find("tenant")->str, "t0");
  EXPECT_TRUE(parsed->find("admitted")->boolean);
  ASSERT_NE(parsed->find("per_vm"), nullptr);
  ASSERT_EQ(parsed->find("per_vm")->items.size(), 1u);
  EXPECT_EQ(parsed->find("per_vm")->items[0].find("vm")->str, "vm0");

  // Canonical encoding: the same decision always encodes to the same bytes.
  EXPECT_EQ(line, encode_decision(*decision));
}

TEST(AdmissionJson, StatsLineCarriesEngineCounters) {
  AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
  workload::TaskSet ts;
  ts.add(task(1, 100, 5, 80));
  ASSERT_TRUE(engine.handle(admit("t0", "vm0", ts)).ok());

  const auto wire = decode_request(R"({"op":"stats"})");
  ASSERT_TRUE(wire.ok());
  EXPECT_TRUE(wire->stats);

  const std::string line = encode_counters(
      engine.counters(), engine.fleet_size(), engine.fleet_fingerprint());
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const Json* stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->number, 1.0);
  EXPECT_EQ(stats->find("fleet_vms")->number, 1.0);
}

/// The daemon's --case-study table at --vms=8 --util=0.6 --preload=0.7
/// --seed=1 once aborted on this well-formed request: its utilization is
/// exactly the Theta/Pi the server synthesis probes (1/25), and the double
/// slack residue sized an unallocatable Theorem-4 check range.
TEST(AdmissionJson, CaseStudyZeroSlackRequestGetsADecision) {
  sys::TrialConfig raw;
  raw.workload.num_vms = 8;
  raw.workload.target_utilization = 0.6;
  raw.workload.preload_fraction = 0.7;
  raw.workload.seed = 1;
  const auto cfg = sys::TrialConfig::validated(raw);
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  const auto artifacts = analysis::build_experiment_artifacts(cfg->workload);
  ASSERT_FALSE(artifacts.tables.empty());
  AdmissionEngine engine(artifacts.tables[artifacts.busiest_device()],
                         AdmissionEngineConfig{});

  const auto wire = decode_request(
      R"({"op":"admit","tenant":"t2","vm":"vm3","tasks":[)"
      R"({"id":0,"period":100,"wcet":1,"deadline":95},)"
      R"({"id":1,"period":100,"wcet":1,"deadline":98},)"
      R"({"id":2,"period":100,"wcet":1,"deadline":100},)"
      R"({"id":3,"period":200,"wcet":1,"deadline":183},)"
      R"({"id":4,"period":200,"wcet":1,"deadline":190}]})");
  ASSERT_TRUE(wire.ok()) << wire.status();
  const auto decision = engine.handle(wire->request);
  ASSERT_TRUE(decision.ok()) << decision.status();

  const std::string line = encode_decision(*decision);
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_TRUE(parsed->find("ok")->boolean);
  EXPECT_EQ(parsed->find("op")->str, "admit");
  ASSERT_NE(parsed->find("admitted"), nullptr);
}

// ----------------------------------------------------------- determinism

/// The service must be jobs-width independent: N engines replaying the same
/// script on N threads land on the same decisions as a sequential replay.
TEST(AdmissionEngine, DeterministicAcrossWorkerWidths) {
  workload::TaskSet a;
  a.add(task(1, 100, 5, 80));
  workload::TaskSet b;
  b.add(task(2, 200, 20, 150));

  std::vector<AdmissionRequest> script;
  script.push_back(admit("t0", "vm0", a));
  script.push_back(admit("t1", "vm1", b));
  AdmissionRequest update = admit("t0", "vm0", b);
  update.op = RequestOp::kUpdate;
  script.push_back(update);
  AdmissionRequest evict;
  evict.op = RequestOp::kEvict;
  evict.tenant = "t1";
  evict.vm = "vm1";
  script.push_back(evict);

  const auto replay = [&script] {
    AdmissionEngine engine(small_table(), AdmissionEngineConfig{});
    std::string all;
    for (const auto& req : script) {
      const auto d = engine.handle(req);
      all += d.ok() ? d->canonical_string()
                    : "error|" + d.status().to_string();
      all += '\n';
    }
    all += "fingerprint=" + std::to_string(engine.fleet_fingerprint());
    return all;
  };

  const std::string sequential = replay();
  constexpr int kJobs = 4;
  std::vector<std::string> results(kJobs);
  {
    std::vector<std::thread> workers;
    workers.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j)
      workers.emplace_back([&results, &replay, j] { results[j] = replay(); });
    for (auto& w : workers) w.join();
  }
  for (int j = 0; j < kJobs; ++j) EXPECT_EQ(results[j], sequential) << j;
}

}  // namespace
}  // namespace ioguard::service
