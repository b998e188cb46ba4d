// admission_churn: one closed-loop client drives `ioguard_admitd
// --case-study` over stdin/stdout with a seeded tenant-churn stream that
// tracks the fleet from the replies. Most requests re-use a few common VM
// profiles (cache hits); some bring rare profiles (a miss into server
// synthesis and Theorem 4 on first sight) or heavy profiles the analysis
// rejects (valid decisions, not failures). The stream is cut into episodes
// that each end by restoring the warm-up fleet, so episodes replay
// independently: every daemon reply is checked against a memoize=false
// AdmissionEngine replay of the same requests, on worker threads once the
// stream has ended. Client and daemon share one CPU while the stream runs;
// the replay is timed per episode in each worker's CPU time.
#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "analysis/artifact_builder.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "daemon.hpp"
#include "sched/server_design.hpp"
#include "service/admission_engine.hpp"
#include "service/admission_json.hpp"
#include "system/runner.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ioguard;

namespace {

// The served table: the case study's busiest device at 8 VMs, utilization
// 0.6, preload 0.7 -- the same artifacts ioguard_cli and ioguard_verify use.
constexpr std::size_t kTableVms = 8;
constexpr double kTableUtil = 0.6;
constexpr double kTablePreload = 0.7;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kSlotsPerTenant = 4;
constexpr std::size_t kWarmupPerTenant = 2;
/// Catalog: common images (most requests), rare images (each one a cache
/// miss into synthesis and Theorem 4 the first time a run requests it) and
/// heavy images the analysis rejects. A heavy image alone exceeds the
/// table's free bandwidth, so Theorem 2 rejects it outright: near-capacity
/// rejections cost 10+ ms each, depend on the fleet the random walk has
/// reached, and would make the request mix's cost hinge on the seed.
constexpr std::size_t kCommonProfiles = 24;
constexpr std::size_t kRareProfiles = 256;
constexpr std::size_t kHeavyProfiles = 4;
constexpr std::size_t kEpisodeOps = 48;
/// Throughput is the median over chunks of this many episodes, so a burst
/// of host noise moves one chunk, not the run's figure.
constexpr std::size_t kChunkEpisodes = 8;
/// Episodes between two runs of the calibration kernel (see SpeedProbe).
constexpr std::size_t kProbeEpisodes = 32;
/// Distinct task sets / fleets of a session timed by measure_sched (the
/// first ones seen), so the traced run stays within its time budget.
constexpr std::size_t kMaxSchedInputs = 200;

// The table is the served system's configuration, not workload input, so it
// stays fixed across seeds; the seed drives the request stream.
constexpr std::uint64_t kTableSeed = 1;
constexpr std::uint64_t kCatalogSeed = 2026;

sched::TimeSlotTable served_table() {
  sys::TrialConfig raw;
  raw.workload.num_vms = kTableVms;
  raw.workload.target_utilization = kTableUtil;
  raw.workload.preload_fraction = kTablePreload;
  raw.workload.seed = kTableSeed;
  const sys::TrialConfig cfg = sys::TrialConfig::validated(raw).value();
  const auto art = analysis::build_experiment_artifacts(cfg.workload);
  std::size_t busiest = 0;
  const auto used = [&art](std::size_t i) {
    return art.tables[i].hyperperiod() - art.tables[i].free_slots();
  };
  for (std::size_t d = 1; d < art.tables.size(); ++d)
    if (used(d) > used(busiest)) busiest = d;
  return art.tables[busiest];
}

std::vector<std::string> daemon_argv(const Options& opt) {
  return {opt.admitd,
          "--case-study",
          "--vms=" + std::to_string(kTableVms),
          "--util=" + std::to_string(kTableUtil),
          "--preload=" + std::to_string(kTablePreload),
          "--seed=" + std::to_string(kTableSeed)};
}

/// JSON task array of a random profile with total utilization `util`, drawn
/// like bench_admission_service's VM profiles (log-uniform periods of
/// 2-20 ms, constrained deadlines).
std::string profile_json(Rng& rng, double util) {
  const std::size_t n = 3 + rng.uniform_int(0, 2);
  const auto shares = workload::uunifast(rng, n, util);
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < n; ++i) {
    const auto period = static_cast<Slot>(rng.log_uniform(200, 2000));
    const Slot deadline = period - rng.uniform_int(0, period / 10);
    Slot wcet = std::max<Slot>(
        1, static_cast<Slot>(shares[i] * static_cast<double>(period)));
    wcet = std::min(wcet, deadline);
    if (i > 0) os << ',';
    os << "{\"id\":" << i << ",\"period\":" << period << ",\"wcet\":" << wcet
       << ",\"deadline\":" << deadline << '}';
  }
  os << ']';
  return os.str();
}

/// Seeded tenant-churn request generator that tracks the fleet from the
/// daemon's replies.
class ChurnGenerator {
 public:
  /// The profile catalog (the tenants' VM images) is fixed, like the
  /// table; the seed drives which images are requested in which order.
  ChurnGenerator(std::uint64_t seed, double supply_bw) : rng_(seed) {
    Rng catalog(kCatalogSeed);
    for (std::size_t p = 0; p < kCommonProfiles; ++p)
      common_.push_back(
          profile_json(catalog, supply_bw * catalog.uniform(0.02, 0.04)));
    for (std::size_t p = 0; p < kRareProfiles; ++p)
      rare_.push_back(profile_json(catalog, supply_bw * 0.03));
    for (std::size_t p = 0; p < kHeavyProfiles; ++p)
      heavy_.push_back(
          profile_json(catalog, supply_bw * catalog.uniform(1.05, 1.25)));
  }

  /// Admits of the warm-up fleet (2 VMs per tenant, profiles 0..7).
  [[nodiscard]] std::vector<std::string> warmup() const {
    std::vector<std::string> out;
    for (std::size_t t = 0; t < kTenants; ++t)
      for (std::size_t k = 0; k < kWarmupPerTenant; ++k)
        out.push_back(admit_line("admit", t, k,
                                 common_[t * kWarmupPerTenant + k]));
    return out;
  }

  /// The next churn request of an episode.
  std::string next() {
    const double r = rng_.uniform();
    if (r < 0.30 && pick_vm(true)) return admit_line("update", t_, k_, pick_common());
    if (r < 0.50 && pick_vm(false)) return admit_line("admit", t_, k_, pick_common());
    if (r < 0.63 && pick_vm(true)) return vm_line("evict", t_, k_) + "}";
    if (r < 0.76) return "{\"op\":\"query\"}";
    if (r < 0.86) {
      const bool update = pick_vm(true) && rng_.uniform() < 0.5;
      if (update || pick_vm(false))
        return admit_line(update ? "update" : "admit", t_, k_,
                          rare_[rng_.uniform_int(0, kRareProfiles - 1)]);
    }
    if (r < 0.92 && pick_vm(false))
      return admit_line("admit", t_, k_, heavy_[rng_.uniform_int(0, kHeavyProfiles - 1)]);
    if (r < 0.94 && pick_tenant()) return tenant_line(t_);
    return "{\"op\":\"query\"}";
  }

  /// Requests that bring the fleet back to the warm-up state: evict every
  /// tenant, then the warm-up admits in their original order.
  [[nodiscard]] std::vector<std::string> restore() const {
    std::vector<std::string> out;
    for (std::size_t t = 0; t < kTenants; ++t)
      if (std::any_of(fleet_[t].begin(), fleet_[t].end(),
                      [](bool b) { return b; }))
        out.push_back(tenant_line(t));
    for (auto& w : warmup()) out.push_back(std::move(w));
    return out;
  }

  /// Applies a reply to the tracked fleet.
  void observe(const std::string& request, const std::string& reply) {
    if (reply.find("\"applied\":true") == std::string::npos) return;
    const auto op = field(request, "op");
    const std::size_t t = std::stoul(field(request, "tenant").substr(1));
    if (op == "evict_tenant") {
      fleet_[t].fill(false);
      return;
    }
    const std::size_t k = std::stoul(field(request, "vm").substr(2));
    fleet_[t][k] = op != "evict";
  }

 private:
  static std::string field(const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\":\"";
    const auto at = line.find(tag);
    if (at == std::string::npos) return "";
    const auto begin = at + tag.size();
    return line.substr(begin, line.find('"', begin) - begin);
  }
  static std::string vm_line(const char* op, std::size_t t, std::size_t k) {
    return std::string("{\"op\":\"") + op + "\",\"tenant\":\"t" +
           std::to_string(t) + "\",\"vm\":\"vm" + std::to_string(k) + "\"";
  }
  static std::string admit_line(const char* op, std::size_t t, std::size_t k,
                                const std::string& tasks) {
    return vm_line(op, t, k) + ",\"tasks\":" + tasks + "}";
  }
  static std::string tenant_line(std::size_t t) {
    return "{\"op\":\"evict_tenant\",\"tenant\":\"t" + std::to_string(t) +
           "\"}";
  }
  const std::string& pick_common() {
    return common_[rng_.uniform_int(0, kCommonProfiles - 1)];
  }
  /// Picks a random occupied (or free) VM slot into t_/k_.
  bool pick_vm(bool occupied) {
    std::vector<std::pair<std::size_t, std::size_t>> cands;
    for (std::size_t t = 0; t < kTenants; ++t)
      for (std::size_t k = 0; k < kSlotsPerTenant; ++k)
        if (fleet_[t][k] == occupied) cands.emplace_back(t, k);
    if (cands.empty()) return false;
    std::tie(t_, k_) = cands[rng_.uniform_int(0, cands.size() - 1)];
    return true;
  }
  bool pick_tenant() {
    std::vector<std::size_t> cands;
    for (std::size_t t = 0; t < kTenants; ++t)
      if (std::any_of(fleet_[t].begin(), fleet_[t].end(),
                      [](bool b) { return b; }))
        cands.push_back(t);
    if (cands.empty()) return false;
    t_ = cands[rng_.uniform_int(0, cands.size() - 1)];
    return true;
  }

  Rng rng_;
  std::vector<std::string> common_, rare_, heavy_;
  std::array<std::array<bool, kSlotsPerTenant>, kTenants> fleet_{};
  std::size_t t_ = 0, k_ = 0;
};

/// One request and what came back. Replies are kept as fnv1a64 hashes: a
/// 20 s run exchanges ~200k requests, and the replay checks only identity.
struct Exchange {
  std::string request;
  std::uint64_t reply_hash = 0;
  bool error = false;     ///< {"ok":false,...}: a status error
  bool rejected = false;  ///< an analytic rejection (valid decision)
  double latency_us = 0.0;
};

struct Session {
  std::vector<Exchange> warmup;
  std::vector<std::vector<Exchange>> episodes;
  std::vector<double> episode_s;  ///< wall time of each episode
  std::size_t requests = 0;       ///< episode requests (the timed ones)
  double seconds = 0.0;           ///< wall time of the episodes
};

/// Requests per second of each chunk of kChunkEpisodes consecutive episodes,
/// given each episode's seconds (complete chunks only, or one partial chunk
/// when there is no complete one).
std::vector<double> chunk_rates(const Session& s,
                                const std::vector<double>& episode_s) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < episode_s.size(); i += kChunkEpisodes) {
    const std::size_t end = std::min(i + kChunkEpisodes, episode_s.size());
    if (end - i < kChunkEpisodes && !rates.empty()) break;
    double requests = 0.0, seconds = 0.0;
    for (std::size_t k = i; k < end; ++k) {
      requests += static_cast<double>(s.episodes[k].size());
      seconds += episode_s[k];
    }
    rates.push_back(requests / seconds);
  }
  return rates;
}

/// Sends `request`, applies the reply to the generator's fleet model.
Exchange exchange(Daemon& d, ChurnGenerator& gen, const std::string& request) {
  Exchange e;
  e.request = request;
  const auto t0 = Clock::now();
  std::string reply;
  try {
    reply = d.call(request);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(std::string(err.what()) + " after request " +
                             request);
  }
  e.latency_us = seconds_since(t0) * 1e6;
  e.reply_hash = fnv1a64(reply);
  e.error = reply.rfind("{\"ok\":false", 0) == 0;
  e.rejected = reply.find("\"admitted\":false") != std::string::npos;
  gen.observe(request, reply);
  return e;
}

/// Starts a daemon and admits the warm-up fleet.
std::unique_ptr<Daemon> start_daemon(const Options& opt, ChurnGenerator& gen,
                                     Session& session) {
  auto d = std::make_unique<Daemon>(daemon_argv(opt));
  session.warmup.clear();
  for (const auto& line : gen.warmup())
    session.warmup.push_back(exchange(*d, gen, line));
  return d;
}

/// Episodes until `seconds` have passed (at least one); samples `speed`, when
/// given, between episodes.
void drive(Daemon& d, ChurnGenerator& gen, double seconds, Session& s,
           SpeedProbe* speed = nullptr) {
  const auto start = Clock::now();
  while (s.episodes.empty() || seconds_since(start) < seconds) {
    if (speed != nullptr && s.episodes.size() % kProbeEpisodes == 0)
      speed->sample();
    const auto t0 = Clock::now();
    std::vector<Exchange> episode;
    for (std::size_t i = 0; i < kEpisodeOps; ++i)
      episode.push_back(exchange(d, gen, gen.next()));
    for (const auto& line : gen.restore())
      episode.push_back(exchange(d, gen, line));
    s.episode_s.push_back(seconds_since(t0));
    s.requests += episode.size();
    s.episodes.push_back(std::move(episode));
  }
  s.seconds = seconds_since(start);
}

std::string answer(service::AdmissionEngine& engine, const std::string& line) {
  const auto wire = service::decode_request(line);
  if (!wire.ok()) return service::encode_error(wire.status());
  const auto decision = engine.handle(wire->request);
  return decision.ok() ? service::encode_decision(*decision)
                       : service::encode_error(decision.status());
}

std::size_t count_errors(const Session& s) {
  std::size_t errors = 0;
  for (const auto& e : s.warmup) errors += e.error;
  for (const auto& ep : s.episodes)
    for (const auto& e : ep) errors += e.error;
  return errors;
}

/// Replays every episode on memoize=false engines over `threads` workers;
/// returns the number of replies that differ from the daemon's, puts each
/// episode's replay time (CPU seconds of its worker) in `episode_s` and the
/// workers' calibration runs in `speed`.
std::size_t verify_full_reanalysis(const sched::TimeSlotTable& table,
                                   const Session& s, std::size_t threads,
                                   std::vector<double>& episode_s,
                                   SpeedProbe& speed) {
  episode_s.assign(s.episodes.size(), 0.0);
  std::atomic<std::size_t> mismatches{0};
  std::mutex mu;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::size_t bad = 0;
      SpeedProbe local(true);
      try {
        service::AdmissionEngineConfig cfg;
        cfg.memoize = false;
        service::AdmissionEngine engine(table, cfg);
        for (const auto& e : s.warmup)
          bad += fnv1a64(answer(engine, e.request)) != e.reply_hash;
        for (std::size_t i = w; i < s.episodes.size(); i += threads) {
          if ((i / threads) % kProbeEpisodes == 0) local.sample();
          const double c0 = thread_cpu_seconds();
          for (const auto& e : s.episodes[i])
            bad += fnv1a64(answer(engine, e.request)) != e.reply_hash;
          episode_s[i] = thread_cpu_seconds() - c0;
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: replay worker " << w << ": " << e.what()
                  << "\n";
        ++bad;
      }
      mismatches += bad;
      const std::lock_guard<std::mutex> lock(mu);
      speed.merge(local);
    });
  }
  for (auto& t : workers) t.join();
  return mismatches.load();
}

double supply_bandwidth(const sched::TimeSlotTable& table) {
  return sched::TableSupply(table).bandwidth();
}

}  // namespace

void run_churn(const Options& opt, Report& report) {
  const sched::TimeSlotTable table = served_table();
  const double bw = supply_bandwidth(table);
  PinToOneCpu pin;  // the daemons inherit it

  // Set-up: daemon spawn (which builds the case-study table) and the
  // warm-up fleet, kSetupRepeats times; the last daemon serves the timed
  // stream.
  Session session;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Daemon>> spares;
  std::unique_ptr<ChurnGenerator> gen;
  const double setup_s = setup_seconds(kSetupRepeats, false, [&](std::size_t) {
    if (daemon) spares.push_back(std::move(daemon));
    gen = std::make_unique<ChurnGenerator>(opt.seed, bw);
    daemon = start_daemon(opt, *gen, session);
  });
  for (auto& d : spares) d->finish();
  SpeedProbe speed(false);
  drive(*daemon, *gen, opt.seconds, session, &speed);
  const double daemon_rss = daemon->finish();

  // The stream's timings as on the reference host: each episode's divided
  // by the slowdown around the calibration sample taken before its group of
  // kProbeEpisodes (see SpeedProbe).
  std::vector<double> latency_ms;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < session.episodes.size(); ++i) {
    const double slow = speed.slowdown_near(i / kProbeEpisodes);
    session.episode_s[i] /= slow;
    for (const auto& e : session.episodes[i]) {
      latency_ms.push_back(e.latency_us / 1e3 / slow);
      rejected += e.rejected;
    }
  }
  report.attempt(session.warmup.size() + session.requests);
  if (const std::size_t errors = count_errors(session); errors > 0)
    report.fail(errors, std::to_string(errors) +
                            " status-error replies to well-formed requests");

  // The reference: every episode replayed on memoize=false engines.
  pin.release();
  std::vector<double> reference_s;
  SpeedProbe replay_speed(true);
  const std::size_t mismatches = verify_full_reanalysis(
      table, session, opt.jobs, reference_s, replay_speed);
  if (mismatches > 0)
    report.fail(mismatches, std::to_string(mismatches) +
                                " daemon replies differ from full re-analysis");

  // The replay's as on the reference host: its workers interleave, so by the
  // slowdown over all their samples.
  const double slowdown = speed.slowdown();
  const double replay_slowdown = replay_speed.slowdown();
  std::cout << "admission_churn: " << session.requests << " requests in "
            << session.episodes.size() << " episodes over "
            << session.seconds << " s (" << rejected
            << " analytic rejections); full re-analysis replay of every "
               "reply on "
            << opt.jobs << " threads; host slowdown " << slowdown
            << " (stream, median of " << speed.samples() << " calibration runs), "
            << replay_slowdown << " (replay, " << replay_speed.samples()
            << ")\n";
  report.metric("setup_s", setup_s, "s");
  report.metric("ops_per_s", median(chunk_rates(session, session.episode_s)),
                "1/s");
  report.metric("reference_ops_per_s",
                median(chunk_rates(session, reference_s)) * replay_slowdown,
                "1/s");
  std::cout << "  requests_per_s = " << report.value("ops_per_s")
            << " 1/s (median over chunks of " << kChunkEpisodes
            << " episodes, reference host; whole stream "
            << static_cast<double>(session.requests) / session.seconds
            << " 1/s as measured)\n";
  report_percentile(report, "op_ms_p50", latency_ms, 50.0, "ms");
  report_percentile(report, "op_ms_tail", latency_ms, 99.0, "ms");
  report.metric("peak_rss_mb", daemon_rss, "MB");
}

void measure_service(const Options& opt, double seconds, Report& report,
                     SpanLog& spans, SchedInputs* sched_inputs) {
  const sched::TimeSlotTable table = served_table();
  ChurnGenerator gen(opt.seed, supply_bandwidth(table));
  Session session;
  auto daemon = start_daemon(opt, gen, session);
  drive(*daemon, gen, seconds, session);
  const std::string stats = daemon->call("{\"op\":\"stats\"}");
  daemon->finish();
  report.attempt(session.warmup.size() + session.requests);
  if (const std::size_t errors = count_errors(session); errors > 0)
    report.fail(errors, "status-error replies in the service session");

  // In-process replay on the memoizing engine the daemon runs; each request
  // is a span with decode / handle / encode children.
  service::AdmissionEngine engine(table);
  std::vector<double> handle_us, codec_us, latency_us;
  std::size_t mismatches = 0, requests = 0;
  std::set<std::string> seen_tasks;
  std::set<std::uint64_t> seen_fleets;
  auto replay = [&](const Exchange& e, bool timed_request) {
    const auto id = static_cast<std::uint64_t>(requests++);
    const int root = spans.open("request", id);
    int span = spans.open("decode", id, root);
    const auto wire = service::decode_request(e.request);
    spans.close(span);
    if (!wire.ok()) {
      spans.close(root);
      ++mismatches;
      return;
    }
    span = spans.open("handle", id, root);
    const auto decision = engine.handle(wire->request);
    spans.close(span);
    span = spans.open("encode", id, root);
    const std::string reply = decision.ok()
                                  ? service::encode_decision(*decision)
                                  : service::encode_error(decision.status());
    spans.close(span);
    spans.close(root);
    const auto us = [&](int index) {
      const Span& sp = spans.spans()[static_cast<std::size_t>(index)];
      return static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    };
    mismatches += fnv1a64(reply) != e.reply_hash;
    if (timed_request) {
      handle_us.push_back(us(root + 2));
      codec_us.push_back(us(root + 1) + us(root + 3));
      latency_us.push_back(e.latency_us);
    }
    if (sched_inputs == nullptr || !decision.ok()) return;
    const auto& req = wire->request;
    if ((req.op == service::RequestOp::kAdmit ||
         req.op == service::RequestOp::kUpdate) &&
        sched_inputs->vms.size() < kMaxSchedInputs &&
        seen_tasks.insert(service::task_set_canonical_string(req.tasks)).second) {
      if (auto server = sched::synthesize_server(req.tasks); server.ok())
        sched_inputs->vms.emplace_back(req.tasks, *server);
    }
    if (decision->admitted && sched_inputs->fleets.size() < kMaxSchedInputs &&
        seen_fleets.insert(decision->fleet_fingerprint).second) {
      std::vector<sched::ServerParams> servers;
      for (const auto& v : decision->per_vm) servers.push_back(v.server);
      if (!servers.empty()) sched_inputs->fleets.emplace_back(table, servers);
    }
  };
  for (const auto& e : session.warmup) replay(e, false);
  for (const auto& ep : session.episodes)
    for (const auto& e : ep) replay(e, true);
  if (mismatches > 0)
    report.fail(mismatches, "in-process replies differ from the daemon's");

  const double handle_p50 = percentile(handle_us, 50.0).value;
  const double codec = median(codec_us);
  report.metric("service.handle_us_p50", handle_p50, "us");
  report.metric("service.handle_us_p99", percentile(handle_us, 99.0).value,
                "us");
  report.metric("service.codec_us", codec, "us");
  report.metric("service.ipc_us", median(latency_us) - handle_p50 - codec,
                "us");

  // Cache effectiveness from the daemon's own counters.
  const auto json = service::parse_json(stats);
  const service::Json* st = json.ok() ? json->find("stats") : nullptr;
  auto counter = [&](const char* key) {
    const service::Json* v = st != nullptr ? st->find(key) : nullptr;
    if (v == nullptr) report.fail(1, std::string("stats line lacks ") + key);
    return v != nullptr ? v->number : 0.0;
  };
  auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  report.metric("service.local_hit_ratio",
                ratio(counter("local_hits"), counter("local_misses")),
                "ratio");
  report.metric("service.global_hit_ratio",
                ratio(counter("global_hits"), counter("global_misses")),
                "ratio");
  report.metric("service.synth_hit_ratio",
                ratio(counter("synth_hits"), counter("synth_misses")),
                "ratio");
  report.metric("service.vms_reanalyzed_per_req",
                counter("vms_reanalyzed") / std::max(1.0, counter("requests")),
                "ratio");
  std::cout << "service: " << session.requests << " requests, daemon stats "
            << stats << "\n";
}

void trace_churn(const Options& opt, Report& report) {
  SchedInputs sched_inputs;
  SpanLog spans;
  measure_service(opt, std::min(opt.seconds, 5.0), report, spans,
                  &sched_inputs);
  measure_sched(sched_inputs, report);

  // Layers this workload does not reach: small probes.
  const TrialStats probe = measure_trials(probe_trials(opt.seed), report, spans);
  report_trial_layers(TrialStats{}, probe, report);
  sys::ParallelRunner runner(opt.jobs);
  sys::BatchTiming timing;
  const auto configs = probe_trials(opt.seed);
  (void)runner.run_trials(
      configs.size(), [&](std::size_t t) { return configs[t]; }, nullptr,
      &timing);
  report_parallel_efficiency(report, timing);
  sys::TrialConfig tapped = observed_trial(opt.seed, 0);
  tapped.workload.num_vms = 4;
  tapped.workload.target_utilization = 0.4;
  tapped.min_jobs_per_task = 5;
  measure_telemetry(tapped, 2, opt.out_dir + "/flight-probe", report);
  write_spans(opt, spans);
}

}  // namespace perfbench
