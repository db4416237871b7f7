// xswap_perfbench: one benchmark run of one workload.
//
//   xswap_perfbench --workload batch_mixed|serve_bigbook|serve_restart
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//
// A run repeats its workload as passes. Every pass has the same inputs
// (made from --seed) and a fresh engine seed, so keys and secrets are
// new and nothing cached carries over. Timing metrics come from the
// run's fastest pass, put together segment by segment: each clearing
// point (batch: component) at its fastest over the passes. Work counts
// must be identical across passes and across runs with the same seed
// (the determinism self-check).
//
// --trace 0 measures the real path and prints the end-to-end metrics.
// --trace 1 replays the workload layer by layer with spans around each
// call, reconciles the layer self times against the traced wall time,
// and prints the per-layer metrics. Either way the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"
#include "graph/generators.hpp"
#include "swap/hashkey.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") args.workload = value;
    else if (arg == "--seed") args.seed = std::stoull(value);
    else if (arg == "--seconds") args.seconds = std::stod(value);
    else if (arg == "--trace") args.trace = value == "1";
    else if (arg == "--workdir") args.workdir = value;
    else throw std::invalid_argument("unknown option " + arg);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// splitmix64: a fresh, reproducible engine seed per pass.
std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (pass + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) >> 16;  // room for seed + component index
}

double elapsed_s(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Nearest-rank percentile, as ServiceStats::latency_percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Each element's least value over the run's passes (clearing points,
// segments). Every pass has the same elements in the same order, and a
// slow phase of the host that spans part of one pass rarely spans the
// same element in all of them.
std::vector<double> fastest_each(const std::vector<PassResult>& passes,
                                 std::vector<double> PassTiming::*field) {
  std::vector<double> best = passes.front().timing.*field;
  for (const PassResult& p : passes) {
    const std::vector<double>& values = p.timing.*field;
    if (values.size() != best.size()) {
      throw std::runtime_error("passes differ in clearing points or segments");
    }
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], values[i]);
    }
  }
  return best;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_json(const Args& args) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"host\":{\"nproc\":%ld,\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"loadavg_1m\":%.2f},"
                "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d}",
                sysconf(_SC_NPROCESSORS_ONLN), compiler.c_str(),
                PERFBENCH_BUILD_TYPE, load[0], args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
  return buf;
}

std::string counts_line(const Counts& c) {
  std::ostringstream out;
  out << "events=" << c.events << " components=" << c.components
      << " crash=" << c.crash_components << " failures=" << c.failures
      << " rejected=" << c.rejected_events << " storage=" << c.storage_bytes
      << " settle=" << c.settle_ticks << " finish=" << c.finish_ticks
      << " sign=" << c.sign_ops << " txs=" << c.transactions
      << " failed_txs=" << c.failed_transactions
      << " recovered=" << c.recovered_ledgers;
  return out.str();
}

std::string extra_line(const ReplayCounts& e) {
  std::ostringstream out;
  out << "blocks=" << e.blocks << " leaders=" << e.leaders
      << " journal_bytes=" << e.journal_bytes << " journals=" << e.journals
      << " live_sum=" << static_cast<std::uint64_t>(e.live_offers_sum)
      << " live_samples=" << e.live_samples << " full=" << e.full_recomputes
      << " incremental=" << e.incremental_updates
      << " reused=" << e.components_reused
      << " recleared=" << e.components_recleared;
  return out.str();
}

// Across runs: the first run with a given (workload, seed) records its
// work counts; every later run in the same build directory must match.
void check_across_runs(const Args& args, const std::string& record) {
  const fs::path path = fs::path(args.workdir) /
                        ("counts-" + args.workload + "-" +
                         std::to_string(args.seed) + ".txt");
  std::ifstream in(path);
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    if (previous.str() != record) {
      throw std::runtime_error("work counts differ from an earlier run with "
                               "the same seed:\n  before: " + previous.str() +
                               "\n  now:    " + record);
    }
    return;
  }
  std::ofstream(path) << record;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: the real path, fastest pass.

int run_end_to_end(const Args& args, Workload& workload) {
  std::vector<PassResult> passes;
  // One warm-up pass fills caches and finishes lazy set-up; it joins the
  // determinism check but not the timing.
  const PassResult warm = workload.run_pass(pass_seed(args.seed, 0));
  const Clock::time_point start = Clock::now();
  for (std::uint64_t p = 1; passes.size() < 3 || elapsed_s(start) < args.seconds; ++p) {
    passes.push_back(workload.run_pass(pass_seed(args.seed, p)));
  }

  for (const PassResult& p : passes) {
    if (!(p.counts == warm.counts)) {
      throw std::runtime_error("work counts differ between passes:\n  " +
                               counts_line(warm.counts) + "\n  " +
                               counts_line(p.counts));
    }
  }
  check_across_runs(args, counts_line(warm.counts) + "\n");

  const Counts& c = warm.counts;
  const bool batch = args.workload == "batch_mixed";
  // The fastest pass, put together from the fastest time of each of its
  // segments over all passes (every pass has the same segments and the
  // same counts), and the fastest set-up.
  double setup_s = passes.front().timing.setup_s;
  for (const PassResult& p : passes) setup_s = std::min(setup_s, p.timing.setup_s);
  double timed_s = 0.0;
  for (double ms : fastest_each(passes, &PassTiming::segment_ms)) timed_s += ms / 1e3;
  const double events_per_s =
      static_cast<double>(c.events) / (batch ? setup_s + timed_s : timed_s);
  const std::vector<double> clear_ms = fastest_each(passes, &PassTiming::clear_ms);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.counts.components + p.counts.events;
    failed += p.counts.failures;
  }
  const double per_pass = static_cast<double>(c.components + c.events);
  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"swaps_per_s", static_cast<double>(c.components) / timed_s, "1/s"},
      {"events_per_s", events_per_s, "1/s"},
      {"clear_ms_p50", percentile(clear_ms, 50), "ms"},
      {"clear_ms_p90", percentile(clear_ms, 90), "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"chain_bytes_per_swap", ratio(static_cast<double>(c.storage_bytes),
                                     static_cast<double>(c.components)), "B"},
      {"settle_delta_mean",
       ratio(static_cast<double>(c.settle_ticks),
             static_cast<double>(c.components) *
                 static_cast<double>(xswap::swap::EngineOptions{}.delta)),
       "delta"},
      {"ok_frac", 1.0 - ratio(static_cast<double>(c.failures), per_pass), "1"},
  };
  // Per-pass detail, for reading a run's noise: timed part, set-up, and
  // the untimed rest (history copies, teardown).
  auto series = [&](const char* name, double PassTiming::*field) {
    std::printf(",\"%s\":[", name);
    for (std::size_t i = 0; i < passes.size(); ++i) {
      std::printf("%s%.4f", i ? "," : "", passes[i].timing.*field);
    }
    std::printf("]");
  };
  std::printf("{\"passes\":%zu,\"clearing_points\":%zu,\"components\":%zu,"
              "\"events\":%zu",
              passes.size(), clear_ms.size(), c.components,
              c.events);
  series("timed_s", &PassTiming::timed_s);
  series("setup_s", &PassTiming::setup_s);
  series("untimed_s", &PassTiming::untimed_s);
  std::printf("}\n");
  const bool correct = c.failures == 0 && c.components > 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the layer-by-layer replay.

// Largest share of a traced pass's wall time that may fall outside its
// `pass` span (clock reads and request bookkeeping around it).
constexpr double kReconcileTolerance = 0.005;

// Median per-operation time of `op` over `batches` batches of `iters`.
double micro_us(std::size_t batches, std::size_t iters,
                const std::function<void()>& op) {
  std::vector<double> per_op;
  for (std::size_t b = 0; b < batches; ++b) {
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    per_op.push_back(elapsed_s(t) * 1e6 / static_cast<double>(iters));
  }
  return percentile(per_op, 50);
}

// crypto.* and swap.hashkey_* on fixed inputs.
void micro_metrics(std::vector<Metric>& metrics) {
  namespace crypto = xswap::crypto;
  namespace swap = xswap::swap;
  xswap::util::Rng rng(20180101);
  const xswap::util::Bytes seed32 = rng.next_bytes(32);
  const xswap::util::Bytes msg = rng.next_bytes(64);
  const xswap::util::Bytes kib = rng.next_bytes(1024);
  const crypto::KeyPair kp = crypto::KeyPair::from_seed(seed32);
  const crypto::Signature sig = kp.sign(msg);
  bool sink = true;       // every verification must succeed
  std::uint64_t acc = 0;  // consumes outputs that have no expected value
  metrics.push_back({"crypto.verify_us", micro_us(9, 20, [&] {
                       sink &= crypto::verify(kp.public_key(), msg, sig);
                     }), "us"});
  metrics.push_back({"crypto.sign_us", micro_us(9, 40, [&] {
                       acc += kp.sign(msg).bytes[0];
                     }), "us"});
  metrics.push_back({"crypto.keygen_us", micro_us(9, 40, [&] {
                       sink &= crypto::KeyPair::from_seed(seed32).public_key() ==
                               kp.public_key();
                     }), "us"});
  metrics.push_back({"crypto.sha256_us_1k", micro_us(9, 400, [&] {
                       acc += crypto::sha256(kib)[0];
                     }), "us"});
  for (const std::size_t hops : {1u, 8u}) {
    const xswap::graph::Digraph d = xswap::graph::cycle(hops + 1);
    std::vector<crypto::KeyPair> keys;
    swap::PartyDirectory directory;
    for (std::size_t i = 0; i <= hops; ++i) {
      keys.push_back(crypto::KeyPair::from_seed(rng.next_bytes(32)));
      directory.push_back(keys.back().public_key());
    }
    const swap::Secret secret = rng.next_bytes(32);
    const swap::Hashlock hashlock = crypto::sha256_bytes(secret);
    // Leader 0; vertex k has arc (k, k+1 mod n), so extend backwards.
    swap::Hashkey key = swap::make_leader_hashkey(secret, 0, keys[0]);
    for (std::size_t v = hops; v >= 1; --v) {
      key = swap::extend_hashkey(key, static_cast<swap::PartyId>(v), keys[v]);
    }
    metrics.push_back({"swap.hashkey_verify_us_k" + std::to_string(hops),
                       micro_us(9, hops == 1 ? 10 : 3, [&] {
                         sink &= swap::verify_hashkey(key, hashlock, d,
                                                      key.path.front(), 0,
                                                      directory);
                       }), "us"});
  }
  if (!sink) throw std::runtime_error("crypto probe: a verification failed");
  std::printf("{\"micro_checksum\":%llu}\n", static_cast<unsigned long long>(acc));
}

int run_traced(const Args& args, Workload& workload) {
  const Clock::time_point start = Clock::now();
  // The real path, for lane occupancy and the replay's cross-check.
  const PassResult real = workload.run_pass(pass_seed(args.seed, 0));
  check_across_runs(args, counts_line(real.counts) + "\n");
  double clear_total_ms = 0.0;
  for (double ms : real.timing.clear_ms) clear_total_ms += ms;
  const double lane_busy =
      ratio(real.timing.engine_busy_ms,
            static_cast<double>(workload.lanes()) * clear_total_ms);

  // Untraced and traced replays alternate, so both see the same host.
  Tracer tracer;
  ReplayCounts probe_counts;
  std::vector<double> untraced_s, traced_s;
  ReplayResult first;
  bool have_first = false;
  for (std::uint32_t p = 0;
       traced_s.size() < 2 || elapsed_s(start) < 0.8 * args.seconds; ++p) {
    const bool traced = p % 2 == 1;
    const ReplayResult r =
        workload.replay_pass(pass_seed(args.seed, p + 1), traced ? &tracer : nullptr, p);
    if (traced) workload.probe(tracer, probe_counts);
    (traced ? traced_s : untraced_s).push_back(r.wall_s);
    if (!have_first) {
      first = r;
      have_first = true;
    } else if (!(r.counts == first.counts) || !(r.extra == first.extra)) {
      throw std::runtime_error("replay work counts differ between passes:\n  " +
                               counts_line(first.counts) + " " +
                               extra_line(first.extra) + "\n  " +
                               counts_line(r.counts) + " " + extra_line(r.extra));
    }
  }
  if (!(first.counts == real.counts)) {
    throw std::runtime_error("the replay diverges from the real path:\n  real:   " +
                             counts_line(real.counts) + "\n  replay: " +
                             counts_line(first.counts));
  }

  std::vector<Metric> metrics;
  micro_metrics(metrics);

  const Attribution a = attribute(tracer.spans());
  auto p50_ms = [&](const char* name) {
    return percentile(a.durations_us.count(name) ? a.durations_us.at(name)
                                                 : std::vector<double>{},
                      50) / 1000.0;
  };
  auto pct_us = [&](const char* name, double p) {
    return percentile(a.durations_us.count(name) ? a.durations_us.at(name)
                                                 : std::vector<double>{},
                      p);
  };
  // Reconciliation: the replay reads its own clock around each pass,
  // outside the tracer. Layer self times plus the unattributed part of
  // the pass spans must account for that time, or a pass did work no
  // span covers.
  double traced_wall_us = 0.0;
  for (double s : traced_s) traced_wall_us += s * 1e6;
  const double reconcile_gap =
      ratio(traced_wall_us - a.layers_us() - a.unattributed_us, traced_wall_us);
  const bool reconciled = std::abs(reconcile_gap) <= kReconcileTolerance;
  auto self_frac = [&](const char* layer) {
    return ratio(a.layer_self_us.count(layer) ? a.layer_self_us.at(layer) : 0.0,
                 traced_wall_us);
  };
  const Counts& c = first.counts;
  const ReplayCounts& e = first.extra;
  const double swaps = static_cast<double>(c.components);
  const bool restart = args.workload == "serve_restart";
  const double recovered = restart ? static_cast<double>(c.recovered_ledgers)
                                   : static_cast<double>(probe_counts.journals);

  const double untraced_min = *std::min_element(untraced_s.begin(), untraced_s.end());
  const double traced_min = *std::min_element(traced_s.begin(), traced_s.end());
  const std::vector<Metric> layer = {
      {"swap.build_ms_p50", p50_ms("swap.build"), "ms"},
      {"swap.run_ms_p50", p50_ms("swap.run"), "ms"},
      {"swap.run_ms_p90", pct_us("swap.run", 90) / 1000.0, "ms"},
      {"swap.audit_ms_p50", p50_ms("swap.audit"), "ms"},
      {"swap.decompose_ms_p50", p50_ms("swap.decompose"), "ms"},
      {"swap.lane_busy_frac", lane_busy, "1"},
      {"swap.sign_ops_per_swap", ratio(static_cast<double>(c.sign_ops), swaps), "count"},
      {"swap.txs_per_swap", ratio(static_cast<double>(c.transactions), swaps), "count"},
      {"swap.failed_tx_frac",
       ratio(static_cast<double>(c.failed_transactions),
             static_cast<double>(c.transactions)), "1"},
      {"swap.self_frac", self_frac("swap"), "1"},
      {"serve.parse_us_p50", pct_us("serve.parse", 50), "us"},
      {"serve.ingest_us_p50", pct_us("serve.ingest", 50), "us"},
      {"serve.ingest_us_p90", pct_us("serve.ingest", 90), "us"},
      {"serve.consume_ms_p50", p50_ms("serve.consume"), "ms"},
      {"serve.full_recompute_ratio",
       ratio(static_cast<double>(e.full_recomputes),
             static_cast<double>(e.full_recomputes + e.incremental_updates)), "1"},
      {"serve.cache_reuse_ratio",
       ratio(static_cast<double>(e.components_reused),
             static_cast<double>(e.components_reused + e.components_recleared)), "1"},
      {"serve.live_offers_mean",
       ratio(e.live_offers_sum, static_cast<double>(e.live_samples)), "count"},
      {"serve.self_frac", self_frac("serve"), "1"},
      {"graph.fvs_us_p50", pct_us("graph.fvs", 50), "us"},
      {"graph.leaders_per_swap", ratio(static_cast<double>(e.leaders), swaps), "count"},
      {"chain.integrity_ms_p50", p50_ms("chain.integrity"), "ms"},
      {"chain.blocks_per_swap", ratio(static_cast<double>(e.blocks), swaps), "count"},
      {"sim.ticks_per_swap", ratio(static_cast<double>(c.finish_ticks), swaps), "ticks"},
      {"persist.recover_ms_p50", p50_ms("persist.recover"), "ms"},
      {"persist.journal_bytes_per_swap",
       static_cast<double>(probe_counts.journal_bytes), "B"},
      {"persist.recovered_ledgers", recovered, "count"},
      {"persist.self_frac", self_frac("persist"), "1"},
      {"trace.overhead_frac", (traced_min - untraced_min) / untraced_min, "1"},
      {"trace.unattributed_frac", ratio(a.unattributed_us, traced_wall_us), "1"},
  };
  metrics.insert(metrics.end(), layer.begin(), layer.end());

  const std::string spans_path = (fs::path(args.workdir) /
                                  ("spans-" + args.workload + "-" +
                                   std::to_string(args.seed) + ".jsonl"))
                                     .string();
  tracer.write(spans_path, host_json(args));
  std::printf("{\"spans\":\"%s\",\"span_count\":%zu,\"replay_passes\":%zu,"
              "\"traced_ms\":%.3f,\"reconcile_gap_frac\":%.6f,"
              "\"reconciled\":%s}\n",
              spans_path.c_str(), tracer.spans().size(),
              untraced_s.size() + traced_s.size(), traced_wall_us / 1000.0,
              reconcile_gap, reconciled ? "true" : "false");
  if (!reconciled) {
    std::fprintf(stderr,
                 "perfbench: layer self times plus unattributed time miss "
                 "the traced wall time by %.4f%% (tolerance %.1f%%)\n",
                 100.0 * reconcile_gap, 100.0 * kReconcileTolerance);
  }
  const bool correct = reconciled && c.failures == 0;
  const std::size_t attempted =
      (untraced_s.size() + traced_s.size() + 1) * (c.components + c.events);
  print_result(correct, attempted, c.failures, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::printf("%s\n", host_json(args).c_str());
    // Records (work counts, spans) stay in --workdir; the workload's
    // scratch files live in a subdirectory removed at exit.
    const fs::path scratch = fs::path(args.workdir) / ("scratch-" + args.workload);
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    int rc = 0;
    {
      std::unique_ptr<Workload> workload =
          make_workload(args.workload, args.seed, scratch.string());
      rc = args.trace ? run_traced(args, *workload)
                      : run_end_to_end(args, *workload);
    }
    fs::remove_all(scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
