#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "persist/durable_ledger.hpp"
#include "persist/segment_store.hpp"
#include "serve/events.hpp"
#include "serve/incremental.hpp"
#include "serve/service.hpp"
#include "swap/invariants.hpp"
#include "swap/scenario.hpp"
#include "swap/strategy.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = xswap::serve;
namespace persist = xswap::persist;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// SwapEngine starts every swap Δ after tick 0; the workloads run with
// the default engine options apart from the seed.
const xswap::sim::Time kStart = swap::EngineOptions{}.delta;

std::size_t distinct_chains(const swap::ClearedSwap& cleared) {
  std::set<std::string> chains;
  for (const swap::ArcTerms& a : cleared.arcs) chains.insert(a.chain);
  return chains.size();
}

std::size_t tree_bytes(const fs::path& dir) {
  std::size_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::vector<fs::path> sorted_subdirs(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_directory()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The replay-only counts of one finished engine.
void count_replay_engine(ReplayCounts& extra, const swap::SwapEngine& engine,
                         const swap::ClearedSwap& cleared) {
  for (const std::string& chain : engine.chain_names()) {
    extra.blocks += engine.ledger(chain).blocks().size();
  }
  extra.leaders += cleared.leaders.size();
}

void probe_integrity(Tracer& tracer, const swap::SwapEngine& engine) {
  Span span(&tracer, "chain.integrity");
  for (const std::string& chain : engine.chain_names()) {
    if (!engine.ledger(chain).verify_integrity()) {
      throw std::runtime_error("probe: ledger " + chain + " fails integrity");
    }
  }
}

void probe_fvs(Tracer& tracer, const std::vector<swap::ClearedSwap>& cleared) {
  for (const swap::ClearedSwap& c : cleared) {
    Span span(&tracer, "graph.fvs");
    const auto result = xswap::graph::find_feedback_vertex_set(c.digraph);
    if (result.vertices.empty()) throw std::runtime_error("probe: empty FVS");
  }
}

// Journal up to `limit` components under `dir` and, with `recover`,
// recover every journal: the persist layer's journaling on the
// workload's own components (no timed pass journals; see make_workload).
void probe_persist(Tracer& tracer, ReplayCounts& extra,
                   const std::vector<swap::ClearedSwap>& cleared,
                   std::size_t limit, const fs::path& dir, bool recover) {
  fs::remove_all(dir);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < cleared.size() && i < limit; ++i, ++runs) {
    swap::EngineOptions options;
    options.durable_dir = (dir / std::to_string(i)).string();
    options.durability.policy = persist::FsyncPolicy::kNever;
    swap::SwapEngine engine(cleared[i], options);
    engine.run();
  }
  extra.journal_bytes = tree_bytes(dir) / std::max<std::size_t>(runs, 1);
  extra.journals = 0;
  if (recover) {
    for (const fs::path& component : sorted_subdirs(dir)) {
      for (const fs::path& chain_dir : sorted_subdirs(component)) {
        Span span(&tracer, "persist.recover");
        persist::recover_ledger(chain_dir.string(), chain_dir.filename().string());
        ++extra.journals;
      }
    }
  }
  fs::remove_all(dir);
}

}  // namespace

void tally(Counts& counts, const swap::SwapReport& report, bool audit_ok,
           bool has_crasher, xswap::sim::Time start) {
  ++counts.components;
  if (has_crasher) ++counts.crash_components;
  if (!audit_ok || (!has_crasher && !report.all_triggered)) ++counts.failures;
  xswap::sim::Time last = start;
  for (xswap::sim::Time t : report.settled_at) last = std::max(last, t);
  counts.storage_bytes += report.total_storage_bytes;
  counts.settle_ticks += static_cast<std::size_t>(last - start);
  counts.finish_ticks += static_cast<std::size_t>(report.finished_at);
  counts.sign_ops += report.sign_operations;
  counts.transactions += report.total_transactions;
  counts.failed_transactions += report.failed_transactions;
}

namespace {

// ---------------------------------------------------------------------------
// batch_mixed: one in-memory book, ScenarioBuilder::build() then
// Scenario::run() on the serial executor, then check_all per component.

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(std::uint64_t seed, std::string workdir)
      : book_(make_batch_book(seed, kGroups)), workdir_(std::move(workdir)) {
    crash_ = swap::strategy_from_spec(
        "crash:" + std::to_string(BatchBook::kCrashTick),
        kStart);
    crashers_.insert(book_.crashers.begin(), book_.crashers.end());
  }

  std::size_t lanes() const override { return 1; }

  PassResult run_pass(std::uint64_t engine_seed) override {
    PassResult out;
    const Clock::time_point t0 = Clock::now();
    swap::ScenarioBuilder builder;
    builder.offers(book_.offers).seed(engine_seed);
    for (const std::string& name : book_.crashers) builder.strategy(name, crash_);
    swap::Scenario scenario = builder.build();
    const Clock::time_point t1 = Clock::now();
    out.timing.setup_s = std::chrono::duration<double>(t1 - t0).count();

    // Serial executor: component i starts when component i-1 reports.
    std::vector<Clock::time_point> done;
    done.reserve(scenario.swap_count());
    swap::RunOptions run_options;
    run_options.progress = [&](std::size_t, const swap::SwapReport&) {
      done.push_back(Clock::now());
    };
    const swap::BatchReport batch = scenario.run(run_options);
    std::vector<bool> audit(batch.swaps.size());
    for (std::size_t i = 0; i < batch.swaps.size(); ++i) {
      audit[i] = swap::check_all(scenario.engine(i), batch.swaps[i]).ok();
    }
    out.timing.timed_s = seconds_since(t1);

    Clock::time_point prev = t1;
    for (const Clock::time_point& t : done) {
      out.timing.clear_ms.push_back(ms_between(prev, t));
      out.timing.engine_busy_ms += ms_between(prev, t);
      prev = t;
    }
    out.timing.segment_ms = out.timing.clear_ms;
    out.timing.segment_ms.push_back(out.timing.timed_s * 1e3 - out.timing.engine_busy_ms);
    out.counts.events = book_.offers.size();
    for (std::size_t i = 0; i < batch.swaps.size(); ++i) {
      tally(out.counts, batch.swaps[i], audit[i],
            has_crasher(scenario.cleared(i)), kStart);
    }
    out.counts.failures += batch.unmatched.size();
    return out;
  }

  ReplayResult replay_pass(std::uint64_t engine_seed, Tracer* tracer,
                           std::uint32_t pass) override {
    ReplayResult out;
    const Clock::time_point t0 = Clock::now();
    if (tracer) tracer->set_request({pass, 0, RequestId::kNone});
    std::vector<std::unique_ptr<swap::SwapEngine>> engines;
    std::vector<swap::SwapReport> reports;
    swap::Decomposition decomp;
    {
      Span pass_span(tracer, "pass");
      {
        Span span(tracer, "swap.decompose");
        decomp = swap::decompose_offers(book_.offers);
      }
      for (std::size_t i = 0; i < decomp.swaps.size(); ++i) {
        if (tracer) tracer->set_request({pass, 0, static_cast<std::uint32_t>(i)});
        Span span(tracer, "swap.build");
        swap::EngineOptions options;
        options.seed = engine_seed + i;
        engines.push_back(std::make_unique<swap::SwapEngine>(decomp.swaps[i], options));
        const auto& names = decomp.swaps[i].party_names;
        for (std::size_t v = 0; v < names.size(); ++v) {
          if (crashers_.count(names[v])) {
            engines.back()->set_strategy(static_cast<swap::PartyId>(v), crash_);
          }
        }
      }
      reports.resize(engines.size());
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (tracer) tracer->set_request({pass, 0, static_cast<std::uint32_t>(i)});
        Span span(tracer, "swap.run");
        reports[i] = engines[i]->run();
      }
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (tracer) tracer->set_request({pass, 0, static_cast<std::uint32_t>(i)});
        bool ok = false;
        {
          Span span(tracer, "swap.audit");
          ok = swap::check_all(*engines[i], reports[i]).ok();
        }
        tally(out.counts, reports[i], ok, has_crasher(decomp.swaps[i]),
              kStart);
      }
      if (tracer) tracer->set_request({pass, 0, RequestId::kNone});
      Span span(tracer, "swap.aggregate");
      swap::aggregate_batch(reports, decomp.unmatched, 0, 0.0);
    }
    out.wall_s = seconds_since(t0);
    out.counts.events = book_.offers.size();
    out.counts.failures += decomp.unmatched.size();
    for (std::size_t i = 0; i < engines.size(); ++i) {
      count_replay_engine(out.extra, *engines[i], decomp.swaps[i]);
    }
    // Batch clearing is one full recompute over the whole book.
    out.extra.live_offers_sum = static_cast<double>(book_.offers.size());
    out.extra.live_samples = 1;
    out.extra.full_recomputes = 1;
    if (tracer) {
      stash_cleared_ = decomp.swaps;
      stash_engines_ = std::move(engines);
    }
    return out;
  }

  void probe(Tracer& tracer, ReplayCounts& extra) override {
    tracer.set_request({});
    probe_fvs(tracer, stash_cleared_);
    for (const auto& engine : stash_engines_) probe_integrity(tracer, *engine);
    stash_engines_.clear();
    // The serve layer on this book: stream its offers through
    // IncrementalClearing and clear once.
    serve::IncrementalClearing incremental;
    for (const swap::Offer& offer : book_.offers) {
      const std::string line = serve::event_line(serve::add_event(offer));
      std::optional<serve::OfferEvent> event;
      {
        Span span(&tracer, "serve.parse");
        event = serve::parse_event_line(line);
      }
      Span span(&tracer, "serve.ingest");
      incremental.add(std::move(event->offer));
    }
    {
      Span span(&tracer, "serve.consume");
      incremental.consume();
    }
    probe_persist(tracer, extra, stash_cleared_, 8, fs::path(workdir_) / "probe",
                  /*recover=*/true);
  }

 private:
  static constexpr std::size_t kGroups = 16;  // 112 components, 384 offers

  bool has_crasher(const swap::ClearedSwap& cleared) const {
    for (const std::string& name : cleared.party_names) {
      if (crashers_.count(name)) return true;
    }
    return false;
  }

  BatchBook book_;
  std::string workdir_;
  swap::Strategy crash_;
  std::set<std::string> crashers_;
  std::vector<swap::ClearedSwap> stash_cleared_;
  std::vector<std::unique_ptr<swap::SwapEngine>> stash_engines_;
};

// ---------------------------------------------------------------------------
// serve_bigbook / serve_restart: a ClearingService fed by one closed-loop
// client that parses wire lines and submits them with submit_wait,
// waiting for each clearing point to finish before the next event.

struct ServeConfig {
  StreamShape shape;
  std::size_t lanes = 1;
  std::size_t epochs = 0;  // durable history epochs; 0 = no durability
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, const ServeConfig& config, std::string workdir)
      : config_(config),
        stream_(make_stream(seed, config.shape)),
        workdir_(std::move(workdir)) {
    if (config_.epochs > 0) prepare_history(seed);
  }

  ~ServeWorkload() override {
    std::error_code ec;
    fs::remove_all(history_dir(), ec);
    fs::remove_all(pass_dir(), ec);
  }

  std::size_t lanes() const override { return config_.lanes; }

  PassResult run_pass(std::uint64_t engine_seed) override {
    const Clock::time_point begin = Clock::now();
    if (durable()) copy_history();
    PassResult out;
    std::vector<serve::ComponentReport> reports;  // service thread until wait()

    // The client learns that clearing point k ended from the report that
    // completes the component count the stream's mirror predicted (the
    // service reports a point's components in decomposition order; every
    // clear of the stream has at least one component).
    const std::vector<std::size_t>& expected = stream_.clear_components;
    std::mutex finished_mutex;
    std::condition_variable finished_cv;
    std::size_t finished = 0;  // clearing points fully reported

    const Clock::time_point t0 = Clock::now();
    if (durable()) out.counts.recovered_ledgers = restart();
    serve::ServiceOptions options = service_options(engine_seed);
    options.on_report = [&](const serve::ComponentReport& r) {
      reports.push_back(r);
      if (r.clear_batch < expected.size() && r.index + 1 == expected[r.clear_batch]) {
        {
          const std::lock_guard<std::mutex> lock(finished_mutex);
          finished = r.clear_batch + 1;
        }
        finished_cv.notify_one();
      }
    };
    serve::ClearingService service(std::move(options));
    service.start();
    for (const std::string& line : stream_.setup_lines) {
      service.submit_wait(*serve::parse_event_line(line));
    }
    wait_until(service, [&](const serve::ServiceStats& s) {
      return s.adds_applied + s.events_rejected_invalid >= stream_.setup_lines.size();
    });
    const Clock::time_point t1 = Clock::now();
    out.timing.setup_s = std::chrono::duration<double>(t1 - t0).count();

    std::size_t clears = 0;
    Clock::time_point segment_start = t1;
    for (const std::string& line : stream_.lines) {
      std::optional<serve::OfferEvent> event = serve::parse_event_line(line);
      const bool is_clear = event->kind == serve::EventKind::kClear;
      const Clock::time_point submitted = Clock::now();
      service.submit_wait(std::move(*event));
      if (!is_clear) continue;
      ++clears;
      {
        std::unique_lock<std::mutex> lock(finished_mutex);
        finished_cv.wait(lock, [&] { return finished >= clears; });
      }
      const Clock::time_point cleared = Clock::now();
      out.timing.clear_ms.push_back(ms_between(submitted, cleared));
      out.timing.segment_ms.push_back(ms_between(segment_start, cleared));
      segment_start = cleared;
    }
    out.timing.timed_s = seconds_since(t1);
    const serve::ServiceStats stats = service.wait();

    out.counts.events = stream_.lines.size();
    out.counts.rejected_events = stats.events_rejected_invalid +
                                 stats.events_rejected_full;
    std::vector<std::size_t> per_clear(clears + 1, 0);
    for (const serve::ComponentReport& r : reports) {
      tally(out.counts, r.report.swaps.at(0), r.audit_ok, false,
            kStart);
      out.timing.engine_busy_ms += r.latency_ms;
      if (r.clear_batch < per_clear.size()) ++per_clear[r.clear_batch];
    }
    out.counts.failures += out.counts.rejected_events;
    check_clears(per_clear, stats.clears);
    if (durable()) fs::remove_all(pass_dir());
    out.timing.untimed_s =
        seconds_since(begin) - out.timing.setup_s - out.timing.timed_s;
    return out;
  }

  ReplayResult replay_pass(std::uint64_t engine_seed, Tracer* tracer,
                           std::uint32_t pass) override {
    if (durable()) copy_history();
    ReplayResult out;
    const Clock::time_point t0 = Clock::now();
    if (tracer) tracer->set_request({pass, RequestId::kNone, RequestId::kNone});
    std::size_t clears = 0;
    std::size_t dispatched = 0;
    std::vector<std::size_t> per_clear;
    serve::IncrementalClearing incremental;
    {
      Span pass_span(tracer, "pass");
      if (durable()) recover_history(tracer, out.counts);

      auto apply = [&](const std::string& line) {
        std::optional<serve::OfferEvent> event;
        {
          Span span(tracer, "serve.parse");
          event = serve::parse_event_line(line);
        }
        if (event->kind == serve::EventKind::kClear) return false;
        Span span(tracer, "serve.ingest");
        if (event->kind == serve::EventKind::kAdd) {
          incremental.add(std::move(event->offer));
        } else {
          incremental.expire(event->offer);
        }
        return true;
      };
      for (const std::string& line : stream_.setup_lines) apply(line);

      auto clear = [&]() {
        if (tracer) tracer->set_request({pass, static_cast<std::uint32_t>(clears),
                                         RequestId::kNone});
        if (tracer && stash_books_.size() < kProbeBooks) {
          stash_books_.push_back(incremental.live_offers());
        }
        swap::Decomposition decomp;
        {
          Span span(tracer, "serve.consume");
          decomp = incremental.consume();
        }
        per_clear.push_back(decomp.swaps.size());
        run_clear(decomp, engine_seed + dispatched, clears, tracer, pass, out);
        dispatched += decomp.swaps.size();
        ++clears;
      };
      for (const std::string& line : stream_.lines) {
        if (tracer) tracer->set_request({pass, static_cast<std::uint32_t>(clears),
                                         RequestId::kNone});
        if (!apply(line)) clear();
        out.extra.live_offers_sum += static_cast<double>(incremental.live_offer_count());
        ++out.extra.live_samples;
      }
      clear();  // the shutdown drain
    }
    out.wall_s = seconds_since(t0);
    out.counts.events = stream_.lines.size();
    const serve::IncrementalStats& s = incremental.stats();
    out.extra.full_recomputes = s.full_recomputes;
    out.extra.incremental_updates = s.incremental_updates;
    out.extra.components_reused = s.components_reused;
    out.extra.components_recleared = s.components_recleared;
    check_clears(per_clear, clears);
    if (durable()) fs::remove_all(pass_dir());
    return out;
  }

  void probe(Tracer& tracer, ReplayCounts& extra) override {
    tracer.set_request({});
    probe_fvs(tracer, stash_cleared_);
    for (const auto& engine : stash_engines_) probe_integrity(tracer, *engine);
    stash_engines_.clear();
    for (const std::vector<swap::Offer>& book : stash_books_) {
      Span span(&tracer, "swap.decompose");
      swap::decompose_offers(book);
    }
    stash_books_.clear();
    probe_persist(tracer, extra, stash_cleared_, 8, fs::path(workdir_) / "probe",
                  /*recover=*/!durable());
    stash_cleared_.clear();
  }

 private:
  static constexpr std::size_t kProbeBooks = 16;
  static constexpr std::size_t kProbeEngines = 16;

  bool durable() const { return config_.epochs > 0; }
  fs::path history_dir() const { return fs::path(workdir_) / "history"; }
  fs::path pass_dir() const { return fs::path(workdir_) / "pass"; }
  std::string run_name() const {
    char name[32];
    std::snprintf(name, sizeof(name), "run-%03zu", config_.epochs);
    return name;
  }

  serve::ServiceOptions service_options(std::uint64_t engine_seed) const {
    serve::ServiceOptions options;
    options.engine.seed = engine_seed;
    options.jobs = config_.lanes;
    return options;
  }

  // Poll the service's counters until `done` holds, sleeping between
  // polls so the client neither burns a core nor hammers the stats lock.
  template <typename Pred>
  static void wait_until(const serve::ClearingService& service, Pred done) {
    while (!done(service.stats())) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  // Every clearing point must yield exactly the components the stream's
  // decompose_offers mirror predicted, and the shutdown drain none.
  void check_clears(const std::vector<std::size_t>& per_clear,
                    std::size_t clears) const {
    std::vector<std::size_t> expected = stream_.clear_components;
    expected.push_back(0);
    std::vector<std::size_t> got = per_clear;
    got.resize(std::max(got.size(), clears), 0);
    if (got != expected) {
      throw std::runtime_error("serve: clearing points diverge from the "
                               "stream's decompose_offers mirror");
    }
  }

  // The untimed durable history: `epochs` prior service runs over the
  // same stream in one directory, each claiming the next run-NNN.
  void prepare_history(std::uint64_t seed) {
    fs::remove_all(history_dir());
    journals_ = 0;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      serve::ServiceOptions options = service_options(seed * 1000003 + epoch);
      options.durable_dir = history_dir().string();
      options.durability.policy = persist::FsyncPolicy::kNever;
      options.on_report = [&](const serve::ComponentReport& r) {
        journals_ += distinct_chains(r.cleared);
      };
      serve::ClearingService service(std::move(options));
      service.start();
      for (const std::string& line : stream_.setup_lines) {
        service.submit_wait(*serve::parse_event_line(line));
      }
      for (const std::string& line : stream_.lines) {
        service.submit_wait(*serve::parse_event_line(line));
      }
      service.wait();
    }
  }

  void copy_history() {
    fs::remove_all(pass_dir());
    fs::copy(history_dir(), pass_dir(),
             fs::copy_options::recursive | fs::copy_options::create_hard_links);
    // Commit the copy's metadata before the clock starts, so the pass
    // does not wait behind the file system journal flushing it.
    ::sync();
  }

  // The daemon's restart on this pass's copy of the history: the
  // ClearingService constructor replays and integrity-checks every
  // journal of every prior epoch. Every prepared journal must recover,
  // none with a torn tail. Returns the number recovered.
  std::size_t restart() {
    serve::ServiceOptions options;
    options.durable_dir = pass_dir().string();
    options.durability.policy = persist::FsyncPolicy::kBatch;
    const serve::ServiceStats stats = serve::ClearingService(options).stats();
    if (stats.recovered_ledgers != journals_ || stats.recovery_torn_tails != 0) {
      throw std::runtime_error(
          "serve_restart: recovered " + std::to_string(stats.recovered_ledgers) +
          " ledgers (" + std::to_string(stats.recovery_torn_tails) +
          " torn) of " + std::to_string(journals_) + " prepared");
    }
    return stats.recovered_ledgers;
  }

  // What ClearingService's constructor does with durable_dir: replay and
  // integrity-check every journal of every prior epoch, in sorted order,
  // then claim the next epoch directory.
  void recover_history(Tracer* tracer, Counts& counts) {
    std::size_t torn = 0;
    for (const fs::path& run : sorted_subdirs(pass_dir())) {
      for (const fs::path& component : sorted_subdirs(run)) {
        for (const fs::path& chain_dir : sorted_subdirs(component)) {
          if (persist::segment_files(chain_dir.string()).empty()) continue;
          Span span(tracer, "persist.recover");
          const persist::RecoveredLedger recovered = persist::recover_ledger(
              chain_dir.string(), chain_dir.filename().string());
          ++counts.recovered_ledgers;
          if (recovered.report.torn_tail) ++torn;
        }
      }
    }
    if (counts.recovered_ledgers != journals_ || torn != 0) {
      throw std::runtime_error("serve_restart replay: history does not recover");
    }
    fs::create_directories(pass_dir() / run_name());
  }

  // One clearing point as ClearingService::clear_components runs it:
  // build every engine, run them largest-first (one lane here), then
  // audit and aggregate in decomposition order.
  void run_clear(swap::Decomposition& decomp, std::uint64_t seed,
                 std::size_t point, Tracer* tracer, std::uint32_t pass,
                 ReplayResult& out) {
    const std::size_t count = decomp.swaps.size();
    auto request = [&](std::size_t i) {
      if (tracer) {
        tracer->set_request({pass, static_cast<std::uint32_t>(point),
                             static_cast<std::uint32_t>(i)});
      }
    };
    std::vector<std::unique_ptr<swap::SwapEngine>> engines;
    for (std::size_t i = 0; i < count; ++i) {
      request(i);
      Span span(tracer, "swap.build");
      swap::EngineOptions options;
      options.seed = seed + i;
      engines.push_back(std::make_unique<swap::SwapEngine>(decomp.swaps[i], options));
    }
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const swap::ClearedSwap& sa = decomp.swaps[a];
      const swap::ClearedSwap& sb = decomp.swaps[b];
      if (sa.party_names.size() != sb.party_names.size()) {
        return sa.party_names.size() > sb.party_names.size();
      }
      if (sa.arcs.size() != sb.arcs.size()) return sa.arcs.size() > sb.arcs.size();
      return a < b;
    });
    std::vector<swap::SwapReport> reports(count);
    for (std::size_t i : order) {
      request(i);
      Span span(tracer, "swap.run");
      reports[i] = engines[i]->run();
    }
    for (std::size_t i = 0; i < count; ++i) {
      request(i);
      bool ok = false;
      {
        Span span(tracer, "swap.audit");
        ok = swap::check_all(*engines[i], reports[i]).ok();
      }
      {
        Span span(tracer, "swap.aggregate");
        swap::aggregate_batch({reports[i]}, {}, 0, 0.0);
      }
      tally(out.counts, reports[i], ok, false, kStart);
      count_replay_engine(out.extra, *engines[i], decomp.swaps[i]);
    }
    if (tracer) {
      for (std::size_t i = 0; i < count; ++i) {
        stash_cleared_.push_back(decomp.swaps[i]);
        if (stash_engines_.size() < kProbeEngines) {
          stash_engines_.push_back(std::move(engines[i]));
        }
      }
    }
  }

  ServeConfig config_;
  Stream stream_;
  std::string workdir_;
  std::size_t journals_ = 0;  // journals in the prepared history
  std::vector<swap::ClearedSwap> stash_cleared_;
  std::vector<std::unique_ptr<swap::SwapEngine>> stash_engines_;
  std::vector<std::vector<swap::Offer>> stash_books_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& workload,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (workload == "batch_mixed") {
    return std::make_unique<BatchWorkload>(seed, workdir);
  }
  if (workload == "serve_bigbook") {
    ServeConfig config;
    config.shape = bigbook_shape();
    return std::make_unique<ServeWorkload>(seed, config, workdir);
  }
  if (workload == "serve_restart") {
    // The restart (the set-up) is a ClearingService recovering the
    // durable history; the stream is then served without journaling.
    // Creating ~270 journal directories and segments per pass made pass
    // times on a shared VM disk swing 2x from second to second (build
    // 2.2 ms in one run, 5.4 ms in the next), so journaling cost is
    // measured per layer by the persist probe instead.
    ServeConfig config;
    config.shape = restart_shape();
    config.lanes = 2;
    // Each pass hard-links the whole history afresh, which costs about
    // 0.3 s per epoch of directories; two epochs leave a 30-s run about
    // 30 passes to take the fastest from, three left 20.
    config.epochs = 2;
    return std::make_unique<ServeWorkload>(seed, config, workdir);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
