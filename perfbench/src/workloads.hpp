// The three benchmark workloads. Each pass goes through the library's
// public API the way `xswap batch` (ScenarioBuilder -> Scenario::run ->
// check_all) and `xswap serve` (ClearingService fed by
// parse_event_line + submit_wait) do. The same workloads can also be
// replayed by calling each layer's public functions directly, in the
// order the scenario and the service call them, with spans around every
// call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream.hpp"
#include "swap/engine.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counts of one pass. They depend only on the workload's inputs,
/// never on the engine seed or the clock, so every pass of a run (and
/// every run with the same seed) must produce identical counts.
struct Counts {
  std::size_t events = 0;      // stream events (serve) or offers (batch)
  std::size_t components = 0;  // component swaps reported and audited
  std::size_t crash_components = 0;
  std::size_t failures = 0;    // see tally()
  std::size_t rejected_events = 0;
  std::size_t storage_bytes = 0;  // Σ SwapReport::total_storage_bytes
  std::size_t settle_ticks = 0;   // Σ (last settlement - start)
  std::size_t finish_ticks = 0;   // Σ SwapReport::finished_at
  std::size_t sign_ops = 0;
  std::size_t transactions = 0;
  std::size_t failed_transactions = 0;
  std::size_t recovered_ledgers = 0;  // serve_restart: journals replayed

  bool operator==(const Counts&) const = default;
};

/// Fold one audited component into `counts`. A component fails when its
/// audit failed, or when every party in it was honest and it still did
/// not fully trigger; refunds in a crash component are its designed
/// outcome.
void tally(Counts& counts, const xswap::swap::SwapReport& report,
           bool audit_ok, bool has_crasher, xswap::sim::Time start);

/// Wall-clock side of one pass of the real path.
struct PassTiming {
  double setup_s = 0.0;
  double timed_s = 0.0;           // the pass after set-up
  std::vector<double> clear_ms;   // one per clearing point (batch: component)
  /// The timed part cut into the same consecutive segments in every pass
  /// (serve: one per clearing point, its events included; batch: one per
  /// component, then the audits). They add up to timed_s.
  std::vector<double> segment_ms;
  double engine_busy_ms = 0.0;    // Σ per-component engine latency
  double untimed_s = 0.0;         // the rest of the pass (copies, teardown)
};

struct PassResult {
  Counts counts;
  PassTiming timing;
};

/// Extra counts only the replay can see (it holds every engine).
struct ReplayCounts {
  std::size_t blocks = 0;         // sealed blocks over every ledger
  std::size_t leaders = 0;        // Σ leaders of cleared components
  std::size_t journal_bytes = 0;  // persist probe: bytes per component
  std::size_t journals = 0;       // persist probe: journals recovered
  double live_offers_sum = 0.0;   // Σ live-book size after each event
  std::size_t live_samples = 0;
  std::size_t full_recomputes = 0;
  std::size_t incremental_updates = 0;
  std::size_t components_reused = 0;
  std::size_t components_recleared = 0;

  bool operator==(const ReplayCounts&) const = default;
};

struct ReplayResult {
  Counts counts;
  ReplayCounts extra;
  double wall_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t lanes() const = 0;
  /// One pass of the real path with a fresh engine seed.
  virtual PassResult run_pass(std::uint64_t engine_seed) = 0;
  /// One pass replayed layer by layer; `tracer` may be null (untraced).
  virtual ReplayResult replay_pass(std::uint64_t engine_seed, Tracer* tracer,
                                   std::uint32_t pass) = 0;
  /// Calls into the layers this workload bypasses or only reaches from
  /// inside another layer, on the workload's own inputs; recorded as
  /// root spans outside any pass. Fills the replay-only counts it can.
  virtual void probe(Tracer& tracer, ReplayCounts& extra) = 0;
};

/// `workload` is batch_mixed, serve_bigbook or serve_restart; `workdir`
/// is a scratch directory the workload may fill (serve_restart keeps
/// its durable history there). Throws std::invalid_argument on an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& workload,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
