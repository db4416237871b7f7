// The benchmark's own test of its stream generator: each serve workload
// stream replays through IncrementalClearing with zero rejected events,
// every clear yields the components the generator's mirror predicted,
// and the live book stays flat across the run. Also pins that the
// generator is a pure function of its seed.
//
//   ctest --test-dir .bench_build/perfbench
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/events.hpp"
#include "serve/incremental.hpp"
#include "stream.hpp"

namespace {

using namespace perfbench;
namespace serve = xswap::serve;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void check_stream(const char* name, std::uint64_t seed, const StreamShape& shape) {
  const Stream stream = make_stream(seed, shape);
  const std::string tag = std::string(name) + " seed " + std::to_string(seed);
  expect(stream.clear_components.size() == shape.clears, tag + ": clear count");
  expect(make_stream(seed, shape).lines == stream.lines, tag + ": not a pure function");

  serve::IncrementalClearing incremental;
  std::size_t rejected = 0;
  std::size_t clear = 0;
  std::vector<double> live_at_clear;
  auto apply = [&](const std::string& line) {
    const std::optional<serve::OfferEvent> event = serve::parse_event_line(line);
    if (!event) {
      ++rejected;
      return;
    }
    try {
      switch (event->kind) {
        case serve::EventKind::kAdd: incremental.add(event->offer); break;
        case serve::EventKind::kExpire: incremental.expire(event->offer); break;
        case serve::EventKind::kClear: {
          const xswap::swap::Decomposition d = incremental.consume();
          expect(d.swaps.size() == stream.clear_components.at(clear),
                 tag + ": clear " + std::to_string(clear) + " component count");
          expect(incremental.live_offer_count() == stream.live_after_clear.at(clear),
                 tag + ": clear " + std::to_string(clear) + " live book");
          live_at_clear.push_back(static_cast<double>(incremental.live_offer_count()));
          ++clear;
          break;
        }
      }
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  };
  for (const std::string& line : stream.setup_lines) apply(line);
  for (const std::string& line : stream.lines) apply(line);
  expect(rejected == 0, tag + ": " + std::to_string(rejected) + " rejected events");
  expect(stream.lines.back() == "clear", tag + ": stream must end with a clear");

  // Flat live book: the first and last quarter of the clearing points
  // agree within 10% of the initial book, and no point strays from the
  // mean by more than half of it.
  const std::size_t q = live_at_clear.size() / 4;
  const std::vector<double> head(live_at_clear.begin(), live_at_clear.begin() + q);
  const std::vector<double> tail(live_at_clear.end() - q, live_at_clear.end());
  const double initial = static_cast<double>(shape.ttl);
  expect(std::abs(mean(head) - mean(tail)) <= 0.10 * initial,
         tag + ": live book drifts (" + std::to_string(mean(head)) + " -> " +
             std::to_string(mean(tail)) + ")");
  for (double live : live_at_clear) {
    expect(std::abs(live - mean(live_at_clear)) <= 0.5 * mean(live_at_clear),
           tag + ": live book strays to " + std::to_string(live));
  }
  std::printf("%s: %zu setup + %zu events, %zu adds, %zu expires, "
              "live book %.1f -> %.1f\n",
              tag.c_str(), stream.setup_lines.size(), stream.lines.size(),
              stream.adds, stream.expires, mean(head), mean(tail));
}

}  // namespace

int main() {
  check_stream("serve_bigbook", 1, bigbook_shape());
  StreamShape restart = restart_shape();
  for (std::uint64_t seed : {1u, 2u, 3u}) check_stream("serve_restart", seed, restart);
  // A longer run must not make the book grow: 4x the clearing points.
  restart.clears = 400;
  check_stream("serve_restart x4", 7, restart);

  const BatchBook a = make_batch_book(5, 4);
  expect(a.offers == make_batch_book(5, 4).offers, "batch book: not a pure function");
  expect(a.components == 28 && a.crashers.size() == 3, "batch book: shape");

  std::printf(failures == 0 ? "perfbench_stream_test: OK\n"
                            : "perfbench_stream_test: FAILED\n");
  return failures == 0 ? 0 : 1;
}
