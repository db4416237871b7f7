// Workload inputs of the benchmark: the batch_mixed offer book and the
// serve event streams. Both are pure functions of (seed, size): the same
// arguments give byte-identical books and wire-format lines, and nothing
// here reads a clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "swap/clearing.hpp"

namespace perfbench {

namespace swap = xswap::swap;

/// The batch_mixed book: three-party rings, cycle(8) components and
/// complete(4) components in a 5:1:1 ratio, offers shuffled together.
/// One component in eight has one party on `crash:kCrashTick`.
struct BatchBook {
  static constexpr std::uint64_t kCrashTick = 6;

  std::vector<swap::Offer> offers;
  std::vector<std::string> crashers;  // parties that halt at start + kCrashTick
  std::size_t components = 0;
};

/// `groups` blocks of seven components each (5 rings, 1 cycle8, 1
/// complete4).
BatchBook make_batch_book(std::uint64_t seed, std::size_t groups);

/// Shape of a grouped serve stream (the tools/gen_stream.py universe:
/// groups of 4 parties, 85% intra-group offers, forward-only bridges
/// between neighbouring groups, 3 chains).
///
/// The first `ring_groups` groups carry planted rings: every interval
/// between two clears completes `rings_per_clear` rings of 2, 3, ...,
/// `max_ring` parties in turn, each in its own ring group. The other
/// groups carry the background book: offers whose lower-numbered member
/// pays the higher one, and bridges to the next group. The background
/// is acyclic, so it never matches: it only lives, loads ingest, and
/// expires. Every seed therefore clears the same number and sizes of
/// swaps; the seed picks identities, members, amounts and event order.
struct StreamShape {
  std::size_t groups = 0;
  /// A background offer expires this many background adds after its own
  /// admission; the live book stays near `ttl` offers.
  std::size_t ttl = 0;
  std::size_t ring_groups = 0;
  std::size_t rings_per_clear = 0;
  std::size_t max_ring = 2;  // 2..4
  std::size_t clears = 0;            // clearing points in the timed part
  std::size_t events_per_clear = 0;  // add/expire events before each clear
};

/// One serve workload's input, mirrored through decompose_offers so
/// every expire names a live offer and every clear's component count is
/// known in advance.
struct Stream {
  std::vector<std::string> setup_lines;  // initial book (adds only)
  std::vector<std::string> lines;        // timed events; ends with `clear`
  /// Component swaps each `clear` of `lines` yields, in order.
  std::vector<std::size_t> clear_components;
  /// Live offers right after each `clear` (the mirror's book size).
  std::vector<std::size_t> live_after_clear;
  std::size_t adds = 0;
  std::size_t expires = 0;
};

/// serve_bigbook: 10^4 parties (2500 groups of 4), about 200 live offers,
/// one two-party swap per clear so that ingest, not the engines, dominates.
StreamShape bigbook_shape();
/// serve_restart: 48 parties (12 groups of 4), a small busy book, two
/// rings per clear so that both executor lanes run an engine.
StreamShape restart_shape();

Stream make_stream(std::uint64_t seed, const StreamShape& shape);

}  // namespace perfbench
