#include "stream.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>

#include "chain/asset.hpp"
#include "serve/events.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using xswap::chain::Asset;
using xswap::util::Rng;

// Fixed-width names and amounts keep byte counts (chain storage, journal
// sizes) independent of the seed: only identities and order change.
std::string padded(const char* prefix, std::size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06zu", prefix, n);
  return buf;
}

constexpr const char* kBatchChains[] = {"btc", "eth", "sol", "ada"};
constexpr std::size_t kBatchChainCount = 4;
constexpr const char* kStreamChains[] = {"xchain", "ychain", "zchain"};
constexpr std::size_t kStreamChainCount = 3;
constexpr std::size_t kGroupSize = 4;
constexpr std::uint64_t kIntraPercent = 85;

}  // namespace

BatchBook make_batch_book(std::uint64_t seed, std::size_t groups) {
  Rng rng(seed);
  // Component kinds per group: 5 rings, 1 cycle8, 1 complete4.
  constexpr std::size_t kKinds[] = {3, 3, 3, 3, 3, 8, 4};
  std::size_t parties = 0;
  for (std::size_t size : kKinds) parties += size;
  parties *= groups;

  // A seeded permutation of the party numbers: names differ per seed,
  // their lengths never do.
  std::vector<std::size_t> ids(parties);
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);

  BatchBook book;
  std::size_t next_party = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t size : kKinds) {
      std::vector<std::string> names;
      for (std::size_t i = 0; i < size; ++i) {
        names.push_back(padded("P", ids[next_party++]));
      }
      // complete(4) for the 4-party kind, a directed cycle otherwise.
      std::vector<std::pair<std::size_t, std::size_t>> arcs;
      if (size == 4) {
        for (std::size_t u = 0; u < size; ++u) {
          for (std::size_t v = 0; v < size; ++v) {
            if (u != v) arcs.emplace_back(u, v);
          }
        }
      } else {
        for (std::size_t u = 0; u < size; ++u) arcs.emplace_back(u, (u + 1) % size);
      }
      const std::size_t chain_offset = rng.next_below(kBatchChainCount);
      for (std::size_t a = 0; a < arcs.size(); ++a) {
        const char* chain = kBatchChains[(a + chain_offset) % kBatchChainCount];
        book.offers.push_back(swap::Offer{
            names[arcs[a].first], names[arcs[a].second], chain,
            Asset::coins(std::string("T") + chain, rng.next_range(100, 999))});
      }
      if (book.components % 8 == 7) {
        book.crashers.push_back(names[rng.next_below(size)]);
      }
      ++book.components;
    }
  }
  rng.shuffle(book.offers);
  return book;
}

StreamShape bigbook_shape() {
  StreamShape shape;
  shape.groups = 2500;  // 10^4 parties
  shape.ttl = 200;
  shape.ring_groups = 100;
  shape.rings_per_clear = 1;
  shape.clears = 100;
  shape.events_per_clear = 5;
  return shape;
}

StreamShape restart_shape() {
  StreamShape shape;
  shape.groups = 12;  // 48 parties
  shape.ttl = 16;
  shape.ring_groups = 8;
  shape.rings_per_clear = 2;
  shape.max_ring = 4;
  shape.clears = 100;
  shape.events_per_clear = 10;
  return shape;
}

Stream make_stream(std::uint64_t seed, const StreamShape& shape) {
  if (shape.ttl < 1 || shape.clears < 1 || shape.rings_per_clear < 1 ||
      shape.max_ring < 2 || shape.max_ring > kGroupSize ||
      shape.rings_per_clear > shape.ring_groups ||
      shape.ring_groups + 2 > shape.groups || shape.groups > 10000) {
    throw std::invalid_argument("make_stream: degenerate shape");
  }
  Rng rng(seed);

  struct Live {
    swap::Offer offer;
    std::string key;
    std::uint64_t id;
  };
  std::vector<Live> live;  // admission order, as IncrementalClearing keeps it
  std::set<std::string> live_keys;
  std::map<std::uint64_t, std::size_t> expiry_of;  // live id -> due count
  // (due background-add count, id), earliest first; stale entries skipped.
  std::priority_queue<std::pair<std::size_t, std::uint64_t>,
                      std::vector<std::pair<std::size_t, std::uint64_t>>,
                      std::greater<>>
      due;
  std::uint64_t next_id = 0;
  std::size_t background_adds = 0;

  auto party = [&](std::size_t group, std::size_t member) {
    char name[32];
    std::snprintf(name, sizeof(name), "G%04zuP%zu", group, member);
    return std::string(name);
  };
  auto admit = [&](swap::Offer offer, std::string key) {
    const std::uint64_t id = next_id++;
    live_keys.insert(key);
    live.push_back(Live{offer, std::move(key), id});
    return id;
  };
  auto remove_live = [&](std::uint64_t id) {
    const auto it = std::find_if(live.begin(), live.end(),
                                 [&](const Live& l) { return l.id == id; });
    live_keys.erase(it->key);
    expiry_of.erase(id);
    live.erase(it);
  };
  // A background offer: (group, member) strictly increases along every
  // arc, so the background never closes a cycle.
  const std::size_t first_background = shape.ring_groups;
  auto background_add = [&](std::size_t expiry) {
    for (;;) {
      const std::size_t group =
          first_background + rng.next_below(shape.groups - first_background);
      swap::Offer o;
      if (rng.next_chance(kIntraPercent, 100) || group + 1 == shape.groups) {
        const std::size_t a = rng.next_below(kGroupSize - 1);
        const std::size_t b = a + 1 + rng.next_below(kGroupSize - 1 - a);
        o.from = party(group, a);
        o.to = party(group, b);
      } else {
        o.from = party(group, rng.next_below(kGroupSize));
        o.to = party(group + 1, rng.next_below(kGroupSize));
      }
      o.chain = kStreamChains[rng.next_below(kStreamChainCount)];
      o.asset = Asset::coins("TOK", 1 + rng.next_below(4));
      std::string key = swap::offer_key(o);
      if (live_keys.count(key)) continue;  // duplicate of a live offer: redraw
      const std::uint64_t id = admit(o, std::move(key));
      expiry_of[id] = expiry;
      due.emplace(expiry, id);
      ++background_adds;
      return xswap::serve::event_line(xswap::serve::add_event(o));
    }
  };
  // Planted ring number r: 2, 3, ..., max_ring parties in turn, in
  // ring group r mod ring_groups, seeded members and orientation. Arc j
  // rides chain j mod 3, so every ring of a size touches as many chains.
  auto ring_offers = [&](std::size_t r) {
    const std::size_t size = 2 + r % (shape.max_ring - 1);
    std::vector<std::size_t> members(kGroupSize);
    std::iota(members.begin(), members.end(), 0);
    rng.shuffle(members);
    std::vector<swap::Offer> ring;
    for (std::size_t j = 0; j < size; ++j) {
      const std::size_t group = r % shape.ring_groups;
      ring.push_back(swap::Offer{party(group, members[j]),
                                 party(group, members[(j + 1) % size]),
                                 kStreamChains[j % kStreamChainCount],
                                 Asset::coins("TOK", 1 + rng.next_below(4))});
    }
    return ring;
  };

  Stream out;
  // The initial book: expiries spread evenly over the first `ttl`
  // background adds, so the live book is stationary from the start.
  for (std::size_t i = 0; i < shape.ttl; ++i) {
    out.setup_lines.push_back(background_add(shape.ttl + i + 1));
  }

  std::size_t ring = 0;
  for (std::size_t c = 0; c < shape.clears; ++c) {
    // This interval's events: the planted rings' offers, then background
    // events up to events_per_clear, in seeded order.
    std::vector<std::optional<swap::Offer>> slots;
    for (std::size_t k = 0; k < shape.rings_per_clear; ++k) {
      for (swap::Offer& o : ring_offers(ring++)) slots.emplace_back(std::move(o));
    }
    if (slots.size() > shape.events_per_clear) {
      throw std::invalid_argument("make_stream: rings overflow the interval");
    }
    slots.resize(shape.events_per_clear);
    rng.shuffle(slots);
    for (std::optional<swap::Offer>& slot : slots) {
      if (slot) {
        // Ring offers carry a TTL too; the interval's clear always
        // consumes them first, so their expiry never fires.
        std::string key = swap::offer_key(*slot);
        const std::uint64_t id = admit(*slot, std::move(key));
        expiry_of[id] = background_adds + shape.ttl;
        due.emplace(background_adds + shape.ttl, id);
        out.lines.push_back(xswap::serve::event_line(xswap::serve::add_event(*slot)));
        ++out.adds;
        continue;
      }
      // Drop schedule entries of offers that are no longer live.
      while (!due.empty() && expiry_of.count(due.top().second) == 0) due.pop();
      if (!due.empty() && due.top().first <= background_adds) {
        const std::uint64_t id = due.top().second;
        due.pop();
        const auto it = std::find_if(live.begin(), live.end(),
                                     [&](const Live& l) { return l.id == id; });
        out.lines.push_back(xswap::serve::event_line(
            xswap::serve::expire_event(it->offer)));
        remove_live(id);
        ++out.expires;
      } else {
        out.lines.push_back(background_add(background_adds + shape.ttl));
        ++out.adds;
      }
    }
    // Mirror the clearing point: every offer outside `unmatched` sits in
    // a component swap and is consumed.
    std::vector<swap::Offer> book;
    book.reserve(live.size());
    for (const Live& l : live) book.push_back(l.offer);
    const swap::Decomposition decomp = swap::decompose_offers(book);
    std::set<std::string> unmatched;
    for (const swap::Offer& o : decomp.unmatched) unmatched.insert(swap::offer_key(o));
    std::vector<std::uint64_t> consumed;
    for (const Live& l : live) {
      if (unmatched.count(l.key) == 0) consumed.push_back(l.id);
    }
    std::size_t arcs = 0;
    for (const swap::ClearedSwap& s : decomp.swaps) arcs += s.arcs.size();
    if (arcs != consumed.size() || decomp.swaps.size() != shape.rings_per_clear) {
      throw std::logic_error("make_stream: the clear does not match the planted rings");
    }
    for (std::uint64_t id : consumed) remove_live(id);
    out.lines.push_back(xswap::serve::event_line(xswap::serve::clear_event()));
    out.clear_components.push_back(decomp.swaps.size());
    out.live_after_clear.push_back(live.size());
  }
  return out;
}

}  // namespace perfbench
