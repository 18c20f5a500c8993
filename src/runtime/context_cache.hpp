// Bounded bitstream context cache.
//
// A fabric's configuration store is small on-chip memory; the full library
// of compiled bitstreams lives behind the SoC bus in main memory. This
// cache keeps the most recently used contexts resident in the fabric's
// ReconfigManager, charges bus cycles to fetch a missing stream, and
// evicts least-recently-used contexts to stay under a byte capacity. The
// multi-stream scheduler's config-affinity batching exists precisely to
// keep this cache (and the active configuration) hot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "soc/bus.hpp"
#include "soc/reconfig.hpp"

namespace dsra::runtime {

struct ContextCacheConfig {
  std::size_t capacity_bytes = 0;  ///< 0 = unbounded
  /// Delta-aware fetch: on a miss where the backing store's delta table
  /// (the kernel library's) holds a delta from the fabric's resident
  /// configuration to the target, only the encoded delta bytes cross the
  /// bus — the controller rebuilds the full context locally from the
  /// programming the silicon still holds. Without a delta the full stream
  /// moves. The stored context is still the full stream, so capacity
  /// accounting and later full reloads are unchanged; with this enabled,
  /// bytes_fetched counts actual bus bytes and no longer balances against
  /// bytes_evicted.
  bool delta_fetch = false;
};

struct ContextCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_fetched = 0;
  /// Full-stream bytes entered into the store: every miss-path store plus
  /// contexts pre-seeded in the manager at cache construction. Unlike
  /// bytes_fetched this is bus-independent (a delta fetch still inserts
  /// the full stream), so conservation holds at any instant:
  ///   bytes_inserted == bytes_evicted + resident LRU bytes + bypass bytes
  /// — the self-check byte_balance_ok() asserts.
  std::uint64_t bytes_inserted = 0;
  std::uint64_t bytes_evicted = 0;
  std::uint64_t fetch_cycles = 0;       ///< bus cycles spent on misses
  std::uint64_t oversize_fetches = 0;   ///< fetches larger than the whole capacity
  std::uint64_t bytes_bypassed = 0;     ///< bytes stored outside the LRU bound
  std::uint64_t delta_fetches = 0;      ///< misses served by a delta-only bus fetch
  std::uint64_t bytes_saved = 0;        ///< full-stream bytes the delta fetches avoided

  ContextCacheStats& operator+=(const ContextCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    bytes_fetched += o.bytes_fetched;
    bytes_inserted += o.bytes_inserted;
    bytes_evicted += o.bytes_evicted;
    fetch_cycles += o.fetch_cycles;
    oversize_fetches += o.oversize_fetches;
    bytes_bypassed += o.bytes_bypassed;
    delta_fetches += o.delta_fetches;
    bytes_saved += o.bytes_saved;
    return *this;
  }
};

class ContextCache {
 public:
  /// Resolves a bitstream by name from the backing store (the compiled
  /// library); the returned reference only needs to live for the call.
  using FetchFn = std::function<const std::vector<std::uint8_t>&(const std::string&)>;

  /// Maps a bitstream name to the kernel it configures ("dct", "me", ...)
  /// so fetched contexts are stored with the right per-kernel charging tag.
  using KernelFn = std::function<std::string(const std::string&)>;

  /// Precomputed encoded-delta byte size of base -> target from the
  /// backing store's delta table (nullopt when it has no delta for the
  /// pair) — the only source the delta-aware fetch reads.
  using DeltaBytesFn =
      std::function<std::optional<std::size_t>(const std::string& base,
                                               const std::string& target)>;

  /// Installs itself as @p manager's eviction hook so external evictions
  /// keep the recency list consistent. A null @p kernel_of tags every
  /// context "dct" (the historical default).
  ContextCache(soc::ReconfigManager& manager, soc::Bus& bus, FetchFn fetch,
               ContextCacheConfig config = {}, KernelFn kernel_of = nullptr,
               DeltaBytesFn delta_bytes_of = nullptr);
  ~ContextCache();

  ContextCache(const ContextCache&) = delete;
  ContextCache& operator=(const ContextCache&) = delete;

  /// Make @p name resident in the manager's store, evicting LRU contexts
  /// as needed. Two invariants the eviction loop upholds:
  ///
  ///  * The context that is *active* on the fabric is pinned: it is never
  ///    evicted to make room, because the fabric is running it — evicting
  ///    it would leave the hardware on a configuration the manager no
  ///    longer stores (and a later re-activation would be charged
  ///    nothing).
  ///  * A stream larger than the whole capacity still loads — the working
  ///    context must exist somewhere — but it is *bypass-stored*: counted
  ///    in oversize_fetches/bytes_bypassed, kept outside the LRU set so
  ///    it does not empty the cache, and dropped again as soon as the
  ///    fabric has moved on to another configuration.
  ///
  /// Returns the bus cycles charged for the fetch; 0 on a hit.
  std::uint64_t touch(const std::string& name);

  /// Shed-path unpin: fully release @p name when the stream that needed
  /// it was rejected or degraded mid-flight. Unlike eviction, release
  /// ignores the active-context pin (the scheduler is cancelling the work
  /// that kept it active), so the bytes actually leave the ledger instead
  /// of staying resident forever under a pin nobody will clear.
  /// byte_balance_ok() holds across the call; releasing a context the
  /// cache never saw is a no-op. Returns true when a stored context was
  /// evicted.
  bool release(const std::string& name);

  /// Re-establish the capacity bound after the fabric switched contexts:
  /// drops bypass-stored contexts the fabric no longer runs and evicts
  /// LRU contexts (the now-active one stays pinned) until the cached
  /// bytes fit again. Fabric::prepare calls this after every activation,
  /// so the bound only floats while a load is in flight.
  void trim();

  [[nodiscard]] bool resident(const std::string& name) const { return manager_.has(name); }
  [[nodiscard]] const ContextCacheStats& stats() const { return stats_; }
  [[nodiscard]] const ContextCacheConfig& config() const { return config_; }

  /// Bytes currently resident under the LRU bound (bypass-stored oversize
  /// contexts excluded).
  [[nodiscard]] std::size_t resident_bytes() const { return cached_bytes(); }

  /// Bytes currently bypass-stored outside the LRU bound.
  [[nodiscard]] std::size_t bypass_bytes() const;

  /// Byte-conservation self-check: every byte ever inserted is either
  /// still resident (LRU or bypass) or was evicted —
  ///   bytes_inserted == bytes_evicted + resident_bytes() + bypass_bytes().
  /// A false return means a counter drifted (a store/evict path missed
  /// its accounting); tests assert this across the delta-fetch and
  /// oversize-bypass paths.
  [[nodiscard]] bool byte_balance_ok() const;

  /// Resident contexts, least-recently-used first.
  [[nodiscard]] std::vector<std::string> lru_order() const;

 private:
  void on_eviction(const std::string& name, std::size_t freed_bytes);

  /// Bytes of resident context governed by the LRU bound (bypass-stored
  /// oversize contexts are excluded — they are accounted separately).
  [[nodiscard]] std::size_t cached_bytes() const;

  /// Evict LRU contexts, skipping the active one, until cached_bytes()
  /// fits @p budget (or only the pinned context remains).
  void evict_down_to(std::size_t budget);

  /// Drop bypass-stored contexts the fabric is no longer running.
  void drop_stale_bypass();

  soc::ReconfigManager& manager_;
  soc::Bus& bus_;
  FetchFn fetch_;
  KernelFn kernel_of_;
  DeltaBytesFn delta_bytes_of_;
  ContextCacheConfig config_;
  std::list<std::string> lru_;  ///< front = LRU, back = MRU
  std::map<std::string, std::size_t> bypass_;  ///< oversize residents, name -> bytes
  ContextCacheStats stats_;
};

}  // namespace dsra::runtime
