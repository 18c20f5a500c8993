#include "runtime/context_cache.hpp"

#include <algorithm>
#include <utility>

namespace dsra::runtime {

ContextCache::ContextCache(soc::ReconfigManager& manager, soc::Bus& bus, FetchFn fetch,
                           ContextCacheConfig config, KernelFn kernel_of,
                           DeltaBytesFn delta_bytes_of)
    : manager_(manager), bus_(bus), fetch_(std::move(fetch)),
      kernel_of_(std::move(kernel_of)), delta_bytes_of_(std::move(delta_bytes_of)),
      config_(config) {
  // Pre-existing contexts (e.g. a manager seeded by hand) count as resident
  // in arbitrary recency order.
  for (const auto& name : manager_.names()) {
    lru_.push_back(name);
    // Seeded contexts enter the conservation ledger here — they can be
    // evicted later, and an insert the ledger never saw would make
    // byte_balance_ok() report phantom drift.
    stats_.bytes_inserted += manager_.bytes(name);
  }
  manager_.set_eviction_hook(
      [this](const std::string& name, std::size_t freed) { on_eviction(name, freed); });
}

ContextCache::~ContextCache() { manager_.set_eviction_hook(nullptr); }

std::size_t ContextCache::cached_bytes() const {
  std::size_t bypass_bytes = 0;
  for (const auto& [name, bytes] : bypass_) bypass_bytes += bytes;
  return manager_.stored_bytes() - bypass_bytes;
}

void ContextCache::evict_down_to(std::size_t budget) {
  // Evict least-recently-used contexts until the LRU-governed bytes fit
  // @p budget, but never the context that is active on the fabric: the
  // hardware is running it, so it must stay backed by a stored stream.
  auto it = lru_.begin();
  while (it != lru_.end() && cached_bytes() > budget) {
    if (manager_.active() && *manager_.active() == *it) {
      ++it;  // pinned
      continue;
    }
    const std::string victim = *it;
    ++it;  // advance first: the eviction hook removes victim from lru_
    manager_.evict(victim);
  }
}

void ContextCache::trim() {
  drop_stale_bypass();
  if (config_.capacity_bytes > 0) evict_down_to(config_.capacity_bytes);
}

void ContextCache::drop_stale_bypass() {
  for (auto it = bypass_.begin(); it != bypass_.end();) {
    const std::string& name = it->first;
    if (manager_.active() && *manager_.active() == name) {
      ++it;  // still running on the fabric: pinned
    } else {
      const std::string victim = name;
      ++it;  // advance first: the eviction hook erases the entry
      manager_.evict(victim);
    }
  }
}

std::uint64_t ContextCache::touch(const std::string& name) {
  if (manager_.has(name)) {
    ++stats_.hits;
    // Bypass-stored contexts live outside the LRU set; refreshing their
    // recency would smuggle them under the capacity bound.
    if ((lru_.empty() || lru_.back() != name) && bypass_.count(name) == 0) {
      const auto at = std::find(lru_.begin(), lru_.end(), name);
      if (at == lru_.end())
        lru_.push_back(name);
      else
        lru_.splice(lru_.end(), lru_, at);
    }
    return 0;
  }

  ++stats_.misses;
  const std::vector<std::uint8_t>& bits = fetch_(name);
  drop_stale_bypass();

  const bool oversize = config_.capacity_bytes > 0 && bits.size() > config_.capacity_bytes;
  if (!oversize && config_.capacity_bytes > 0) {
    const std::size_t budget =
        config_.capacity_bytes > bits.size() ? config_.capacity_bytes - bits.size() : 0;
    evict_down_to(budget);
  }

  // Delta-aware fetch: the silicon still holds the resident
  // configuration, so when the backing store's delta table has a delta
  // from it to the target, the bus only has to move the encoded frame
  // delta — the controller replays it on the resident programming to
  // rebuild the full context locally. Without a delta (e.g. the DCT <-> ME
  // pair, which spans two grids) the full stream moves. The full stream is
  // still what gets stored (capacity accounting and full reloads
  // unchanged).
  std::size_t transfer_bytes = bits.size();
  if (config_.delta_fetch && delta_bytes_of_ && manager_.resident() &&
      *manager_.resident() != name) {
    const std::optional<std::size_t> delta_bytes = delta_bytes_of_(*manager_.resident(), name);
    if (delta_bytes && *delta_bytes < bits.size()) {
      transfer_bytes = *delta_bytes;
      ++stats_.delta_fetches;
      stats_.bytes_saved += bits.size() - *delta_bytes;
    }
  }

  const std::uint64_t cycles = bus_.transfer(transfer_bytes * 8);
  stats_.bytes_fetched += transfer_bytes;
  stats_.bytes_inserted += bits.size();  // the store always holds the full stream
  stats_.fetch_cycles += cycles;
  manager_.store(name, bits, kernel_of_ ? kernel_of_(name) : "dct");
  if (oversize) {
    // Larger than the whole capacity: the working context must exist, but
    // it bypasses the LRU set (instead of emptying it) and is dropped as
    // soon as the fabric switches away. The stat makes the bound breach
    // explicit instead of silent.
    ++stats_.oversize_fetches;
    stats_.bytes_bypassed += bits.size();
    bypass_.emplace(name, bits.size());
  } else {
    lru_.push_back(name);
  }
  return cycles;
}

bool ContextCache::release(const std::string& name) {
  const bool stored = manager_.has(name);
  // Evict through the manager so the eviction hook does the ledger
  // accounting (bytes_evicted, recency/bypass cleanup) exactly like any
  // other eviction — a parallel bookkeeping path here would be a second
  // place for the byte ledger to drift. The active-context pin does not
  // apply: the caller is cancelling the work that kept it active.
  if (stored) manager_.evict(name);
  // Defensive cleanup for a context the manager never stored (or that
  // was evicted before the hook was installed): no recency state may
  // linger once the stream is gone.
  lru_.remove(name);
  bypass_.erase(name);
  return stored;
}

std::vector<std::string> ContextCache::lru_order() const {
  return {lru_.begin(), lru_.end()};
}

std::size_t ContextCache::bypass_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, bytes] : bypass_) total += bytes;
  return total;
}

bool ContextCache::byte_balance_ok() const {
  return stats_.bytes_inserted ==
         stats_.bytes_evicted + resident_bytes() + bypass_bytes();
}

void ContextCache::on_eviction(const std::string& name, std::size_t freed_bytes) {
  ++stats_.evictions;
  stats_.bytes_evicted += freed_bytes;
  lru_.remove(name);
  bypass_.erase(name);
}

}  // namespace dsra::runtime
