#include "runtime/context_cache.hpp"

#include <algorithm>
#include <utility>

namespace dsra::runtime {

soc::PartialReloadCost delta_reload_cost(const ConfigDelta& delta) {
  const std::size_t bytes = encode_config_delta(delta).size();
  return {static_cast<std::uint64_t>(bytes) * 8,
          static_cast<std::uint64_t>(delta.frame_count()),
          static_cast<std::uint64_t>(bytes)};
}

ContextCache::ContextCache(soc::ReconfigManager& manager, soc::Bus& bus, FetchFn fetch,
                           ContextCacheConfig config, KernelFn kernel_of, ImageFn image_of,
                           DeltaBytesFn delta_bytes_of)
    : manager_(manager), bus_(bus), fetch_(std::move(fetch)),
      kernel_of_(std::move(kernel_of)), image_of_(std::move(image_of)),
      delta_bytes_of_(std::move(delta_bytes_of)), config_(config) {
  // Pre-existing contexts (e.g. a manager seeded by hand) count as resident
  // in arbitrary recency order.
  for (const auto& name : manager_.names()) {
    lru_.push_back(name);
    retain_image(name);
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
  // Prune frame images whose context neither sits in the store nor runs
  // on the fabric: they can no longer serve as a partial-reload base.
  for (auto it = images_.begin(); it != images_.end();) {
    const bool stored = manager_.has(it->first);
    const bool resident = manager_.resident() && *manager_.resident() == it->first;
    if (stored || resident)
      ++it;
    else
      it = images_.erase(it);
  }
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

void ContextCache::retain_image(const std::string& name) {
  if (!image_of_ || images_.count(name) != 0) return;
  if (const ConfigFrameImage* image = image_of_(name)) images_.emplace(name, *image);
}

const ConfigFrameImage* ContextCache::frame_image(const std::string& name) const {
  const auto it = images_.find(name);
  return it == images_.end() ? nullptr : &it->second;
}

std::optional<soc::PartialReloadCost> ContextCache::delta_cost(
    const std::string& base, const std::string& target) const {
  const ConfigFrameImage* base_image = frame_image(base);
  const ConfigFrameImage* target_image = frame_image(target);
  if (base_image == nullptr || target_image == nullptr) return std::nullopt;
  if (base_image->width != target_image->width ||
      base_image->height != target_image->height)
    return std::nullopt;  // different array geometries: no partial path
  return delta_reload_cost(diff_config_frames(*base_image, *target_image));
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

  // Delta-aware fetch (PR 4 follow-on): the resident configuration's
  // frame image is pinned on the fabric, so when the backing store also
  // knows the target's image on the same grid, the bus only has to move
  // the encoded frame delta — the controller replays it on the resident
  // image to rebuild the full context locally. The full stream is still
  // what gets stored (capacity accounting and full reloads unchanged).
  // Library pairs answer from the precomputed delta table; only pairs
  // outside it pay the on-demand diff over the retained images.
  std::size_t transfer_bytes = bits.size();
  if (config_.delta_fetch && manager_.resident() && *manager_.resident() != name) {
    std::optional<std::size_t> delta_bytes =
        delta_bytes_of_ ? delta_bytes_of_(*manager_.resident(), name) : std::nullopt;
    if (!delta_bytes) {
      const ConfigFrameImage* base = frame_image(*manager_.resident());
      const ConfigFrameImage* target = image_of_ ? image_of_(name) : nullptr;
      if (base != nullptr && target != nullptr && base->width == target->width &&
          base->height == target->height)
        delta_bytes = encode_config_delta(diff_config_frames(*base, *target)).size();
    }
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
  retain_image(name);
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
  // The eviction hook pins the image of the configuration the silicon
  // still runs (it may serve as a partial-reload base). A shed stream's
  // context is not coming back, so the pin would leak the image forever
  // — drop it regardless.
  images_.erase(name);
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
  // The image of the configuration the silicon still runs is pinned: a
  // partial reload must be able to diff against it even though the store
  // entry just went away (the eviction-race case).
  if (!manager_.resident() || *manager_.resident() != name) images_.erase(name);
}

}  // namespace dsra::runtime
