#include "runtime/fabric_pool.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>

#include "core/arch.hpp"
#include "mapper/flow.hpp"
#include "me/systolic.hpp"

namespace dsra::runtime {

namespace {

/// Frame image of a compiled design: one frame per placed cluster.
ConfigFrameImage image_of_design(const Netlist& netlist, const map::Placement& placement,
                                 const ArrayArch& arch) {
  std::vector<PlacedClusterConfig> placed;
  placed.reserve(netlist.nodes().size());
  for (std::size_t i = 0; i < netlist.nodes().size(); ++i) {
    const TileCoord t = placement.node_tile[i];
    placed.push_back({t.x, t.y, netlist.nodes()[i].config});
  }
  return build_frame_image(arch.width(), arch.height(), placed);
}

/// The systolic ME array instance a fabric of @p geometry carves out:
/// one processing element spans a 2x2 cluster footprint, so a W x H grid
/// hosts a (W/2) x (H/2) PE array (the 12x8 full array keeps the
/// historical 6x4 ME instance). Too-small grids fail place/route, which
/// is exactly how me_systolic becomes infeasible on the small scc
/// geometries.
ArrayArch me_arch_for(const ArrayGeometry& geometry) {
  const int pe_cols = std::max(1, geometry.width / 2);
  const int pe_rows = std::max(1, geometry.height / 2);
  return ArrayArch::motion_estimation(pe_cols, pe_rows, ChannelSpec{6, 12});
}

/// Configuration-port cost of replaying @p delta: one encode pass
/// derives the {bits, frames, bytes} triple a partial switch charges and
/// a delta-aware fetch moves.
soc::PartialReloadCost delta_reload_cost(const ConfigDelta& delta) {
  const std::size_t bytes = encode_config_delta(delta).size();
  return {static_cast<std::uint64_t>(bytes) * 8,
          static_cast<std::uint64_t>(delta.frame_count()),
          static_cast<std::uint64_t>(bytes)};
}

}  // namespace

KernelLibrary::KernelLibrary(KernelLibraryConfig config)
    : geometries_(std::move(config.geometries)) {
  if (geometries_.empty())
    throw std::invalid_argument("kernel library needs at least one array geometry");
  impls_ = dct::all_implementations(config.precision);
  for (const auto& impl : impls_) impl_names_.push_back(impl->name());

  std::vector<Netlist> dct_netlists;
  for (const auto& impl : impls_) dct_netlists.push_back(impl->build_netlist());
  me::SystolicParams me_params;
  me_params.block = 4;
  me_params.modules = 2;
  const Netlist me_netlist = me::build_systolic_netlist(me_params);

  // One place-and-route run per (geometry, context). The DA/CORDIC
  // contexts target a distributed-arithmetic grid of the geometry's size;
  // whether an implementation fits is decided by actually running
  // place/route, not by a side table that could drift from the mapper.
  // The systolic ME array's context is compiled onto the ME instance the
  // geometry can carve out (a scaled instance keeps library construction
  // cheap; the scheduler's cycle model is parameterised independently).
  struct CompileJob {
    ArrayGeometry geometry;
    std::string name;
    const Netlist* netlist;
    ArrayArch arch;
    std::uint64_t place_seed;
  };
  struct CompileOutcome {
    bool fits = false;
    std::vector<std::uint8_t> bitstream;
    ConfigFrameImage image;
    std::string unfit_reason;
  };
  std::vector<CompileJob> jobs;
  for (const ArrayGeometry& geometry : geometries_) {
    if (entries_.count(geometry) != 0) continue;  // duplicates compile once
    entries_[geometry];
    const ArrayArch array =
        ArrayArch::distributed_arithmetic(geometry.width, geometry.height);
    for (std::size_t i = 0; i < impls_.size(); ++i)
      jobs.push_back({geometry, impl_names_[i], &dct_netlists[i], array, 17});
    jobs.push_back({geometry, kMeContextName, &me_netlist, me_arch_for(geometry), 11});
  }

  // The runs share no mutable state (each placement is seeded), so they
  // go to concurrent tasks; each task writes only the outcomes of the
  // jobs it claims.
  std::vector<CompileOutcome> outcomes(jobs.size());
  std::atomic<std::size_t> next_job{0};
  const auto compile_jobs = [&] {
    for (std::size_t k = next_job++; k < jobs.size(); k = next_job++) {
      const CompileJob& job = jobs[k];
      CompileOutcome& out = outcomes[k];
      map::FlowParams params;
      params.place.seed = job.place_seed;
      try {
        map::CompiledDesign design = map::compile(*job.netlist, job.arch, params);
        out.image = image_of_design(*job.netlist, design.placement, job.arch);
        out.bitstream = std::move(design.bitstream);
        out.fits = true;
      } catch (const std::runtime_error& e) {
        // The mapper signals infeasibility (site shortage, routing
        // non-convergence) as std::runtime_error; anything else — a
        // logic error, allocation failure — must stay loud, and get()
        // below rethrows it.
        out.unfit_reason = e.what();
      }
    }
  };
  const std::size_t task_count =
      std::min<std::size_t>(jobs.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::future<void>> tasks;
  for (std::size_t t = 0; t < task_count; ++t)
    tasks.push_back(std::async(std::launch::async, compile_jobs));
  for (std::future<void>& task : tasks) task.get();

  for (std::size_t k = 0; k < jobs.size(); ++k) {
    GeometryEntry& entry = entries_.at(jobs[k].geometry);
    CompileOutcome& out = outcomes[k];
    if (out.fits) {
      entry.frame_images.emplace(jobs[k].name, std::move(out.image));
      entry.bitstreams.emplace(jobs[k].name, std::move(out.bitstream));
    } else {
      entry.unfit_reasons.emplace(jobs[k].name, std::move(out.unfit_reason));
    }
  }

  // Precompute the pairwise delta table over every context pair of each
  // geometry sharing an array grid (the DCT variants; the ME context
  // lives on its own grid, so a DCT <-> ME pair correctly has no entry
  // and falls back to a full reload). Each entry is verified on the spot:
  // base + delta must reproduce the target image bit-exactly or the
  // library refuses to advertise the partial path.
  for (auto& [geometry, entry] : entries_) {
    for (const auto& [base_name, base_image] : entry.frame_images) {
      for (const auto& [target_name, target_image] : entry.frame_images) {
        if (base_name == target_name) continue;
        if (base_image.width != target_image.width ||
            base_image.height != target_image.height)
          continue;
        DeltaEntry delta_entry;
        delta_entry.delta = diff_config_frames(base_image, target_image);
        if (apply_config_delta(base_image, delta_entry.delta) != target_image)
          throw std::runtime_error("config delta " + base_name + " -> " + target_name +
                                   " on geometry " + to_string(geometry) +
                                   " fails the round-trip guarantee");
        delta_entry.cost = delta_reload_cost(delta_entry.delta);
        entry.deltas.emplace(std::pair(base_name, target_name), std::move(delta_entry));
      }
    }
  }
}

const KernelLibrary::GeometryEntry& KernelLibrary::entry_of(
    const ArrayGeometry& geometry) const {
  const auto it = entries_.find(geometry);
  if (it == entries_.end())
    throw std::invalid_argument("kernel library was not built for array geometry " +
                                to_string(geometry) +
                                "; list it in KernelLibraryConfig.geometries");
  return it->second;
}

const dct::DctImplementation* KernelLibrary::impl(const std::string& name) const {
  for (std::size_t i = 0; i < impl_names_.size(); ++i)
    if (impl_names_[i] == name) return impls_[i].get();
  return nullptr;
}

bool KernelLibrary::fits(const std::string& name, const ArrayGeometry& geometry) const {
  const auto it = entries_.find(geometry);
  return it != entries_.end() && it->second.bitstreams.count(name) != 0;
}

const std::string& KernelLibrary::unfit_reason(const std::string& name,
                                               const ArrayGeometry& geometry) const {
  static const std::string empty;
  const auto it = entries_.find(geometry);
  if (it == entries_.end()) return empty;
  const auto reason = it->second.unfit_reasons.find(name);
  return reason == it->second.unfit_reasons.end() ? empty : reason->second;
}

const std::vector<std::uint8_t>& KernelLibrary::bitstream(
    const std::string& name, const ArrayGeometry& geometry) const {
  const GeometryEntry& entry = entry_of(geometry);
  const auto it = entry.bitstreams.find(name);
  if (it != entry.bitstreams.end()) return it->second;
  const auto reason = entry.unfit_reasons.find(name);
  if (reason != entry.unfit_reasons.end())
    throw std::invalid_argument("implementation '" + name +
                                "' does not fit array geometry " + to_string(geometry) +
                                ": " + reason->second);
  throw std::invalid_argument("unknown implementation '" + name + "'");
}

std::string KernelLibrary::kernel_of(const std::string& name) const {
  return name == kMeContextName ? "me" : "dct";
}

std::vector<std::string> KernelLibrary::names() const { return impl_names_; }

std::vector<std::string> KernelLibrary::context_names() const {
  std::vector<std::string> out = names();
  out.push_back(kMeContextName);
  return out;
}

bool KernelLibrary::has_geometry(const ArrayGeometry& geometry) const {
  return entries_.count(geometry) != 0;
}

std::size_t KernelLibrary::total_bytes() const {
  std::size_t total = 0;
  for (const auto& [geometry, entry] : entries_)
    for (const auto& [name, bits] : entry.bitstreams) total += bits.size();
  return total;
}

std::size_t KernelLibrary::total_bytes(const ArrayGeometry& geometry) const {
  std::size_t total = 0;
  for (const auto& [name, bits] : entry_of(geometry).bitstreams) total += bits.size();
  return total;
}

const ConfigFrameImage& KernelLibrary::frame_image(const std::string& name,
                                                   const ArrayGeometry& geometry) const {
  const GeometryEntry& entry = entry_of(geometry);
  const auto it = entry.frame_images.find(name);
  if (it != entry.frame_images.end()) return it->second;
  const auto reason = entry.unfit_reasons.find(name);
  if (reason != entry.unfit_reasons.end())
    throw std::invalid_argument("implementation '" + name +
                                "' does not fit array geometry " + to_string(geometry) +
                                ": " + reason->second);
  throw std::invalid_argument("unknown implementation '" + name + "'");
}

const ConfigDelta* KernelLibrary::delta(const ArrayGeometry& geometry,
                                        const std::string& base,
                                        const std::string& target) const {
  const auto entry = entries_.find(geometry);
  if (entry == entries_.end()) return nullptr;
  const auto it = entry->second.deltas.find(std::pair(base, target));
  return it == entry->second.deltas.end() ? nullptr : &it->second.delta;
}

std::optional<soc::PartialReloadCost> KernelLibrary::delta_cost(
    const ArrayGeometry& geometry, const std::string& base,
    const std::string& target) const {
  const auto entry = entries_.find(geometry);
  if (entry == entries_.end()) return std::nullopt;
  const auto it = entry->second.deltas.find(std::pair(base, target));
  if (it == entry->second.deltas.end()) return std::nullopt;
  return it->second.cost;
}

namespace {

/// Site state of a slot that owns its fabric outright: composite grid =
/// the slot's own geometry.
std::shared_ptr<FabricSiteState> own_site(const ArrayGeometry& geometry) {
  auto site = std::make_shared<FabricSiteState>();
  site->composite.width = geometry.width;
  site->composite.height = geometry.height;
  return site;
}

}  // namespace

Fabric::Fabric(int id, const KernelLibrary& library, const FabricConfig& config)
    : Fabric(id, library, config, id, PartitionSpec{0, 0, config.geometry}, nullptr) {}

Fabric::Fabric(int id, const KernelLibrary& library, const FabricConfig& config,
               int physical_id, const PartitionSpec& partition,
               std::shared_ptr<FabricSiteState> site)
    : id_(id),
      capabilities_(config.capabilities),
      geometry_(config.geometry),
      library_(library),
      reconfig_(config.reconfig_port),
      bus_(config.bus),
      cache_(
          reconfig_, bus_,
          [this](const std::string& name) -> const std::vector<std::uint8_t>& {
            return library_.bitstream(name, geometry_);
          },
          ContextCacheConfig{config.context_capacity_bytes, config.delta_fetch},
          [this](const std::string& name) { return library_.kernel_of(name); },
          [this](const std::string& base,
                 const std::string& target) -> std::optional<std::size_t> {
            if (auto cost = library_.delta_cost(geometry_, base, target))
              return static_cast<std::size_t>(cost->delta_bytes);
            return std::nullopt;
          }),
      physical_id_(physical_id),
      partition_(partition),
      site_(site != nullptr ? std::move(site) : own_site(config.geometry)) {
  exclusive_ = partition_.origin_x == 0 && partition_.origin_y == 0 &&
               partition_.geometry.width == site_->composite.width &&
               partition_.geometry.height == site_->composite.height;
  if (!library.has_geometry(config.geometry))
    throw std::invalid_argument("fabric " + std::to_string(id) +
                                ": kernel library was not built for array geometry " +
                                to_string(config.geometry) +
                                "; list it in KernelLibraryConfig.geometries");
  if (config.partial_reconfig)
    reconfig_.enable_partial_reconfig([this](const std::string& base, const std::string& target) {
      return library_.delta_cost(geometry_, base, target);
    });
}

bool Fabric::hosts(const std::string& impl_name) const {
  return library_.fits(impl_name, geometry_);
}

bool Fabric::release_context(const std::string& context) {
  return cache_.release(context);
}

PrepareResult Fabric::prepare(const std::string& impl_name) {
  // Already running it: the active context is always stored, so this is a
  // hit that fetches and switches nothing. Nothing trim() reads has
  // changed since the prepare that activated it trimmed.
  if (reconfig_.active() == impl_name) {
    (void)cache_.touch(impl_name);
    return {.cache_hit = true};
  }
  if (!hosts(impl_name)) {
    const std::string& reason = library_.unfit_reason(impl_name, geometry_);
    throw std::invalid_argument(
        "fabric " + std::to_string(id_) + " (geometry " + to_string(geometry_) +
        ") cannot host context '" + impl_name + "'" +
        (reason.empty() ? std::string(": unknown implementation") : ": " + reason));
  }
  PrepareResult result;
  const std::uint64_t hits_before = cache_.stats().hits;
  const int switches_before = reconfig_.switches_performed();
  const std::optional<std::string> previous = reconfig_.active();
  result.fetch_cycles = cache_.touch(impl_name);
  result.switch_cycles = reconfig_.activate(impl_name);
  result.cache_hit = cache_.stats().hits > hits_before;
  result.switched = reconfig_.switches_performed() > switches_before;
  result.partial = result.switched && reconfig_.last_activation_partial();
  if (result.switched) record_region_programming(previous, impl_name, result.partial);
  // The pre-switch context was pinned while the load was in flight; with
  // the switch done it is evictable again, so restore the byte bound.
  cache_.trim();
  return result;
}

void Fabric::record_region_programming(const std::optional<std::string>& previous,
                                       const std::string& target, bool partial) {
  const ConfigRegion region = partition_.region();
  const int fw = site_->composite.width;
  const int fh = site_->composite.height;
  if (partial && previous) {
    // The switch was partial because the library's table holds this
    // pair's delta (both contexts on this slot's grid); no entry means
    // that invariant broke.
    const ConfigDelta* local = library_.delta(geometry_, *previous, target);
    if (local == nullptr)
      throw std::logic_error("fabric " + std::to_string(id_) + ": partial switch " +
                             *previous + " -> " + target + " on geometry " +
                             to_string(geometry_) + " has no library delta");
    const ConfigDelta fabric_delta = translate_config_delta(*local, region, fw, fh);
    // Round-trip through the sealed codec so every runtime partial
    // switch exercises the CRC and containment checks the tenant
    // isolation guarantee rests on, not just the unit tests.
    const RegionDelta sealed = decode_region_delta(encode_region_delta(fabric_delta, region));
    site_->composite = apply_region_delta(site_->composite, sealed.delta, sealed.region);
    ++site_->region_deltas;
    ++region_deltas_;
    return;
  }
  // Full reload — or a context compiled onto a different array grid (the
  // systolic ME context lives on its PE grid, not the cluster grid):
  // replace the slot's rectangle wholesale. An off-grid context clears
  // the rectangle, since its programming is not addressable in
  // cluster-grid frames.
  const ConfigFrameImage& target_local = library_.frame_image(target, geometry_);
  ConfigFrameImage translated;
  translated.width = fw;
  translated.height = fh;
  if (target_local.width == geometry_.width && target_local.height == geometry_.height)
    translated = translate_frame_image(target_local, region, fw, fh);
  site_->composite = blit_region(site_->composite, translated, region);
  ++site_->region_blits;
  ++region_blits_;
}

ConfigFrameImage Fabric::region_image() const {
  const ConfigRegion region = partition_.region();
  ConfigFrameImage out;
  out.width = site_->composite.width;
  out.height = site_->composite.height;
  for (const ConfigFrame& f : site_->composite.frames)
    if (region.contains(f.x, f.y)) out.frames.push_back(f);
  return out;
}

ConfigFrameImage Fabric::composite_image() const {
  return site_->composite;
}

FabricPool::FabricPool(int count, const KernelLibrary& library, const FabricConfig& config)
    : FabricPool(std::vector<FabricConfig>(static_cast<std::size_t>(count > 0 ? count : 0),
                                           config),
                 library) {}

FabricPool::FabricPool(const std::vector<FabricConfig>& configs, const KernelLibrary& library) {
  if (configs.empty()) throw std::invalid_argument("fabric pool needs at least one fabric");
  int slot = 0;
  for (std::size_t p = 0; p < configs.size(); ++p) {
    const FabricConfig& config = configs[p];
    const int physical = static_cast<int>(p);
    validate_partition_plan(config.geometry, config.partitions);
    auto site = own_site(config.geometry);
    site_states_.push_back(site);
    physical_geometries_.push_back(config.geometry);
    if (config.partitions.empty()) {
      // Exclusive whole-fabric slot — the historical one-config-one-fabric
      // shape every pre-tenancy call site builds.
      fabrics_.push_back(std::make_unique<Fabric>(
          slot, library, config, physical, PartitionSpec{0, 0, config.geometry}, site));
      physical_of_.push_back(physical);
      ++slot;
      continue;
    }
    for (const PartitionSpec& part : config.partitions) {
      FabricConfig slot_config = config;
      slot_config.geometry = part.geometry;
      slot_config.partitions.clear();
      // Co-tenants split the physical context store evenly (0 stays 0 =
      // unbounded); the port and bus cost models are per-slot here, with
      // cross-tenant port serialization charged by sim_schedule.
      if (slot_config.context_capacity_bytes != 0)
        slot_config.context_capacity_bytes /= config.partitions.size();
      fabrics_.push_back(
          std::make_unique<Fabric>(slot, library, slot_config, physical, part, site));
      physical_of_.push_back(physical);
      ++slot;
    }
  }
}

Fabric& FabricPool::at(int i) {
  if (i < 0 || i >= size())
    throw std::out_of_range("fabric pool: index " + std::to_string(i) +
                            " out of range [0, " + std::to_string(size()) + ")");
  return *fabrics_[static_cast<std::size_t>(i)];
}

const Fabric& FabricPool::at(int i) const {
  if (i < 0 || i >= size())
    throw std::out_of_range("fabric pool: index " + std::to_string(i) +
                            " out of range [0, " + std::to_string(size()) + ")");
  return *fabrics_[static_cast<std::size_t>(i)];
}

unsigned FabricPool::combined_capabilities() const {
  unsigned caps = 0;
  for (const auto& f : fabrics_) caps |= f->capabilities();
  return caps;
}

bool FabricPool::any_fabric_hosts(const std::string& context, unsigned capability) const {
  return fabrics_hosting(context, capability) > 0;
}

int FabricPool::fabrics_hosting(const std::string& context, unsigned capability) const {
  return static_cast<int>(hosting_fabric_ids(context, capability).size());
}

std::vector<int> FabricPool::hosting_fabric_ids(const std::string& context,
                                                unsigned capability) const {
  std::vector<int> ids;
  for (const auto& f : fabrics_)
    if ((f->capabilities() & capability) != 0 && f->hosts(context)) ids.push_back(f->id());
  return ids;
}

std::string FabricPool::geometry_list() const {
  std::string out;
  for (const auto& f : fabrics_) {
    if (!out.empty()) out += ", ";
    out += to_string(f->geometry());
  }
  return out;
}

std::uint64_t FabricPool::total_reconfig_cycles() const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().total_reconfig_cycles();
  return total;
}

std::uint64_t FabricPool::reconfig_cycles_for_kernel(const std::string& kernel) const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().reconfig_cycles_for_kernel(kernel);
  return total;
}

int FabricPool::total_switches() const {
  int total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().switches_performed();
  return total;
}

ContextCacheStats FabricPool::cache_totals() const {
  ContextCacheStats total;
  for (const auto& f : fabrics_) total += f->cache().stats();
  return total;
}

std::uint64_t FabricPool::partial_reloads() const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().partial_reloads();
  return total;
}

std::uint64_t FabricPool::full_reloads() const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().full_reloads();
  return total;
}

std::uint64_t FabricPool::frames_rewritten() const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().frames_rewritten();
  return total;
}

std::uint64_t FabricPool::delta_bytes_loaded() const {
  std::uint64_t total = 0;
  for (const auto& f : fabrics_) total += f->reconfig().delta_bytes_loaded();
  return total;
}

int FabricPool::total_tiles() const {
  int total = 0;
  for (const auto& f : fabrics_) total += f->geometry().tiles();
  return total;
}

ConfigFrameImage FabricPool::composite_image(int physical) const {
  if (physical < 0 || physical >= physical_count())
    throw std::out_of_range("fabric pool: physical index " + std::to_string(physical) +
                            " out of range [0, " + std::to_string(physical_count()) + ")");
  return site_states_[static_cast<std::size_t>(physical)]->composite;
}

std::uint64_t FabricPool::region_deltas_applied() const {
  std::uint64_t total = 0;
  for (const auto& site : site_states_) total += site->region_deltas;
  return total;
}

std::uint64_t FabricPool::region_blits() const {
  std::uint64_t total = 0;
  for (const auto& site : site_states_) total += site->region_blits;
  return total;
}

int FabricPool::physical_tiles() const {
  int total = 0;
  for (const auto& g : physical_geometries_) total += g.tiles();
  return total;
}

}  // namespace dsra::runtime
