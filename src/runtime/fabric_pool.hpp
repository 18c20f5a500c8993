// Pool of simulated array fabrics.
//
// Each fabric is one array instance of a specific ArrayGeometry fronted
// by its own ReconfigManager (the configuration port) and a bounded
// bitstream context cache; the compiled kernel library (netlist ->
// place/route -> bitstream, once per implementation per geometry that
// can host it) is shared read-only by every fabric. A fabric also
// advertises which kernel classes its silicon hosts: the paper's SoC has
// a systolic ME array and a DA/CORDIC transform array as separate
// domain-specific fabrics, and the stage scheduler routes each stage job
// to a fabric that is both *capable* (kernel class) and *feasible* (the
// job's context places and routes on the fabric's geometry). prepare()
// is the single entry the scheduler uses: on a cache miss it charges bus
// cycles to fetch the context from main memory, and on a bitstream
// switch it charges the configuration-port cycles — soc::Platform's cost
// model, multiplied across K fabrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/config_codec.hpp"
#include "dct/impl.hpp"
#include "runtime/context_cache.hpp"
#include "runtime/geometry.hpp"
#include "runtime/kernel.hpp"
#include "runtime/partition.hpp"
#include "soc/bus.hpp"
#include "soc/reconfig.hpp"

namespace dsra::runtime {

struct KernelLibraryConfig {
  /// Distinct array geometries the library compiles for. Every fabric's
  /// geometry must be listed here; the first entry is the *primary*
  /// geometry the single-argument lookups resolve against.
  std::vector<ArrayGeometry> geometries{kDefaultGeometry};
  dct::DaPrecision precision = dct::DaPrecision::wide();
};

/// Geometry-indexed kernel library: the paper's six DCT implementations
/// plus the systolic ME array's configuration context, each compiled
/// once per distinct array geometry that can host it. Place/route
/// feasibility decides what "can host" means — the small scc mappings
/// fit small arrays, cordic1/cordic2/me_systolic need the full array —
/// and the precomputed fits() matrix is what dispatch, validation and
/// Fabric::prepare consult. Per geometry the library also keeps the
/// frame-addressable configuration images and the pairwise delta table
/// partial reconfiguration charges against.
class KernelLibrary {
 public:
  explicit KernelLibrary(KernelLibraryConfig config = {});

  /// Null when @p name is unknown. The functional model is geometry-
  /// independent: every geometry's bitstream of one implementation
  /// computes bit-identical transforms.
  [[nodiscard]] const dct::DctImplementation* impl(const std::string& name) const;

  /// Placement feasibility: true iff @p name compiled (place + route +
  /// bitstream + frame image) onto @p geometry. False for unknown names
  /// and unknown geometries.
  [[nodiscard]] bool fits(const std::string& name, const ArrayGeometry& geometry) const;

  /// Why fits() is false: the place/route failure message recorded at
  /// library build ("architecture ... provides 24 AddShift sites but
  /// netlist ... needs 36"). Empty when the pair fits or is unknown.
  [[nodiscard]] const std::string& unfit_reason(const std::string& name,
                                                const ArrayGeometry& geometry) const;

  /// Bitstream of @p name compiled for @p geometry. Throws
  /// std::invalid_argument on unknown names, geometries the library was
  /// not built for, and infeasible (impl, geometry) pairs — the latter
  /// naming both the implementation and the geometry.
  [[nodiscard]] const std::vector<std::uint8_t>& bitstream(
      const std::string& name, const ArrayGeometry& geometry) const;

  /// bitstream(name, primary geometry).
  [[nodiscard]] const std::vector<std::uint8_t>& bitstream(const std::string& name) const;

  /// Kernel tag of @p name's context: "me" for kMeContextName, "dct"
  /// otherwise.
  [[nodiscard]] std::string kernel_of(const std::string& name) const;

  /// DCT implementation names (the ME context is listed separately).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Every context name the library compiles: the DCT implementations
  /// plus kMeContextName — the row axis of the feasibility matrix.
  [[nodiscard]] std::vector<std::string> context_names() const;

  [[nodiscard]] const std::vector<ArrayGeometry>& geometries() const { return geometries_; }
  [[nodiscard]] bool has_geometry(const ArrayGeometry& geometry) const;
  [[nodiscard]] const ArrayGeometry& primary_geometry() const { return geometries_.front(); }

  /// Compiled bitstream bytes across every geometry / the one geometry.
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t total_bytes(const ArrayGeometry& geometry) const;

  /// Frame-addressable configuration image of @p name's context on
  /// @p geometry (one frame per occupied cluster). Same error contract
  /// as bitstream().
  [[nodiscard]] const ConfigFrameImage& frame_image(const std::string& name,
                                                    const ArrayGeometry& geometry) const;
  [[nodiscard]] const ConfigFrameImage& frame_image(const std::string& name) const;

  /// Precomputed minimal frame rewrite turning @p base's cluster
  /// programming into @p target's on @p geometry. Null when the pair has
  /// no delta (unknown name, identical contexts, or contexts compiled
  /// onto different array grids such as a DCT <-> ME switch).
  [[nodiscard]] const ConfigDelta* delta(const ArrayGeometry& geometry,
                                         const std::string& base,
                                         const std::string& target) const;
  [[nodiscard]] const ConfigDelta* delta(const std::string& base,
                                         const std::string& target) const;

  /// Configuration-port cost of delta(geometry, base, target); nullopt
  /// when no delta exists. This is what a fabric's ReconfigManager
  /// consults on every partial switch, so it is precomputed at library
  /// build.
  [[nodiscard]] std::optional<soc::PartialReloadCost> delta_cost(
      const ArrayGeometry& geometry, const std::string& base,
      const std::string& target) const;
  [[nodiscard]] std::optional<soc::PartialReloadCost> delta_cost(
      const std::string& base, const std::string& target) const;

 private:
  struct DeltaEntry {
    ConfigDelta delta;
    soc::PartialReloadCost cost;
  };
  /// Everything compiled for one geometry: per-context bitstreams and
  /// frame images for the feasible contexts, the recorded place/route
  /// failure for the infeasible ones, and the pairwise delta table.
  struct GeometryEntry {
    std::map<std::string, std::vector<std::uint8_t>> bitstreams;
    std::map<std::string, ConfigFrameImage> frame_images;
    std::map<std::string, std::string> unfit_reasons;
    std::map<std::pair<std::string, std::string>, DeltaEntry> deltas;
  };

  [[nodiscard]] const GeometryEntry& entry_of(const ArrayGeometry& geometry) const;

  std::vector<std::unique_ptr<dct::DctImplementation>> impls_;
  std::vector<ArrayGeometry> geometries_;
  std::map<ArrayGeometry, GeometryEntry> entries_;
};

struct FabricConfig {
  soc::ReconfigPortConfig reconfig_port;
  soc::BusConfig bus;
  std::size_t context_capacity_bytes = 0;  ///< 0 = every context fits
  unsigned capabilities = kCapAllKernels;  ///< KernelCapability mask
  /// Partial reconfiguration: a bitstream switch rewrites only the
  /// cluster frames that differ from the fabric's resident programming
  /// (library delta table, context-cache images as fallback) instead of
  /// reloading the full stream through the configuration port.
  bool partial_reconfig = false;
  /// Array grid of this fabric's silicon. The library must be built for
  /// it, and only contexts that place and route on it can be prepared —
  /// dispatch filters by fits(context, geometry) before handing this
  /// fabric a job.
  ArrayGeometry geometry = kDefaultGeometry;
  /// Delta-aware context fetch: on a cache miss where the fabric's
  /// resident frame image is known, only the delta bytes cross the bus
  /// (the controller rebuilds the full context locally from the pinned
  /// resident image) instead of the full bitstream.
  bool delta_fetch = false;
  /// Spatial multi-tenancy: rectangular partitions this fabric's grid is
  /// split into. The pool expands each partition into one scheduler-
  /// visible slot with its own resident context, cache and byte ledger;
  /// the slots share the physical configuration port and bus (co-tenant
  /// context loads serialize in sim_schedule). Empty = the historical
  /// exclusive whole-fabric mode; static_partition_plan(geometry) is the
  /// canonical 12x8 -> 2x 8x4 split. Must pass validate_partition_plan.
  std::vector<PartitionSpec> partitions;
};

/// Shared configuration state of one physical fabric, referenced by all
/// co-tenant slots carved out of it: the fabric-wide composite frame
/// image (which rectangle holds whose programming) plus counters of the
/// region-scoped reconfigurations applied to it. Co-tenant slots are
/// driven by different worker threads, so updates synchronize on `mu` —
/// taken only on bitstream switches, never on the per-job fast path.
struct FabricSiteState {
  std::mutex mu;
  ConfigFrameImage composite;       ///< fabric-grid programming, all tenants
  std::uint64_t region_deltas = 0;  ///< partial switches applied as sealed region deltas
  std::uint64_t region_blits = 0;   ///< full reloads blitted into a rectangle
};

/// What one Fabric::prepare_detailed() call charged and decided —
/// telemetry's view of a context activation, split into the bus (cache
/// fetch) and configuration-port (bitstream switch) components a stall
/// attribution must keep apart.
struct PrepareResult {
  std::uint64_t fetch_cycles = 0;   ///< context-cache miss bus cycles
  std::uint64_t switch_cycles = 0;  ///< configuration-port cycles
  bool cache_hit = false;           ///< the context was already resident
  bool switched = false;            ///< the fabric changed bitstreams
  bool partial = false;             ///< the switch took the delta path
  [[nodiscard]] std::uint64_t total() const { return fetch_cycles + switch_cycles; }
};

/// One simulated array fabric. Not thread-safe by design: the scheduler
/// dedicates one worker thread per fabric.
class Fabric {
 public:
  /// Exclusive whole-fabric slot. Throws std::invalid_argument when the
  /// library was not built for @p config.geometry.
  Fabric(int id, const KernelLibrary& library, const FabricConfig& config);

  /// Partition slot: one tenant rectangle of physical fabric
  /// @p physical_id, sharing @p site (the fabric-wide composite image and
  /// its lock) with its co-tenants. @p config.geometry must equal
  /// @p partition.geometry; a null @p site makes the slot its own site
  /// (the exclusive ctor above). Same library error contract.
  Fabric(int id, const KernelLibrary& library, const FabricConfig& config, int physical_id,
         const PartitionSpec& partition, std::shared_ptr<FabricSiteState> site);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Ensure @p impl_name is resident and active; returns the cycles
  /// charged (context-fetch bus cycles + configuration-port switch
  /// cycles; 0 when the fabric already runs this bitstream). Throws
  /// std::invalid_argument — naming the fabric, its geometry and the
  /// place/route failure — when @p impl_name does not fit this fabric's
  /// geometry: the scheduler's feasibility filter must never hand such a
  /// job to this fabric.
  std::uint64_t prepare(const std::string& impl_name);

  /// prepare() with the charge broken down for telemetry: bus fetch vs
  /// port switch cycles, plus what happened (cache hit, switch taken,
  /// full vs delta reload). Same cost model and same error contract —
  /// prepare() is this call's total().
  PrepareResult prepare_detailed(const std::string& impl_name);

  /// Placement feasibility of @p impl_name on this fabric's geometry —
  /// the predicate dispatch filters candidates by (alongside the kernel
  /// capability mask).
  [[nodiscard]] bool hosts(const std::string& impl_name) const;

  /// Shed-path unpin: release @p context from this fabric's cache and
  /// store when the stream that needed it was rejected or degraded
  /// mid-flight — cancelled jobs must not leave a pinned context (or its
  /// retained frame image) resident forever. Returns true when a stored
  /// context was actually evicted; a context this fabric never loaded is
  /// a no-op.
  bool release_context(const std::string& context);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] unsigned capabilities() const { return capabilities_; }
  [[nodiscard]] const ArrayGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const std::optional<std::string>& active() const { return reconfig_.active(); }
  [[nodiscard]] const dct::DctImplementation* active_impl() const;
  [[nodiscard]] const soc::ReconfigManager& reconfig() const { return reconfig_; }
  [[nodiscard]] const ContextCache& cache() const { return cache_; }

  /// Physical fabric this slot lives on (its own id for exclusive slots).
  [[nodiscard]] int physical_id() const { return physical_id_; }
  /// The slot's rectangle on the physical grid; covers the whole grid for
  /// exclusive slots.
  [[nodiscard]] const PartitionSpec& partition() const { return partition_; }
  /// True when this slot owns its physical fabric outright (no co-tenant).
  [[nodiscard]] bool exclusive() const { return exclusive_; }
  /// Region-scoped programming this slot performed: partial switches
  /// applied as CRC-sealed region deltas, and full reloads blitted into
  /// the slot's rectangle.
  [[nodiscard]] std::uint64_t region_deltas() const { return region_deltas_; }
  [[nodiscard]] std::uint64_t region_blits() const { return region_blits_; }
  /// The composite image's current content inside this slot's rectangle
  /// (fabric-grid coordinates), copied under the site lock — what the
  /// tenancy isolation tests assert on.
  [[nodiscard]] ConfigFrameImage region_image() const;
  /// The whole physical fabric's composite image, copied under the lock.
  [[nodiscard]] ConfigFrameImage composite_image() const;

 private:
  /// Mirror a completed bitstream switch into the shared composite image:
  /// partial switches replay a CRC-sealed region delta, full reloads (and
  /// contexts living on a different array grid, like the systolic ME
  /// context) blit the slot's rectangle. Never touches a byte outside
  /// partition().region() — the code paths it calls enforce that.
  void record_region_programming(const std::optional<std::string>& previous,
                                 const std::string& target, bool partial);

  int id_;
  unsigned capabilities_;
  ArrayGeometry geometry_;
  const KernelLibrary& library_;
  soc::ReconfigManager reconfig_;
  soc::Bus bus_;
  ContextCache cache_;
  int physical_id_;
  PartitionSpec partition_;
  bool exclusive_ = true;
  std::shared_ptr<FabricSiteState> site_;
  std::uint64_t region_deltas_ = 0;  ///< this slot's share of site_->region_deltas
  std::uint64_t region_blits_ = 0;
};

class FabricPool {
 public:
  /// Homogeneous pool: @p count identical fabrics.
  FabricPool(int count, const KernelLibrary& library, const FabricConfig& config = {});

  /// Heterogeneous pool: one *physical* fabric per config (e.g. one
  /// full-size DA/CORDIC fabric next to two small scc-only fabrics — the
  /// sized-to-the-kernel floorplan the hetero-pool bench measures). A
  /// config with a partition plan expands into one scheduler-visible slot
  /// per partition: size(), at() and every dispatch surface are in slots,
  /// physical_count()/physical_of() recover the silicon underneath.
  /// Throws std::invalid_argument on an invalid partition plan.
  FabricPool(const std::vector<FabricConfig>& configs, const KernelLibrary& library);

  /// Dispatchable slots (= fabrics when nothing is partitioned).
  [[nodiscard]] int size() const { return static_cast<int>(fabrics_.size()); }

  /// Physical fabrics (one per config handed to the constructor).
  [[nodiscard]] int physical_count() const { return static_cast<int>(site_states_.size()); }

  /// Slot -> physical fabric map, indexed by slot id — the topology
  /// sim_schedule charges co-tenant config-port contention with.
  [[nodiscard]] const std::vector<int>& physical_of() const { return physical_of_; }

  /// Composite frame image of physical fabric @p physical (every
  /// tenant's programming in fabric-grid coordinates), copied under the
  /// site lock.
  [[nodiscard]] ConfigFrameImage composite_image(int physical) const;

  /// Region-scoped programming across the pool: partial switches applied
  /// as CRC-sealed region deltas / full reloads blitted into a rectangle.
  [[nodiscard]] std::uint64_t region_deltas_applied() const;
  [[nodiscard]] std::uint64_t region_blits() const;

  /// Cluster sites of the physical silicon (partitioned or not) — the
  /// honest per-site throughput denominator: carving slots out of a
  /// fabric never changes how much silicon the pool occupies.
  [[nodiscard]] int physical_tiles() const;

  /// Bounds-checked access; throws std::out_of_range naming the index
  /// and the valid range.
  [[nodiscard]] Fabric& at(int i);
  [[nodiscard]] const Fabric& at(int i) const;

  /// Union of every fabric's capability mask.
  [[nodiscard]] unsigned combined_capabilities() const;

  /// True iff some fabric both has a capability bit of @p capability and
  /// can place @p context on its geometry — the pool-level feasibility
  /// test scheduler validation fails fast on.
  [[nodiscard]] bool any_fabric_hosts(const std::string& context,
                                      unsigned capability) const;

  /// Capacity probes — what the admission controller sizes its pilot
  /// schedule with. A (context, capability) pair's serving capacity is
  /// the set of fabrics that are both capable and placement-feasible
  /// for it; one modeled cycle per fabric per cycle.
  [[nodiscard]] int fabrics_hosting(const std::string& context,
                                    unsigned capability) const;
  /// Fabric ids of fabrics_hosting(), in pool order.
  [[nodiscard]] std::vector<int> hosting_fabric_ids(const std::string& context,
                                                    unsigned capability) const;

  /// Distinct fabric geometries, in fabric order ("12x8, 8x4, 8x4"
  /// joined) — what pool-level diagnostics name.
  [[nodiscard]] std::string geometry_list() const;

  /// Configuration-port cycles paid across all fabrics.
  [[nodiscard]] std::uint64_t total_reconfig_cycles() const;

  /// Configuration-port cycles charged against @p kernel ("me" / "dct")
  /// across all fabrics.
  [[nodiscard]] std::uint64_t reconfig_cycles_for_kernel(const std::string& kernel) const;

  [[nodiscard]] int total_switches() const;
  [[nodiscard]] ContextCacheStats cache_totals() const;

  /// Partial-reconfiguration accounting summed across the fabrics.
  [[nodiscard]] std::uint64_t partial_reloads() const;
  [[nodiscard]] std::uint64_t full_reloads() const;
  [[nodiscard]] std::uint64_t frames_rewritten() const;
  [[nodiscard]] std::uint64_t delta_bytes_loaded() const;

  /// Total cluster sites across the pool's fabrics — the array-area
  /// denominator of per-area throughput.
  [[nodiscard]] int total_tiles() const;

 private:
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<std::shared_ptr<FabricSiteState>> site_states_;  ///< per physical fabric
  std::vector<int> physical_of_;                               ///< per slot
  std::vector<ArrayGeometry> physical_geometries_;             ///< per physical fabric
};

}  // namespace dsra::runtime
