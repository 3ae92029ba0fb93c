/**
 * @file
 * Persistent resident-LUT placement: pins hot codebook/LUT tables in
 * the PIM banks across requests so repeated inferences skip the per-op
 * re-staging an offload-model platform (UPMEM) otherwise pays on every
 * kernel launch (Eq. 3's t_sub_lut term — the dominant transfer cost
 * at serving batch sizes).
 *
 * The manager is an LRU over (table key -> pinned bytes) under a fixed
 * capacity budget: the share of aggregate per-bank local memory the
 * deployment reserves for LUTs, consistent with the per-bank working-
 * set bound src/verify enforces on mappings. A touch() on a pinned key
 * is a hit (the staging burst is skipped and its modeled seconds are
 * saved); a miss pins the key, evicting least-recently-used tables
 * until the new one fits. Tables larger than the whole budget are
 * never pinned and always miss.
 *
 * Thread-safe: serving workers touch concurrently (annotated Mutex,
 * one lock per touch; no allocation on the hit path).
 */

#ifndef PIMDL_TRANSFER_RESIDENT_H
#define PIMDL_TRANSFER_RESIDENT_H

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "pim/platform.h"

namespace pimdl {
namespace transfer {

/** Point-in-time accounting of a ResidentLutManager. */
struct ResidentLutStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Bytes currently pinned. */
    double resident_bytes = 0.0;
    std::size_t entries = 0;

    double
    hitRate() const
    {
        const double total = static_cast<double>(hits + misses);
        return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
};

/** LRU resident-LUT placement under a byte budget. */
class ResidentLutManager
{
  public:
    /** @p capacity_bytes must be positive (throws otherwise). */
    explicit ResidentLutManager(double capacity_bytes);

    double capacityBytes() const { return capacity_bytes_; }

    /**
     * Marks @p key (a caller-stable table identity) used. Returns true
     * when the table was already pinned (hit: staging skipped); false
     * on a miss, in which case the table is pinned after evicting LRU
     * entries until @p bytes fits. Oversized tables always miss and
     * are not pinned.
     */
    bool touch(std::uint64_t key, double bytes) PIMDL_EXCLUDES(mu_);

    /** Unpins everything (deployment reload). */
    void clear() PIMDL_EXCLUDES(mu_);

    ResidentLutStats stats() const PIMDL_EXCLUDES(mu_);

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        double bytes = 0.0;
    };

    const double capacity_bytes_;
    mutable Mutex mu_{"transfer.resident"};
    /** Front = most recently used. */
    std::list<Entry> lru_ PIMDL_GUARDED_BY(mu_);
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
        PIMDL_GUARDED_BY(mu_);
    ResidentLutStats stats_ PIMDL_GUARDED_BY(mu_);
};

/**
 * Default resident-LUT budget of @p platform: half the aggregate
 * per-bank local memory (the other half stays for working tiles,
 * matching the verifier's per-bank capacity pass).
 */
double residentLutCapacityBytes(const PimPlatformConfig &platform);

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_RESIDENT_H
