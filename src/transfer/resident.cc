#include "resident.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace pimdl {
namespace transfer {

ResidentLutManager::ResidentLutManager(double capacity_bytes)
    : capacity_bytes_(capacity_bytes)
{
    if (!(capacity_bytes > 0.0))
        throw std::runtime_error(
            "ResidentLutManager capacity must be positive");
}

bool
ResidentLutManager::touch(std::uint64_t key, double bytes)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_hits = reg.counter("transfer.resident_hits");
    static obs::Counter &c_misses =
        reg.counter("transfer.resident_misses");
    static obs::Counter &c_evictions =
        reg.counter("transfer.evictions");
    static obs::Gauge &g_bytes = reg.gauge("transfer.resident_bytes");

    bool hit = false;
    std::uint64_t evicted = 0;
    double resident = 0.0;
    {
        MutexLock lock(mu_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            hit = true;
            ++stats_.hits;
            lru_.splice(lru_.begin(), lru_, it->second);
        } else {
            ++stats_.misses;
            if (bytes <= capacity_bytes_) {
                // Evict from the LRU tail until the new table fits.
                while (stats_.resident_bytes + bytes >
                       capacity_bytes_) {
                    const Entry &victim = lru_.back();
                    stats_.resident_bytes -= victim.bytes;
                    index_.erase(victim.key);
                    lru_.pop_back();
                    ++stats_.evictions;
                    ++evicted;
                }
                lru_.push_front({key, bytes});
                index_[key] = lru_.begin();
                stats_.resident_bytes += bytes;
            }
            // else: oversized table, never pinned.
        }
        stats_.entries = lru_.size();
        resident = stats_.resident_bytes;
    }
    (hit ? c_hits : c_misses).add();
    if (evicted > 0)
        c_evictions.add(evicted);
    g_bytes.set(resident);
    return hit;
}

void
ResidentLutManager::clear()
{
    MutexLock lock(mu_);
    lru_.clear();
    index_.clear();
    stats_.resident_bytes = 0.0;
    stats_.entries = 0;
}

ResidentLutStats
ResidentLutManager::stats() const
{
    MutexLock lock(mu_);
    return stats_;
}

double
residentLutCapacityBytes(const PimPlatformConfig &platform)
{
    return static_cast<double>(platform.num_pes) *
           static_cast<double>(platform.pe_local_mem_bytes) * 0.5;
}

} // namespace transfer
} // namespace pimdl
