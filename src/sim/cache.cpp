#include "cache.hpp"

#include "common/log.hpp"

namespace tmu::sim {

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    TMU_ASSERT(cfg.ways > 0 && cfg.sizeBytes >= kLineBytes);
    numSets_ = cfg.sizeBytes /
               (static_cast<std::uint64_t>(cfg.ways) * kLineBytes);
    TMU_ASSERT(numSets_ > 0);
    ways_.assign(numSets_ * static_cast<std::size_t>(cfg.ways), Way{});
    mshrs_.reserve(static_cast<std::size_t>(cfg.mshrs));
}

Cache::Way *
Cache::findLine(Addr line)
{
    const std::size_t base = setOf(line) * static_cast<std::size_t>(cfg_.ways);
    for (int w = 0; w < cfg_.ways; ++w) {
        Way &way = ways_[base + static_cast<std::size_t>(w)];
        if (way.valid && way.tag == line)
            return &way;
    }
    return nullptr;
}

void
Cache::markDirty(Addr line)
{
    if (Way *way = findLine(line))
        way->dirty = true;
}

void
Cache::install(Addr line, bool dirty, Addr *evictedDirty)
{
    const std::size_t base = setOf(line) * static_cast<std::size_t>(cfg_.ways);
    Way *victim = &ways_[base];
    for (int w = 0; w < cfg_.ways; ++w) {
        Way &way = ways_[base + static_cast<std::size_t>(w)];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }
    if (victim->valid && victim->dirty && evictedDirty)
        *evictedDirty = victim->tag;
    victim->tag = line;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useClock_;
}

void
Cache::installDirect(Addr line, bool dirty, Addr *evictedDirty)
{
    if (Way *way = findLine(line)) {
        way->dirty |= dirty;
        way->lastUse = ++useClock_;
        return;
    }
    install(line, dirty, evictedDirty);
}

bool
Cache::contains(Addr line) const
{
    return const_cast<Cache *>(this)->findLine(line) != nullptr;
}

void
Cache::reclaim(Cycle now)
{
    if (mshrs_.empty() || now < nextReclaim_)
        return;
    Cycle next = ~Cycle{0};
    for (std::size_t i = 0; i < mshrs_.size();) {
        if (mshrs_[i].second <= now) {
            mshrs_[i] = mshrs_.back();
            mshrs_.pop_back();
        } else {
            next = std::min(next, mshrs_[i].second);
            ++i;
        }
    }
    nextReclaim_ = next;
}

void
Cache::registerStats(stats::StatRegistry &reg, const std::string &prefix,
                     const std::string &label, bool extended) const
{
    reg.scalar(prefix + "accesses", label + " accesses", &accesses_);
    reg.formula(prefix + "hitRate", label + " hit rate",
                [this] { return hitRate(); });
    if (extended) {
        reg.scalarU64(prefix + "hits",
                      label + " hits (incl. MSHR merges)",
                      [this] { return hits(); });
        reg.scalar(prefix + "misses", label + " primary misses",
                   &misses_);
        reg.scalar(prefix + "mshrRejects",
                   label + " accesses bounced on structural hazards",
                   &rejects_);
        reg.scalarU64(prefix + "hitServiceCycles",
                      label + " cycles servicing tag hits",
                      [this] { return hitServiceCycles(); });
    }
}

void
Cache::reset()
{
    for (auto &w : ways_)
        w = Way{};
    mshrs_.clear();
    nextReclaim_ = ~Cycle{0};
    useClock_ = accesses_ = hits_ = mshrHits_ = misses_ = rejects_ = 0;
}

} // namespace tmu::sim
