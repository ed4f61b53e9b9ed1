#include "fault.hpp"

#include <charconv>
#include <cstring>

namespace tmu::sim {

namespace {

std::size_t
slot(FaultKind k)
{
    return static_cast<std::size_t>(k);
}

Expected<double>
parseProb(const std::string &tok)
{
    double v = 0.0;
    const char *begin = tok.c_str();
    const char *end = begin + tok.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr != end)
        return TMU_ERR(Errc::ParseError, "bad probability '%s'",
                       tok.c_str());
    if (v < 0.0 || v > 1.0)
        return TMU_ERR(Errc::OutOfRange,
                       "probability %s outside [0, 1]", tok.c_str());
    return v;
}

Expected<Cycle>
parseCycles(const std::string &tok)
{
    std::uint64_t v = 0;
    const char *begin = tok.c_str();
    const char *end = begin + tok.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec == std::errc::result_out_of_range)
        return TMU_ERR(Errc::Overflow, "cycle count '%s' overflows",
                       tok.c_str());
    if (ec != std::errc{} || ptr != end)
        return TMU_ERR(Errc::ParseError, "bad cycle count '%s'",
                       tok.c_str());
    return static_cast<Cycle>(v);
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::MemLatencySpike:
        return "mem-lat";
    case FaultKind::DropPrefetch:
        return "drop-pf";
    case FaultKind::OutqStall:
        return "outq-stall";
    case FaultKind::FillDelay:
        return "fill-delay";
    }
    return "unknown";
}

bool
FaultSpec::any() const
{
    for (const FaultSiteSpec &s : sites) {
        if (s.probability > 0.0)
            return true;
    }
    return false;
}

Expected<FaultSpec>
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t sep = text.find(',', pos);
        if (sep == std::string::npos)
            sep = text.size();
        const std::string item = text.substr(pos, sep - pos);
        pos = sep + 1;
        if (item.empty())
            continue;

        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return TMU_ERR(Errc::ParseError,
                           "expected site=prob[:cycles], got '%s'",
                           item.c_str());
        }
        const std::string name = item.substr(0, eq);
        const FaultKind *kind = nullptr;
        for (const FaultKind &k : kFaultKinds) {
            if (name == faultKindName(k))
                kind = &k;
        }
        if (kind == nullptr) {
            std::string known;
            for (const FaultKind k : kFaultKinds)
                known += (known.empty() ? "" : ", ") +
                         std::string(faultKindName(k));
            return TMU_ERR(Errc::UnknownName,
                           "unknown fault site '%s' (known: %s)",
                           name.c_str(), known.c_str());
        }

        std::string probTok = item.substr(eq + 1);
        FaultSiteSpec &site = spec.site(*kind);
        if (const std::size_t colon = probTok.find(':');
            colon != std::string::npos) {
            auto cycles = parseCycles(probTok.substr(colon + 1));
            if (!cycles) {
                return std::move(cycles.error())
                    .context("in fault site '" + name + "'");
            }
            site.extraCycles = *cycles;
            probTok = probTok.substr(0, colon);
        }
        auto prob = parseProb(probTok);
        if (!prob) {
            return std::move(prob.error())
                .context("in fault site '" + name + "'");
        }
        site.probability = *prob;
    }
    return spec;
}

std::string
FaultSpec::describe() const
{
    std::string out;
    for (const FaultKind k : kFaultKinds) {
        const FaultSiteSpec &s = site(k);
        if (s.probability <= 0.0)
            continue;
        if (!out.empty())
            out += ",";
        out += detail::format("%s=%g", faultKindName(k), s.probability);
        if (s.extraCycles > 0) {
            out += detail::format(
                ":%llu", static_cast<unsigned long long>(s.extraCycles));
        }
    }
    return out;
}

FaultInjector::FaultInjector(std::uint64_t seed, const FaultSpec &spec)
    : seed_(seed), spec_(spec)
{
    // One independent stream per site so the decision sequence of one
    // site does not depend on how often the others are consulted.
    for (const FaultKind k : kFaultKinds) {
        rngs_[slot(k)].reseed(
            seed ^ (0x9e3779b97f4a7c15ULL * (slot(k) + 1)));
    }
}

bool
FaultInjector::shouldInject(FaultKind k)
{
    const std::size_t i = slot(k);
    const FaultSiteSpec &site = spec_.sites[i];
    if (site.probability <= 0.0 ||
        counts_[i].injected >= site.maxCount)
        return false;
    if (!rngs_[i].nextBool(site.probability))
        return false;
    ++counts_[i].injected;
    return true;
}

Cycle
FaultInjector::extraCycles(FaultKind k) const
{
    return spec_.site(k).extraCycles;
}

const FaultCounts &
FaultInjector::counts(FaultKind k) const
{
    return counts_[slot(k)];
}

FaultCounts
FaultInjector::totals() const
{
    FaultCounts t;
    for (const FaultCounts &c : counts_)
        t.injected += c.injected;
    return t;
}

void
FaultInjector::registerStats(stats::StatRegistry &reg,
                             const std::string &prefix) const
{
    for (const FaultKind k : kFaultKinds) {
        if (spec_.site(k).probability <= 0.0)
            continue;
        const std::string site = faultKindName(k);
        reg.scalar(prefix + site + ".injected",
                   "faults injected at site " + site,
                   &counts_[slot(k)].injected);
    }
    reg.scalarU64(prefix + "injected", "total faults injected",
                  [this] { return totals().injected; });
}

} // namespace tmu::sim
