#include "sisa/faults.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "support/logging.hpp"

namespace sisa::isa {

namespace {

// The SplitMix64 finalizer (support/rng.hpp), usable as a pure mixing
// function: every fault decision hashes its coordinates through it so
// decisions are independent of query and operation order.
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Per-channel salts keep e.g. drop and stall decisions at identical
// coordinates uncorrelated.
constexpr std::uint64_t channel_corrupt = 0x636f727275707431ULL;
constexpr std::uint64_t channel_drop = 0x64726f7020787631ULL;
constexpr std::uint64_t channel_stall = 0x7374616c6c206c31ULL;

} // namespace

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config))
{
    config_.maxRetries = std::max<std::uint32_t>(config_.maxRetries, 1);
    const bool corrupts =
        config_.corruptRate > 0.0 || !config_.corruptAt.empty();
    sisa_assert(!corrupts || config_.verifyChecksums,
                "result corruption configured with checksum "
                "verification disabled: faults would go undetected");
}

double
FaultInjector::uniform(std::uint64_t channel, std::uint64_t c0,
                       std::uint64_t c1, std::uint64_t c2) const
{
    std::uint64_t h = mix64(config_.seed ^ channel);
    h = mix64(h ^ c0);
    h = mix64(h ^ c1);
    h = mix64(h ^ c2);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
FaultInjector::corruptsResult(std::uint64_t dispatch, std::uint32_t op,
                              std::uint32_t attempt) const
{
    for (const CorruptionPoint &point : config_.corruptAt) {
        if (point.dispatch == dispatch && point.op == op)
            return attempt < point.attempts;
    }
    if (config_.corruptRate <= 0.0)
        return false;
    return uniform(channel_corrupt, dispatch, op, attempt) <
           config_.corruptRate;
}

bool
FaultInjector::dropsTransfer(std::uint64_t dispatch, std::uint32_t vault,
                             SetId operand, std::uint32_t attempt) const
{
    if (config_.dropRate <= 0.0)
        return false;
    const std::uint64_t site =
        (static_cast<std::uint64_t>(vault) << 32) | operand;
    return uniform(channel_drop, dispatch, site, attempt) <
           config_.dropRate;
}

mem::Cycles
FaultInjector::stallCycles(std::uint64_t dispatch,
                           std::uint32_t op) const
{
    if (config_.stallRate <= 0.0 || config_.stallCycles == 0)
        return 0;
    return uniform(channel_stall, dispatch, op, 0) < config_.stallRate
               ? config_.stallCycles
               : 0;
}

void
FaultInjector::failuresAt(std::uint64_t dispatch,
                          std::vector<std::uint32_t> &out) const
{
    for (const VaultFailurePoint &point : config_.vaultFailures) {
        if (point.dispatch == dispatch)
            out.push_back(point.vault);
    }
    // Deterministic quarantine order when several vaults die at once.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

namespace {

template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

bool
parseRate(std::string_view text, double &out)
{
    // from_chars<double> is still missing on some libstdc++ targets;
    // rates are short, so strtod on a bounded copy is fine.
    const std::string copy(text);
    char *end = nullptr;
    out = std::strtod(copy.c_str(), &end);
    return end == copy.c_str() + copy.size() && !copy.empty() &&
           out >= 0.0 && out <= 1.0;
}

} // namespace

std::optional<FaultConfig>
parseFaultSpec(std::string_view spec, std::string *error)
{
    const auto fail = [&](const std::string &message)
        -> std::optional<FaultConfig> {
        if (error)
            *error = message;
        return std::nullopt;
    };
    if (spec.empty())
        return fail("empty fault spec");

    FaultConfig config;
    config.enabled = true;
    while (!spec.empty()) {
        const std::size_t comma = spec.find(',');
        std::string_view item = spec.substr(0, comma);
        spec = comma == std::string_view::npos
                   ? std::string_view{}
                   : spec.substr(comma + 1);
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos || eq == 0)
            return fail("fault spec item '" + std::string(item) +
                        "' is not key=value");
        const std::string_view key = item.substr(0, eq);
        const std::string_view value = item.substr(eq + 1);
        bool ok = true;
        if (key == "seed") {
            ok = parseNumber(value, config.seed);
        } else if (key == "corrupt") {
            ok = parseRate(value, config.corruptRate);
        } else if (key == "stall") {
            ok = parseRate(value, config.stallRate);
        } else if (key == "stall-cycles") {
            ok = parseNumber(value, config.stallCycles);
        } else if (key == "drop") {
            ok = parseRate(value, config.dropRate);
        } else if (key == "retries") {
            ok = parseNumber(value, config.maxRetries) &&
                 config.maxRetries > 0;
        } else if (key == "backoff") {
            ok = parseNumber(value, config.retryBackoffBase);
        } else if (key == "timeout") {
            ok = parseNumber(value, config.heartbeatTimeout);
        } else if (key == "verify") {
            std::uint32_t flag = 0;
            ok = parseNumber(value, flag) && flag <= 1;
            config.verifyChecksums = flag != 0;
        } else if (key == "fail") {
            VaultFailurePoint point;
            const std::size_t at = value.find('@');
            ok = at != std::string_view::npos &&
                 parseNumber(value.substr(0, at), point.dispatch) &&
                 parseNumber(value.substr(at + 1), point.vault);
            if (ok)
                config.vaultFailures.push_back(point);
        } else if (key == "corrupt-at") {
            CorruptionPoint point;
            const std::size_t c1 = value.find(':');
            ok = c1 != std::string_view::npos &&
                 parseNumber(value.substr(0, c1), point.dispatch);
            if (ok) {
                const std::string_view rest = value.substr(c1 + 1);
                const std::size_t c2 = rest.find(':');
                if (c2 == std::string_view::npos) {
                    ok = parseNumber(rest, point.op);
                } else {
                    ok = parseNumber(rest.substr(0, c2), point.op) &&
                         parseNumber(rest.substr(c2 + 1),
                                     point.attempts);
                }
            }
            if (ok)
                config.corruptAt.push_back(point);
        } else {
            return fail("unknown fault spec key '" + std::string(key) +
                        "'");
        }
        if (!ok)
            return fail("bad value in fault spec item '" +
                        std::string(item) + "'");
    }
    if ((config.corruptRate > 0.0 || !config.corruptAt.empty()) &&
        !config.verifyChecksums) {
        return fail("corrupt faults require verify=1");
    }
    return config;
}

std::uint64_t
fnvChecksum32(const std::uint32_t *data, std::size_t n)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
fnvChecksum64(const std::uint64_t *data, std::size_t n)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace sisa::isa
