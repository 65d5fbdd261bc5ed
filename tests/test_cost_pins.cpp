/**
 * @file
 * End-to-end pins of the CPU cost model (the Section 9.1 out-of-order
 * core and cache hierarchy). Every solo problem runs its hand-tuned
 * non-set baseline and its set-based formulation, both charged by
 * sim::CpuModel, on two registry graphs at T=1 and T=32 with the
 * problem's default cutoff. Each row pins the result, the makespan and
 * the stall cycles summed over threads, so a change to the cache or
 * core model that moves any charge fails here.
 */

#include <gtest/gtest.h>

#include <span>

#include "graph/dataset_registry.hpp"
#include "harness.hpp"

namespace {

using namespace sisa;
using bench::Mode;
using enum bench::Mode;

struct Pin
{
    const char *problem;
    Mode mode;
    std::uint32_t threads;
    std::uint64_t value;
    std::uint64_t makespan;
    std::uint64_t stall;
};

void
checkPins(const std::string &dataset, std::span<const Pin> pins)
{
    const graph::Graph g = graph::makeDataset(dataset);
    for (const Pin &pin : pins) {
        SCOPED_TRACE(dataset + " " + pin.problem + " " +
                     bench::modeName(pin.mode) + " T=" +
                     std::to_string(pin.threads));
        bench::RunConfig config;
        config.threads = pin.threads;
        config.cutoff = bench::soloProblem(pin.problem).defaultCutoff();
        const bench::RunOutcome out =
            bench::runProblem(pin.problem, g, pin.mode, config);
        std::uint64_t stall = 0;
        for (sim::ThreadId t = 0; t < pin.threads; ++t)
            stall += out.ctx->threadStall(t);
        EXPECT_EQ(out.value, pin.value);
        EXPECT_EQ(out.cycles, pin.makespan);
        EXPECT_EQ(stall, pin.stall);
    }
}

// {problem, mode, threads, value, makespan, stall cycles}
const Pin kAntCol5[] = {
    {"tc", NonSet, 1, 2011, 45825, 5960},
    {"tc", NonSet, 32, 63868, 50141, 88103},
    {"tc", SetBased, 1, 2011, 48426, 7068},
    {"tc", SetBased, 32, 63868, 84378, 127291},
    {"kcc-3", NonSet, 1, 302, 41202, 4884},
    {"kcc-3", NonSet, 32, 10180, 50336, 73846},
    {"kcc-3", SetBased, 1, 302, 38436, 6582},
    {"kcc-3", SetBased, 32, 10180, 48082, 88086},
    {"kcc-4", NonSet, 1, 309, 39237, 7554},
    {"kcc-4", NonSet, 32, 9833, 44393, 85656},
    {"kcc-4", SetBased, 1, 309, 52405, 7419},
    {"kcc-4", SetBased, 32, 9833, 78370, 109741},
    {"kcc-5", NonSet, 1, 301, 37842, 7734},
    {"kcc-5", NonSet, 32, 9702, 41677, 89137},
    {"kcc-5", SetBased, 1, 301, 65484, 8066},
    {"kcc-5", SetBased, 32, 9702, 81879, 127211},
    {"kcc-6", NonSet, 1, 305, 39444, 7284},
    {"kcc-6", NonSet, 32, 9694, 45072, 75232},
    {"kcc-6", SetBased, 1, 305, 75390, 8333},
    {"kcc-6", SetBased, 32, 9694, 106215, 168091},
    {"ksc-3", NonSet, 1, 60, 1543756, 315592},
    {"ksc-3", NonSet, 32, 1920, 1776550, 11473053},
    {"ksc-3", SetBased, 1, 60, 397094, 52924},
    {"ksc-3", SetBased, 32, 1920, 406651, 1282490},
    {"ksc-4", NonSet, 1, 60, 1735141, 272995},
    {"ksc-4", NonSet, 32, 1920, 2001193, 9934525},
    {"ksc-4", SetBased, 1, 60, 457829, 59393},
    {"ksc-4", SetBased, 32, 1920, 482459, 1511359},
    {"ksc-5", NonSet, 1, 60, 1875394, 241141},
    {"ksc-5", NonSet, 32, 1920, 2171326, 8722413},
    {"ksc-5", SetBased, 1, 60, 507575, 65337},
    {"ksc-5", SetBased, 32, 1920, 535432, 1720752},
    {"ksc-6", NonSet, 1, 60, 1990597, 240244},
    {"ksc-6", NonSet, 32, 1920, 2322248, 8050568},
    {"ksc-6", SetBased, 1, 60, 544959, 68729},
    {"ksc-6", SetBased, 32, 1920, 593166, 1893081},
    {"mc", NonSet, 1, 60, 2066837, 134097},
    {"mc", NonSet, 32, 1566, 4052428, 2221329},
    {"mc", SetBased, 1, 60, 658362, 59206},
    {"mc", SetBased, 32, 1566, 2032517, 1822130},
    {"si-4s", NonSet, 1, 150, 768253, 206111},
    {"si-4s", NonSet, 32, 4800, 768253, 2322668},
    {"si-4s", SetBased, 1, 150, 6704017, 652712},
    {"si-4s", SetBased, 32, 4800, 7760930, 19023982},
    {"si-4s-L", NonSet, 1, 150, 994143, 89262},
    {"si-4s-L", NonSet, 32, 4350, 1151081, 732252},
    {"si-4s-L", SetBased, 1, 150, 16107056, 1466432},
    {"si-4s-L", SetBased, 32, 4350, 17966325, 41147138},
    {"cl-jac", NonSet, 1, 1500, 1944205, 73833},
    {"cl-jac", NonSet, 32, 9000, 393838, 426209},
    {"cl-jac", SetBased, 1, 1500, 1977229, 123076},
    {"cl-jac", SetBased, 32, 9000, 444229, 533002},
    {"cl-ovr", NonSet, 1, 1500, 1944205, 73833},
    {"cl-ovr", NonSet, 32, 9000, 393838, 426209},
    {"cl-ovr", SetBased, 1, 1500, 1977079, 122926},
    {"cl-ovr", SetBased, 32, 9000, 444229, 533002},
    {"cl-tot", NonSet, 1, 1500, 1944205, 73833},
    {"cl-tot", NonSet, 32, 9000, 393838, 426209},
    {"cl-tot", SetBased, 1, 1500, 1958629, 114940},
    {"cl-tot", SetBased, 32, 9000, 436363, 483981},
};

const Pin kFbMsg[] = {
    {"tc", NonSet, 1, 1117, 1199168, 51588},
    {"tc", NonSet, 32, 1117, 47105, 171456},
    {"tc", SetBased, 1, 1117, 1442295, 344227},
    {"tc", SetBased, 32, 1117, 53545, 357335},
    {"kcc-3", NonSet, 1, 300, 394579, 58048},
    {"kcc-3", NonSet, 32, 1117, 110218, 591231},
    {"kcc-3", SetBased, 1, 300, 492820, 64358},
    {"kcc-3", SetBased, 32, 1117, 111192, 365885},
    {"kcc-4", NonSet, 1, 1, 2563169, 165140},
    {"kcc-4", NonSet, 32, 1, 110254, 591231},
    {"kcc-4", SetBased, 1, 1, 3161670, 404182},
    {"kcc-4", SetBased, 32, 1, 117442, 422692},
    {"kcc-5", NonSet, 1, 0, 2563169, 165140},
    {"kcc-5", NonSet, 32, 0, 110254, 591231},
    {"kcc-5", SetBased, 1, 0, 3156963, 403811},
    {"kcc-5", SetBased, 32, 0, 117102, 416726},
    {"kcc-6", NonSet, 1, 0, 2563169, 165140},
    {"kcc-6", NonSet, 32, 0, 110254, 591231},
    {"kcc-6", SetBased, 1, 0, 3156779, 403631},
    {"kcc-6", SetBased, 32, 0, 117102, 416546},
    {"ksc-3", NonSet, 1, 60, 462333, 227334},
    {"ksc-3", NonSet, 32, 1114, 346456, 2572521},
    {"ksc-3", SetBased, 1, 60, 232313, 63490},
    {"ksc-3", SetBased, 32, 1114, 183767, 801820},
    {"ksc-4", NonSet, 1, 1, 2577182, 175808},
    {"ksc-4", NonSet, 32, 1, 111416, 601296},
    {"ksc-4", SetBased, 1, 1, 3158504, 404383},
    {"ksc-4", SetBased, 32, 1, 117113, 417299},
    {"ksc-5", NonSet, 1, 0, 2563169, 165140},
    {"ksc-5", NonSet, 32, 0, 110254, 591231},
    {"ksc-5", SetBased, 1, 0, 3157082, 403934},
    {"ksc-5", SetBased, 32, 0, 117113, 416822},
    {"ksc-6", NonSet, 1, 0, 2563169, 165140},
    {"ksc-6", NonSet, 32, 0, 110254, 591231},
    {"ksc-6", SetBased, 1, 0, 3157082, 403934},
    {"ksc-6", SetBased, 32, 0, 117113, 416822},
    {"mc", NonSet, 1, 60, 38946, 18397},
    {"mc", NonSet, 32, 1920, 394117, 614286},
    {"mc", SetBased, 1, 60, 113656, 28600},
    {"mc", SetBased, 32, 1920, 494806, 857741},
    {"si-4s", NonSet, 1, 150, 116980, 63360},
    {"si-4s", NonSet, 32, 4800, 152903, 754904},
    {"si-4s", SetBased, 1, 150, 1304984, 336857},
    {"si-4s", SetBased, 32, 4800, 1462294, 11197270},
    {"si-4s-L", NonSet, 1, 150, 100456, 36308},
    {"si-4s-L", NonSet, 32, 4800, 169679, 879564},
    {"si-4s-L", SetBased, 1, 150, 1522909, 383538},
    {"si-4s-L", SetBased, 32, 4800, 2110376, 14431590},
    {"cl-jac", NonSet, 1, 126, 3125024, 104034},
    {"cl-jac", NonSet, 32, 126, 168214, 292900},
    {"cl-jac", SetBased, 1, 126, 3232627, 534081},
    {"cl-jac", SetBased, 32, 126, 185342, 915305},
    {"cl-ovr", NonSet, 1, 1500, 2255436, 92454},
    {"cl-ovr", NonSet, 32, 2056, 168214, 292900},
    {"cl-ovr", SetBased, 1, 1500, 2268552, 391894},
    {"cl-ovr", SetBased, 32, 2056, 185342, 915335},
    {"cl-tot", NonSet, 1, 1500, 540882, 57281},
    {"cl-tot", NonSet, 32, 13800, 168214, 292900},
    {"cl-tot", SetBased, 1, 1500, 468053, 95112},
    {"cl-tot", SetBased, 32, 13800, 143212, 451118},
};

TEST(CpuCostPins, IntAntCol5D1) { checkPins("int-antCol5-d1", kAntCol5); }

TEST(CpuCostPins, SocFbMsg) { checkPins("soc-fbMsg", kFbMsg); }

} // namespace
