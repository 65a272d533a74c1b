/**
 * @file
 * Experiment E3 -- Table 2: pages released from the VM vs. pages
 * reused by EPTs.
 *
 * For each (S, B) cell of the paper's grid -- spray size S in {5, 10}
 * GB and released sub-blocks B in {20, 30, 70, 100} -- the bench
 * spawns the 13 GB attacker VM, exhausts noise pages, releases B
 * sub-blocks, sprays S bytes of hugepages, and then uses the paper's
 * two host-side hooks (the released-PFN log and an EPT-page dump) to
 * compute N, E, R, R_N and R_E.
 *
 * Runs at full 16 GB scale by default; S and B scale with --host-gib.
 */

#include <unordered_set>

#include "bench_common.h"

using namespace hh;
using namespace hh::bench;

namespace {

struct Cell
{
    uint64_t sprayBytes;
    unsigned blocks;
};

struct PaperCell
{
    double rn, re;
};

void
runSystem(const std::string &name, const Options &opts)
{
    sys::SystemConfig cfg = presetByName(name, opts);
    if (opts.hostBytes == 0 && opts.quick)
        cfg.withMemory(4_GiB);
    const double scale =
        static_cast<double>(cfg.dram.totalBytes) / (16_GiB);

    const std::vector<Cell> cells = {
        {static_cast<uint64_t>(5_GiB * scale), 100},
        {static_cast<uint64_t>(10_GiB * scale), 100},
        {static_cast<uint64_t>(10_GiB * scale), 70},
        {static_cast<uint64_t>(10_GiB * scale), 30},
        {static_cast<uint64_t>(10_GiB * scale), 20},
    };
    static const PaperCell kPaperS1[] = {{0.014, 0.229},
                                         {0.101, 0.913},
                                         {0.136, 0.859},
                                         {0.217, 0.586},
                                         {0.224, 0.407}};
    static const PaperCell kPaperS2[] = {{0.038, 0.767},
                                         {0.082, 0.860},
                                         {0.122, 0.897},
                                         {0.253, 0.799},
                                         {0.239, 0.510}};
    static const PaperCell kPaperS3[] = {{0.022, 0.391},
                                         {0.076, 0.779},
                                         {0.103, 0.725},
                                         {0.174, 0.526},
                                         {0.194, 0.388}};
    const PaperCell *paper = name == "s2" ? kPaperS2
        : name == "s3" ? kPaperS3 : kPaperS1;

    analysis::TextTable table({"Setting", "S", "B", "N", "E", "R",
                               "R_N", "R_E", "R_N paper", "R_E paper"});

    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const unsigned blocks = opts.quick
            ? std::max(1u, cell.blocks / 4) : cell.blocks;

        sys::HostSystem host(cfg);
        auto machine = host.createVm(paperVmConfig(cfg));

        // Step 1: exhaust noise pages.
        attack::SteeringConfig steer_cfg;
        steer_cfg.exhaustMappings = scaledMappings(cfg);
        attack::PageSteering steering(*machine, host.clock(),
                                      steer_cfg);
        steering.exhaustNoisePages();
        if (cfg.noise.churnPagesPerTick) {
            for (int tick = 0; tick < 20; ++tick)
                host.noiseTick();
        }

        // Step 2: release B sub-blocks (spread over the region; the
        // paper releases the blocks holding vulnerable bits, whose
        // host placement is effectively arbitrary).
        machine->memDriver().setSuppressAutoPlug(true);
        auto &device = machine->memDevice_();
        unsigned released = 0;
        for (virtio::SubBlockId sb = 0;
             sb < device.subBlockCount() && released < blocks;
             sb += 7) {
            if (device.isPlugged(sb)
                && device.requestUnplug(sb).ok()) {
                ++released;
            }
        }

        // Step 3: spray S bytes of EPT pages.
        steering.sprayEptes(cell.sprayBytes, {});

        // Host-side hooks: the released-PFN log and the EPT dump.
        std::unordered_set<uint64_t> released_pages;
        for (Pfn block : device.stats().releasedBlockPfns) {
            for (uint64_t page = 0; page < kPagesPerHugePage; ++page)
                released_pages.insert(block + page);
        }
        const uint64_t n = released_pages.size();
        uint64_t e = 0;
        uint64_t r = 0;
        for (Pfn pfn : machine->mmu().eptPageFrames()) {
            ++e;
            r += released_pages.count(pfn);
        }

        table.addRow({
            cfg.name,
            std::to_string(cell.sprayBytes / 1_GiB) + " GB",
            std::to_string(released),
            analysis::formatCount(n),
            analysis::formatCount(e),
            analysis::formatCount(r),
            analysis::formatPercent(static_cast<double>(r) / n),
            analysis::formatPercent(static_cast<double>(r) / e),
            analysis::formatPercent(paper[i].rn),
            analysis::formatPercent(paper[i].re),
        });
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = Options::parse(argc, argv);
    std::printf("== E3 / Table 2: released pages reused by EPTs ==\n");
    for (const char *name : {"s1", "s2", "s3"}) {
        if (opts.wants(name))
            runSystem(name, opts);
    }
    std::printf("Paper shape: R_E grows with S at fixed B; R_N grows "
                "as B shrinks at fixed S.\n");
    return 0;
}
