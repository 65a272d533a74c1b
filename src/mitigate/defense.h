/**
 * @file
 * Pluggable Rowhammer defenses (the Section 6 mitigation layer).
 *
 * A Defense is a configuration-time transform: it rewrites the host's
 * SystemConfig (allocator domain layout, TRR/ECC strength) and the
 * attacker VM's VmConfig (virtio-mem quarantine policy) *before* the
 * world is constructed. That placement is deliberate -- Monte-Carlo
 * trials fork pristine per-trial worlds from the host configuration,
 * so a config-time defense is automatically active in every trial and
 * covered by the campaign fingerprint, keeping the deterministic
 * trial engine's identity guarantees intact.
 *
 * Four defenses model the mitigation families the paper discusses:
 *   - SilozDomains: Siloz-style physical isolation domains with
 *     guard rows between them (EPT pages, host kernel memory and
 *     guest memory live in disjoint row ranges);
 *   - VirtioQuarantine: the authors' QEMU quarantine patch;
 *   - TrrEccSweep: in-DRAM TRR sampling plus SEC-DED ECC;
 *   - CattPartition: CATT-style kernel/user buddy partitioning, with
 *     the CATTmew double-ownership hole as an opt-in flag.
 */

#ifndef HYPERHAMMER_MITIGATE_DEFENSE_H
#define HYPERHAMMER_MITIGATE_DEFENSE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "sys/host_system.h"
#include "vm/virtual_machine.h"

namespace hh::mitigate {

/**
 * What a defense costs. reservedBytes counts memory permanently
 * withdrawn from the allocatable pool (guard rows); slowdownFactor is
 * a multiplicative runtime estimate (TRR sampling, ECC check bits);
 * nackedRequests counts guest requests the defense refused (filled
 * by the matrix runner from device statistics after a campaign).
 */
struct DefenseOverhead
{
    uint64_t reservedBytes = 0;
    double slowdownFactor = 1.0;
    uint64_t nackedRequests = 0;
};

/**
 * One pluggable defense. Subclasses override the config transforms
 * they need; the base implementations are identity. configure() runs
 * once against the constructed host for validation and overhead
 * accounting.
 */
class Defense
{
  public:
    virtual ~Defense() = default;

    /** Stable identifier ("siloz", "quarantine", ...). */
    virtual const char *name() const = 0;

    /** Rewrite the host configuration before construction. */
    virtual void
    applyHostConfig(sys::SystemConfig &cfg) const
    {
        (void)cfg;
    }

    /** Rewrite the attacker VM's provisioning before spawn. */
    virtual void
    applyVmConfig(vm::VmConfig &cfg) const
    {
        (void)cfg;
    }

    /**
     * Validate the constructed host honours this defense and account
     * overheads that only exist post-construction (guard-page census).
     */
    [[nodiscard]] virtual base::Status
    configure(sys::HostSystem &host)
    {
        (void)host;
        return base::Status::success();
    }

    const DefenseOverhead &overhead() const { return ovh; }

    /**
     * Serialize the defense's accounted overhead and its parameter
     * slots, so the bytes are its identity.
     */
    virtual void saveState(base::ArchiveWriter &w) const;

  protected:
    DefenseOverhead ovh;
};

/**
 * Siloz-style isolation domains (guard-row physical partitioning).
 * The layout carves, in PFN order: one EPT/IOPT domain, one
 * host-kernel domain sized from the noise config, then one guest
 * domain over the rest, each boundary padded with guard DRAM rows of
 * permanently reserved frames. Hammering inside one domain can
 * therefore never disturb rows of another -- in particular, guest
 * aggressors cannot reach EPT or host-kernel victim rows.
 */
class SilozDomains final : public Defense
{
  public:
    const char *name() const override { return "siloz"; }
    void applyHostConfig(sys::SystemConfig &cfg) const override;
    [[nodiscard]] base::Status configure(sys::HostSystem &host) override;
    void saveState(base::ArchiveWriter &w) const override;
};

/**
 * The Section 6 QEMU quarantine patch: NACK virtio-mem requests that
 * overshoot or move away from the requested size.
 */
class VirtioQuarantine final : public Defense
{
  public:
    const char *name() const override { return "quarantine"; }
    void applyVmConfig(vm::VmConfig &cfg) const override;
    void saveState(base::ArchiveWriter &w) const override;
};

/**
 * In-DRAM mitigations: a TRR sampler (dram::kTrrTrackerCapacity rows
 * per bank) plus SEC-DED ECC. The slowdown estimate models the
 * refresh-management and check-bit overhead.
 */
class TrrEccSweep final : public Defense
{
  public:
    const char *name() const override { return "trr-ecc"; }
    void applyHostConfig(sys::SystemConfig &cfg) const override;
    [[nodiscard]] base::Status configure(sys::HostSystem &host) override;
    void saveState(base::ArchiveWriter &w) const override;
};

/**
 * CATT-style buddy partitioning: a kernel partition (kernel data,
 * page cache, EPT/IOPT pages) and a user partition (guest memory,
 * DMA buffers), with no guard rows -- CATT isolates by *allocation
 * policy* only, which is authentic to the original design.
 *
 * With doubleOwnershipHole set, the kernel partition also admits
 * DMA-able guest memory -- the CATTmew observation that double-owned
 * pages (GPU/DMA buffers, here virtio-mem backing) straddle the
 * partition boundary. Guest blocks then fill the kernel partition
 * first, release back into it, and EPT sprays reclaim them: the
 * attack chain is intact again.
 */
class CattPartition final : public Defense
{
  public:
    /** Re-open the CATTmew double-ownership hole. */
    bool doubleOwnershipHole = false;

    const char *
    name() const override
    {
        return doubleOwnershipHole ? "catt-hole" : "catt";
    }
    void applyHostConfig(sys::SystemConfig &cfg) const override;
    void saveState(base::ArchiveWriter &w) const override;
};

/**
 * An ordered, owning list of defenses composed into one transform.
 * Config transforms chain in insertion order; state serializes as a
 * name-tagged sequence, so two stacks that differ in order or members
 * serialize differently.
 */
class DefenseSet
{
  public:
    DefenseSet() = default;

    DefenseSet(const DefenseSet &) = delete;
    DefenseSet &operator=(const DefenseSet &) = delete;
    DefenseSet(DefenseSet &&) = default;
    DefenseSet &operator=(DefenseSet &&) = default;

    void
    add(std::unique_ptr<Defense> defense)
    {
        stack.push_back(std::move(defense));
    }

    bool empty() const { return stack.empty(); }
    size_t size() const { return stack.size(); }
    Defense &at(size_t i) { return *stack[i]; }
    const Defense &at(size_t i) const { return *stack[i]; }

    /** "+"-joined defense names ("siloz+quarantine"); "none" empty. */
    std::string label() const;

    /** Chain every defense's host-config transform, in order. */
    void applyHostConfig(sys::SystemConfig &cfg) const;

    /** Chain every defense's VM-config transform, in order. */
    void applyVmConfig(vm::VmConfig &cfg) const;

    /** configure() every defense; first failure wins. */
    [[nodiscard]] base::Status configure(sys::HostSystem &host);

    /** Summed / multiplied overhead over the stack. */
    DefenseOverhead overhead() const;

    /**
     * Serialize the stack as (count, name, state) records: the
     * stack's identity, which the campaign fingerprint folds in.
     */
    void saveState(base::ArchiveWriter &w) const;

  private:
    std::vector<std::unique_ptr<Defense>> stack;
};

/**
 * Factory by stable name: "none" (empty optional defense -- returns
 * null), "siloz", "quarantine", "trr-ecc", "catt", "catt-hole".
 * Unknown names return null.
 */
std::unique_ptr<Defense> makeDefense(const std::string &name);

/**
 * Build a DefenseSet from a "+"-joined spec ("siloz+quarantine";
 * "none" or "" yields an empty set). Unknown components fail.
 */
[[nodiscard]] base::Expected<DefenseSet>
makeDefenseSet(const std::string &spec);

} // namespace hh::mitigate

#endif // HYPERHAMMER_MITIGATE_DEFENSE_H
