/**
 * @file
 * ECC DRAM model.
 *
 * Server DIMMs store 8 check bits per 64-bit word (SEC-DED): a single
 * flipped bit per word is silently corrected, two flips are detected
 * (machine-check) and three or more can escape as a miscorrection. The
 * paper's machines use non-ECC DIMMs (Section 5), so the evaluation
 * configs disable this; it exists for the "typical commodity server"
 * discussion in Section 6 and the mitigation ablation.
 */

#ifndef HYPERHAMMER_DRAM_ECC_H
#define HYPERHAMMER_DRAM_ECC_H

#include <cstdint>

namespace hh::dram {

/**
 * Bits correctable per 64-bit word: SEC-DED, as on commodity server
 * DIMMs. kEccCorrectBits + 1 flips are detected (machine check);
 * anything beyond that may escape as a miscorrection.
 */
constexpr uint32_t kEccCorrectBits = 1;

/** ECC configuration. */
struct EccConfig
{
    /** Master switch; disabled reproduces the paper's DIMMs. */
    bool enabled = false;
};

/** Outcome of ECC evaluation for one 64-bit word in one hammer burst. */
enum class EccOutcome : uint8_t
{
    NoEcc,        ///< ECC disabled: flips land unmodified
    Corrected,    ///< single-bit flip silently repaired
    Detected,     ///< double-bit flip: machine check, no silent flip
    Uncorrectable ///< 3+ flips may escape correction
};

/** SEC-DED decision logic. */
class EccModel
{
  public:
    explicit EccModel(EccConfig config) : cfg(config) {}

    const EccConfig &config() const { return cfg; }
    bool enabled() const { return cfg.enabled; }

    /** Classify a word that accumulated @p flips_in_word flips. */
    EccOutcome
    classify(unsigned flips_in_word) const
    {
        if (!cfg.enabled)
            return EccOutcome::NoEcc;
        if (flips_in_word <= kEccCorrectBits)
            return EccOutcome::Corrected;
        if (flips_in_word == kEccCorrectBits + 1)
            return EccOutcome::Detected;
        return EccOutcome::Uncorrectable;
    }

    /** True when the flips in a word become visible to software. */
    bool
    flipsVisible(unsigned flips_in_word) const
    {
        const EccOutcome outcome = classify(flips_in_word);
        return outcome == EccOutcome::NoEcc
            || outcome == EccOutcome::Uncorrectable;
    }

  private:
    EccConfig cfg;
};

} // namespace hh::dram

#endif // HYPERHAMMER_DRAM_ECC_H
