/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Everything stochastic in the stack — the DRAM vulnerability map, the
 * noise workloads, allocator perturbations — draws from an Rng seeded from
 * the experiment configuration, so every run is reproducible bit-for-bit.
 *
 * Implementation: SplitMix64 for seeding, xoshiro256** for the stream
 * (Blackman & Vigna). Both are tiny, fast, and well distributed; we avoid
 * std::mt19937 because its state is large and its distributions are not
 * portable across standard libraries.
 */

#ifndef HYPERHAMMER_BASE_RNG_H
#define HYPERHAMMER_BASE_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace hh::base {

/** One step of SplitMix64; used for seeding and hashing. */
constexpr uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix of two values; used to derive per-object seeds. */
constexpr uint64_t
mix64(uint64_t a, uint64_t b)
{
    uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return splitMix64(s);
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can be used
 * with standard distributions, but also provides the handful of helpers
 * the simulator actually needs.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(uint64_t seed = 0x1badb002) { reseed(seed); }

    /** Re-seed the generator deterministically. */
    void
    reseed(uint64_t seed)
    {
        uint64_t sm = seed;
        for (auto &word : state)
            word = splitMix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) via Lemire's method; bound > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // 128-bit multiply rejection-free approximation; bias is
        // negligible (< 2^-64 * bound) for simulation purposes.
        const unsigned __int128 product =
            static_cast<unsigned __int128>((*this)()) * bound;
        return static_cast<uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    between(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Fisher-Yates shuffle of a random-access container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        for (size_t i = c.size(); i > 1; --i) {
            const size_t j = below(i);
            std::swap(c[i - 1], c[j]);
        }
    }

    /** Derive an independent child generator (for per-module streams). */
    Rng
    fork()
    {
        return Rng(mix64((*this)(), (*this)()));
    }

    /** Skip @p count draws (for stream-offset tests). */
    void
    discard(uint64_t count)
    {
        while (count--)
            (*this)();
    }

    /** Raw xoshiro256** state, for state-stream serialization. */
    std::array<uint64_t, 4> saveState() const { return state; }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state{};
};

/**
 * Splits one root seed into arbitrarily many independent child seeds,
 * indexed rather than drawn, so stream i's seed is a pure function of
 * (root, i). This is what makes parallel Monte-Carlo trials
 * deterministic: trial i derives the same Rng no matter which thread
 * runs it, when it runs, or how many sibling trials exist.
 *
 * fork() cannot serve here -- it advances the parent generator, so the
 * child depends on how many forks happened before it.
 */
class SeedSequence
{
  public:
    explicit constexpr SeedSequence(uint64_t root_seed)
        : root(root_seed)
    {}

    /** Seed of child stream @p index. */
    constexpr uint64_t
    seed(uint64_t index) const
    {
        // Salt the root so stream 0 differs from the root seed itself
        // (callers often keep using the root for the parent object).
        return mix64(root ^ 0x5eed5eeded5eedull, index);
    }

    /** Generator for child stream @p index. */
    Rng stream(uint64_t index) const { return Rng(seed(index)); }

  private:
    uint64_t root;
};

} // namespace hh::base

#endif // HYPERHAMMER_BASE_RNG_H
