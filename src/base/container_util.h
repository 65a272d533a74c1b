/**
 * @file
 * Deterministic views over unordered containers.
 *
 * Iterating a std::unordered_{map,set} directly is banned by hh-lint
 * (rule unordered-iteration): the visit order is implementation-defined,
 * so any result, merge, or side-effect sequence built from it is not
 * reproducible across standard libraries or even across runs.
 * sortedKeys is the sanctioned escape: it materializes a sorted copy
 * of the keys, which costs O(n log n) but yields a stable order; look
 * each value up through its key. Use it whenever an unordered
 * container's contents feed anything observable; keep O(1) lookups
 * (find/count/contains) on the container itself.
 */

#ifndef HYPERHAMMER_BASE_CONTAINER_UTIL_H
#define HYPERHAMMER_BASE_CONTAINER_UTIL_H

#include <algorithm>
#include <vector>

namespace hh::base {

/** Keys of @p container, sorted ascending. */
template <typename Container>
std::vector<typename Container::key_type>
sortedKeys(const Container &container)
{
    std::vector<typename Container::key_type> keys;
    keys.reserve(container.size());
    for (const auto &entry : container) {
        if constexpr (requires { entry.first; })
            keys.push_back(entry.first);
        else
            keys.push_back(entry);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace hh::base

#endif // HYPERHAMMER_BASE_CONTAINER_UTIL_H
