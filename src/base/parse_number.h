/**
 * @file
 * Whole-value parsing of a numeric command-line flag, shared by the
 * sweep driver and the bench binaries: "--trials=x" or "--seed=15x"
 * is a usage error, never a silent 0 or 15.
 */

#ifndef HYPERHAMMER_BASE_PARSE_NUMBER_H
#define HYPERHAMMER_BASE_PARSE_NUMBER_H

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace hh::base {

/**
 * Parse @p text whole into @p out: an unsigned integer (any C base)
 * or a double. An empty, partly parsed or out-of-range value is a
 * usage error: "<program>: bad --<flag>" on stderr and exit 2.
 */
template <typename T>
void
parseNumber(const char *program, const std::string &flag,
            const std::string &text, T &out)
{
    char *end = nullptr;
    errno = 0;
    bool ok = !text.empty();
    if constexpr (std::is_floating_point_v<T>) {
        out = std::strtod(text.c_str(), &end);
    } else {
        const unsigned long long wide =
            std::strtoull(text.c_str(), &end, 0);
        ok = ok && std::isdigit(static_cast<unsigned char>(text[0]))
            && wide <= std::numeric_limits<T>::max();
        out = static_cast<T>(wide);
    }
    if (!ok || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s: bad --%s\n", program, flag.c_str());
        std::exit(2);
    }
}

} // namespace hh::base

#endif // HYPERHAMMER_BASE_PARSE_NUMBER_H
