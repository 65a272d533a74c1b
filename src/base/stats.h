/**
 * @file
 * Time-series samplers for the Figure 3 style plots.
 */

#ifndef HYPERHAMMER_BASE_STATS_H
#define HYPERHAMMER_BASE_STATS_H

#include <string>
#include <vector>

namespace hh::base {

/**
 * A (x, y) time series, e.g. "noise pages vs. number of IOVA mappings"
 * for Figure 3. Kept deliberately simple: append-only, rendered by the
 * report code in hh::analysis.
 */
class Series
{
  public:
    struct Point
    {
        double x;
        double y;
    };

    explicit Series(std::string name) : seriesName(std::move(name)) {}

    void add(double x, double y) { points.push_back({x, y}); }

    const std::string &name() const { return seriesName; }
    const std::vector<Point> &data() const { return points; }
    bool empty() const { return points.empty(); }

  private:
    std::string seriesName;
    std::vector<Point> points;
};

} // namespace hh::base

#endif // HYPERHAMMER_BASE_STATS_H
