#include "prefs.hh"

#include <algorithm>
#include <numeric>

namespace cooper {

CoalitionPreferences::CoalitionPreferences(const Disutility &believed)
    : n_(believed.agents()), values_(n_ * n_, 0.0), rowMin_(n_, 0.0)
{
    for (AgentId a = 0; a < n_; ++a) {
        double *row = values_.data() + a * n_;
        for (AgentId b = 0; b < n_; ++b)
            row[b] = believed(a, b);
        rowMin_[a] = *std::min_element(row, row + n_);
    }
    std::vector<AgentId> all(n_);
    std::iota(all.begin(), all.end(), AgentId(0));
    profile_ = PreferenceProfile::fromDisutility(believed, all, all);
}

double
CoalitionPreferences::believedPenalty(
    AgentId self, std::span<const AgentId> others) const
{
    const double *row = values_.data() + self * n_;
    double total = 0.0;
    for (AgentId other : others)
        total += row[other];
    return total;
}

double
CoalitionPreferences::bestPossiblePenalty(AgentId self,
                                          std::size_t max_size) const
{
    const double row_min = rowMin_[self];
    if (row_min >= 0.0)
        return row_min;
    return static_cast<double>(max_size - 1) * row_min;
}

} // namespace cooper
