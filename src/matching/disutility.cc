#include "disutility.hh"

#include <algorithm>

#include "util/error.hh"

namespace cooper {

Disutility::Disutility(std::vector<std::uint32_t> types,
                       std::size_t type_count,
                       std::vector<double> matrix, double jitter)
    : types_(std::move(types)), typeCount_(type_count),
      matrix_(std::move(matrix)), jitter_(jitter)
{
    fatalIf(matrix_.size() != typeCount_ * typeCount_,
            "Disutility: matrix holds ", matrix_.size(),
            " values, expected ", typeCount_, "^2");
    fatalIf(jitter_ < 0.0, "Disutility: negative jitter ", jitter_);
    std::vector<std::uint8_t> present(typeCount_, 0);
    for (std::uint32_t t : types_) {
        fatalIf(t >= typeCount_, "Disutility: type ", t, " out of range (",
                typeCount_, " types)");
        present[t] = 1;
    }
    rowBound_.assign(typeCount_, 0.0);
    for (std::size_t t = 0; t < typeCount_; ++t) {
        bool any = false;
        for (std::size_t u = 0; u < typeCount_; ++u) {
            if (!present[u])
                continue;
            const double m = matrix_[t * typeCount_ + u];
            rowBound_[t] = any ? std::min(rowBound_[t], m) : m;
            any = true;
        }
    }
}

} // namespace cooper
