#include "instance.hh"

#include <numeric>

#include "util/error.hh"

namespace cooper {

namespace {

Disutility
viewOf(const std::vector<JobTypeId> &types, const PenaltyMatrix &matrix,
       double jitter)
{
    const std::size_t k = matrix.size();
    std::vector<double> values(k * k);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
            values[i * k + j] = matrix(i, j);
    return Disutility(types, k, std::move(values), jitter);
}

} // namespace

ColocationInstance::ColocationInstance(const Catalog &catalog,
                                       std::vector<JobTypeId> types,
                                       PenaltyMatrix truth,
                                       PenaltyMatrix believed,
                                       double jitter)
    : catalog_(&catalog), types_(std::move(types)),
      truth_(std::move(truth)), believed_(std::move(believed)),
      jitter_(jitter)
{
    fatalIf(types_.empty(), "ColocationInstance: empty population");
    fatalIf(truth_.size() != catalog.size(),
            "ColocationInstance: truth matrix is ", truth_.size(),
            "x, catalog has ", catalog.size(), " types");
    fatalIf(believed_.size() != catalog.size(),
            "ColocationInstance: believed matrix size mismatch");
    for (JobTypeId t : types_)
        fatalIf(t >= catalog.size(),
                "ColocationInstance: unknown job type ", t);
    fatalIf(jitter_ < 0.0, "ColocationInstance: negative jitter");
    trueView_ = viewOf(types_, truth_, jitter_);
    believedView_ = viewOf(types_, believed_, jitter_);
}

ColocationInstance
ColocationInstance::oracular(const Catalog &catalog,
                             std::vector<JobTypeId> types,
                             const InterferenceModel &model)
{
    PenaltyMatrix truth = model.penaltyMatrix();
    PenaltyMatrix believed = truth;
    return ColocationInstance(catalog, std::move(types), std::move(truth),
                              std::move(believed));
}

PreferenceProfile
ColocationInstance::believedPreferences() const
{
    std::vector<AgentId> all(agents());
    std::iota(all.begin(), all.end(), AgentId(0));
    return PreferenceProfile::fromDisutility(believedView_, all, all);
}

double
ColocationInstance::meanTruePenalty(const Matching &matching) const
{
    fatalIf(matching.size() != agents(),
            "meanTruePenalty: matching size mismatch");
    double acc = 0.0;
    std::size_t matched = 0;
    for (AgentId a = 0; a < agents(); ++a) {
        if (matching.isMatched(a)) {
            acc += trueDisutility(a, matching.partnerOf(a));
            ++matched;
        }
    }
    return matched ? acc / static_cast<double>(matched) : 0.0;
}

std::vector<double>
ColocationInstance::truePenalties(const Matching &matching) const
{
    fatalIf(matching.size() != agents(),
            "truePenalties: matching size mismatch");
    std::vector<double> out(agents(), 0.0);
    for (AgentId a = 0; a < agents(); ++a)
        if (matching.isMatched(a))
            out[a] = trueDisutility(a, matching.partnerOf(a));
    return out;
}

} // namespace cooper
