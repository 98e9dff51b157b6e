#include "policies.hh"

#include <algorithm>
#include <numeric>

#include "matching/stable_marriage.hh"
#include "matching/stable_roommates.hh"
#include "util/error.hh"

namespace cooper {

namespace {

/** Agent ids sorted by their type's bandwidth demand (ascending). */
std::vector<AgentId>
agentsByDemand(const ColocationInstance &instance)
{
    std::vector<AgentId> order(instance.agents());
    std::iota(order.begin(), order.end(), AgentId(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](AgentId a, AgentId b) {
                         const double da =
                             instance.catalog().job(instance.typeOf(a)).gbps;
                         const double db =
                             instance.catalog().job(instance.typeOf(b)).gbps;
                         return da < db;
                     });
    return order;
}

/**
 * Run stable marriage between two agent sets and lift the result to a
 * global matching. `proposers` and `acceptors` hold global agent ids.
 */
Matching
marriageBetween(const ColocationInstance &instance,
                const std::vector<AgentId> &proposers,
                const std::vector<AgentId> &acceptors)
{
    const Disutility &believed = instance.believedView();
    const PreferenceProfile prop_prefs =
        PreferenceProfile::fromDisutility(believed, proposers, acceptors);
    const PreferenceProfile acc_prefs =
        PreferenceProfile::fromDisutility(believed, acceptors, proposers);

    const MarriageResult result = stableMarriage(prop_prefs, acc_prefs);

    Matching matching(instance.agents());
    for (AgentId m = 0; m < proposers.size(); ++m)
        if (result.proposerPartner[m] != kUnmatched)
            matching.pair(proposers[m],
                          acceptors[result.proposerPartner[m]]);
    return matching;
}

} // namespace

Matching
GreedyPolicy::assign(const ColocationInstance &instance, Rng &rng) const
{
    const std::size_t n = instance.agents();
    const std::size_t machines = n / 2 + (n % 2);
    const auto arrival = rng.permutation(n);

    Matching matching(n);
    std::vector<AgentId> solo; // agents alone on a machine so far
    std::size_t open_machines = machines;

    for (std::size_t k = 0; k < n; ++k) {
        const AgentId task = arrival[k];
        // GR minimizes *contention* — demand for shared memory — not
        // penalty (Section II defines contentiousness as bandwidth
        // demand). An empty processor carries no contention, so it
        // wins while one remains; afterwards the task joins the
        // least-demanding solo occupant. This is precisely what makes
        // GR unfair: low-demand but cache-sensitive jobs like dedup
        // look like ideal targets and absorb contentious co-runners.
        if (open_machines > 0) {
            --open_machines;
            solo.push_back(task);
            continue;
        }
        double best = 0.0;
        std::size_t best_idx = solo.size();
        for (std::size_t s = 0; s < solo.size(); ++s) {
            const AgentId occ = solo[s];
            const double demand =
                instance.catalog().job(instance.typeOf(occ)).gbps;
            if (best_idx == solo.size() || demand < best) {
                best = demand;
                best_idx = s;
            }
        }
        panicIf(best_idx == solo.size(),
                "GreedyPolicy: no machine available for task");
        matching.pair(task, solo[best_idx]);
        solo.erase(solo.begin() +
                   static_cast<std::ptrdiff_t>(best_idx));
    }
    return matching;
}

Matching
ComplementaryPolicy::assign(const ColocationInstance &instance,
                            Rng &rng) const
{
    (void)rng; // deterministic given the population
    const auto order = agentsByDemand(instance);
    const std::size_t n = order.size();

    Matching matching(instance.agents());
    // Most demanding with least demanding, second-most with
    // second-least, and so on; the median agent of an odd population
    // runs alone.
    for (std::size_t k = 0; k < n / 2; ++k)
        matching.pair(order[k], order[n - 1 - k]);
    return matching;
}

Matching
StableMarriagePartitionPolicy::assign(const ColocationInstance &instance,
                                      Rng &rng) const
{
    (void)rng;
    const auto order = agentsByDemand(instance);
    const std::size_t half = order.size() / 2;

    // Lower half: compute-intensive acceptors. Upper half:
    // memory-intensive proposers (the resource-intensive set
    // proposes). The median of an odd population is left out.
    std::vector<AgentId> acceptors(order.begin(),
                                   order.begin() +
                                       static_cast<std::ptrdiff_t>(half));
    std::vector<AgentId> proposers(
        order.end() - static_cast<std::ptrdiff_t>(half), order.end());
    return marriageBetween(instance, proposers, acceptors);
}

Matching
StableMarriageRandomPolicy::assign(const ColocationInstance &instance,
                                   Rng &rng) const
{
    std::vector<AgentId> order(instance.agents());
    std::iota(order.begin(), order.end(), AgentId(0));
    rng.shuffle(order);
    const std::size_t half = order.size() / 2;

    std::vector<AgentId> proposers(order.begin(),
                                   order.begin() +
                                       static_cast<std::ptrdiff_t>(half));
    std::vector<AgentId> acceptors(
        order.begin() + static_cast<std::ptrdiff_t>(half),
        order.begin() + static_cast<std::ptrdiff_t>(2 * half));
    return marriageBetween(instance, proposers, acceptors);
}

Matching
StableRoommatePolicy::assign(const ColocationInstance &instance,
                             Rng &rng) const
{
    (void)rng;
    return adaptedRoommates(instance.believedPreferences(),
                            instance.believedView())
        .matching;
}

ThresholdPolicy::ThresholdPolicy(double tolerance)
    : tolerance_(tolerance)
{
    fatalIf(tolerance <= 0.0, "ThresholdPolicy: tolerance must be > 0");
}

Matching
ThresholdPolicy::assign(const ColocationInstance &instance, Rng &rng) const
{
    const std::size_t n = instance.agents();
    const auto arrival = rng.permutation(n);

    Matching matching(n);
    std::vector<AgentId> solo;
    for (std::size_t k = 0; k < n; ++k) {
        const AgentId task = arrival[k];
        double best = 0.0;
        std::size_t best_idx = solo.size();
        for (std::size_t s = 0; s < solo.size(); ++s) {
            const AgentId occ = solo[s];
            const double d_task = instance.believedDisutility(task, occ);
            const double d_occ = instance.believedDisutility(occ, task);
            if (d_task >= tolerance_ || d_occ >= tolerance_)
                continue;
            const double cost = d_task + d_occ;
            if (best_idx == solo.size() || cost < best) {
                best = cost;
                best_idx = s;
            }
        }
        if (best_idx == solo.size()) {
            solo.push_back(task); // add a machine
        } else {
            matching.pair(task, solo[best_idx]);
            solo.erase(solo.begin() +
                       static_cast<std::ptrdiff_t>(best_idx));
        }
    }
    return matching;
}

std::vector<std::unique_ptr<ColocationPolicy>>
figurePolicies()
{
    std::vector<std::unique_ptr<ColocationPolicy>> out;
    out.push_back(std::make_unique<GreedyPolicy>());
    out.push_back(std::make_unique<ComplementaryPolicy>());
    out.push_back(std::make_unique<StableMarriagePartitionPolicy>());
    out.push_back(std::make_unique<StableMarriageRandomPolicy>());
    out.push_back(std::make_unique<StableRoommatePolicy>());
    return out;
}

std::unique_ptr<ColocationPolicy>
makePolicy(const std::string &name)
{
    if (name == "GR")
        return std::make_unique<GreedyPolicy>();
    if (name == "CO")
        return std::make_unique<ComplementaryPolicy>();
    if (name == "SMP")
        return std::make_unique<StableMarriagePartitionPolicy>();
    if (name == "SMR")
        return std::make_unique<StableMarriageRandomPolicy>();
    if (name == "SR")
        return std::make_unique<StableRoommatePolicy>();
    if (name == "TH")
        return std::make_unique<ThresholdPolicy>();
    fatal("makePolicy: unknown policy '", name, "'");
}

} // namespace cooper
