#include "groups.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "coalition/value.hh"
#include "matching/stable_roommates.hh"
#include "util/error.hh"

namespace cooper {

std::size_t
Grouping::agentCount() const
{
    std::size_t total = 0;
    for (const auto &group : groups)
        total += group.size();
    return total;
}

bool
Grouping::isPartitionOf(std::size_t agents) const
{
    std::vector<std::uint8_t> seen(agents, 0);
    for (const auto &group : groups) {
        for (AgentId a : group) {
            if (a >= agents || seen[a])
                return false;
            seen[a] = 1;
        }
    }
    return agentCount() == agents;
}

double
trueGroupPenalty(const ColocationInstance &instance,
                 const InterferenceModel &model, AgentId self,
                 const std::vector<AgentId> &group)
{
    std::vector<JobTypeId> others;
    others.reserve(group.size());
    bool found = false;
    for (AgentId member : group) {
        if (member == self) {
            found = true;
            continue;
        }
        others.push_back(instance.typeOf(member));
    }
    fatalIf(!found, "trueGroupPenalty: agent ", self,
            " is not in the group");
    // One shared route to multi-co-runner penalties: the coalition
    // subsystem, these evaluation helpers, and the group benchmarks
    // all price colocation through the same value function.
    return coalitionMemberPenalty(model, instance.typeOf(self), others);
}

std::vector<double>
trueGroupPenalties(const ColocationInstance &instance,
                   const InterferenceModel &model,
                   const Grouping &grouping)
{
    std::vector<double> out(instance.agents(), 0.0);
    for (const auto &group : grouping.groups)
        for (AgentId a : group)
            out[a] = trueGroupPenalty(instance, model, a, group);
    return out;
}

namespace {

/**
 * One level of pair-the-pairs: match super-agents (current groups)
 * with adapted stable roommates under additive believed disutility,
 * merging matched groups.
 */
std::vector<std::vector<AgentId>>
mergeLevel(const ColocationInstance &instance,
           std::vector<std::vector<AgentId>> groups)
{
    const std::size_t m = groups.size();
    if (m < 2)
        return groups;

    const Disutility super_disutility =
        Disutility::tabulate(m, [&](AgentId gi, AgentId gj) {
            double acc = 0.0;
            for (AgentId a : groups[gi])
                for (AgentId b : groups[gj])
                    acc += instance.believedDisutility(a, b);
            return acc;
        });
    std::vector<AgentId> all(m);
    std::iota(all.begin(), all.end(), AgentId(0));
    const auto prefs =
        PreferenceProfile::fromDisutility(super_disutility, all, all);
    const RoommatesResult result =
        adaptedRoommates(prefs, super_disutility);

    std::vector<std::vector<AgentId>> merged;
    std::vector<std::uint8_t> used(m, 0);
    for (AgentId g = 0; g < m; ++g) {
        if (used[g])
            continue;
        used[g] = 1;
        std::vector<AgentId> group = groups[g];
        const AgentId partner = result.matching.partnerOf(g);
        if (partner != kUnmatched && !used[partner]) {
            used[partner] = 1;
            group.insert(group.end(), groups[partner].begin(),
                         groups[partner].end());
        }
        merged.push_back(std::move(group));
    }
    return merged;
}

} // namespace

Grouping
hierarchicalGroups(const ColocationInstance &instance,
                   std::size_t group_size, Rng &rng)
{
    (void)rng; // deterministic given the instance
    fatalIf(group_size < 2 || !std::has_single_bit(group_size),
            "hierarchicalGroups: group size must be a power of two "
            ">= 2, got ",
            group_size);

    // Level 0: every agent is its own group; each merge level doubles
    // the group size via stable matching over super-agents.
    std::vector<std::vector<AgentId>> groups(instance.agents());
    for (AgentId a = 0; a < instance.agents(); ++a)
        groups[a] = {a};
    for (std::size_t size = 1; size < group_size; size *= 2)
        groups = mergeLevel(instance, std::move(groups));

    Grouping out;
    out.groups = std::move(groups);
    return out;
}

Grouping
greedyGroups(const ColocationInstance &instance, std::size_t group_size,
             Rng &rng)
{
    fatalIf(group_size < 2, "greedyGroups: group size must be >= 2");
    const std::size_t n = instance.agents();
    const std::size_t machines = (n + group_size - 1) / group_size;
    const auto arrival = rng.permutation(n);

    std::vector<std::vector<AgentId>> groups;
    groups.reserve(machines);
    std::size_t open_machines = machines;

    for (std::size_t k = 0; k < n; ++k) {
        const AgentId task = arrival[k];
        if (open_machines > 0) {
            --open_machines;
            groups.push_back({task});
            continue;
        }
        // Join the non-full machine with the least combined demand.
        double best = 0.0;
        std::size_t best_idx = groups.size();
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (groups[g].size() >= group_size)
                continue;
            double demand = 0.0;
            for (AgentId occ : groups[g])
                demand +=
                    instance.catalog().job(instance.typeOf(occ)).gbps;
            if (best_idx == groups.size() || demand < best) {
                best = demand;
                best_idx = g;
            }
        }
        panicIf(best_idx == groups.size(),
                "greedyGroups: no machine has a free slot");
        groups[best_idx].push_back(task);
    }

    Grouping out;
    out.groups = std::move(groups);
    return out;
}

Grouping
randomGroups(const ColocationInstance &instance, std::size_t group_size,
             Rng &rng)
{
    fatalIf(group_size < 2, "randomGroups: group size must be >= 2");
    const auto order = rng.permutation(instance.agents());

    Grouping out;
    for (std::size_t k = 0; k < order.size(); k += group_size) {
        std::vector<AgentId> group;
        for (std::size_t j = k;
             j < std::min(order.size(), k + group_size); ++j)
            group.push_back(order[j]);
        out.groups.push_back(std::move(group));
    }
    return out;
}

} // namespace cooper
