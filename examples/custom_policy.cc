/**
 * @file
 * Extending Cooper with a custom colocation policy.
 *
 * Implements RoundRobinPolicy — the naive "pair jobs in arrival
 * order" scheme — against the ColocationPolicy interface, then scores
 * it against the built-in policies on the three desiderata
 * (performance, fairness, stability). The point of the exercise: the
 * interface only asks for an assignment; the framework supplies
 * profiling, preference prediction, assessment, and dispatch.
 */

#include <iostream>

#include "core/experiment.hh"
#include "core/policies.hh"
#include "matching/blocking.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace {

using namespace cooper;

/** Pairs consecutive arrivals: the policy every datacenter starts
 *  with and the baseline any alternative must beat. */
class RoundRobinPolicy : public ColocationPolicy
{
  public:
    std::string name() const override { return "RR"; }

    Matching
    assign(const ColocationInstance &instance, Rng &rng) const override
    {
        const auto arrival = rng.permutation(instance.agents());
        Matching matching(instance.agents());
        for (std::size_t k = 0; k + 1 < arrival.size(); k += 2)
            matching.pair(arrival[k], arrival[k + 1]);
        return matching;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace cooper;

    CliFlags flags;
    flags.declare("agents", "400", "population size");
    flags.declare("seed", "3", "RNG seed");
    if (!flags.parse(argc, argv))
        return 0;

    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
    const auto instance = sampleInstance(
        catalog, model, static_cast<std::size_t>(flags.getInt("agents")),
        MixKind::Uniform, rng);

    std::cout << "Scoring policies on " << instance.agents()
              << " jobs (performance, fairness, stability):\n\n";

    std::vector<std::unique_ptr<ColocationPolicy>> policies =
        figurePolicies();
    policies.push_back(std::make_unique<RoundRobinPolicy>());

    Table table({"policy", "mean_penalty", "fairness_corr",
                 "blocking_pairs"});
    for (const auto &policy : policies) {
        Rng policy_rng(17);
        const PolicyRun run = runPolicy(*policy, instance, policy_rng);
        const auto rows = aggregateByType(instance, run.matching);
        const std::size_t blocking =
            countBlockingPairs(run.matching, instance.trueView(), 0.0);
        table.addRow({policy->name(), Table::num(run.meanPenalty, 4),
                      Table::num(fairness(rows).rankCorrelation, 3),
                      Table::num(static_cast<long long>(blocking))});
    }
    table.print(std::cout);

    std::cout << "\nRR ignores contention and preferences alike: its "
                 "fairness correlation is\nmiddling by accident and its "
                 "blocking-pair count shows how many users\nwould "
                 "defect. Any custom policy plugged into "
                 "ColocationPolicy gets this\nscorecard for free.\n";
    return 0;
}
