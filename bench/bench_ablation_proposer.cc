/**
 * @file
 * Ablation: the proposer's advantage in stable marriage.
 *
 * Gale-Shapley favors the proposing side (Section III.C). This
 * harness partitions a population, runs the marriage twice — once per
 * proposing side — and compares each side's mean penalty. Expected
 * shape: proposers do no worse than when receiving proposals, but the
 * advantage is small, especially under random partitions.
 */

#include <iostream>
#include <numeric>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "matching/stable_marriage.hh"
#include "stats/online.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace {

using namespace cooper;

/** Mean penalty of `side` agents when `proposers` proposes. */
std::pair<double, double>
runOneDirection(const ColocationInstance &instance,
                const std::vector<AgentId> &proposers,
                const std::vector<AgentId> &acceptors)
{
    auto side_prefs = [&](const std::vector<AgentId> &side,
                          const std::vector<AgentId> &other) {
        return PreferenceProfile::fromDisutility(instance.believedView(),
                                                 side, other);
    };
    const auto result = stableMarriage(side_prefs(proposers, acceptors),
                                       side_prefs(acceptors, proposers));
    OnlineStats prop_stats, acc_stats;
    for (AgentId m = 0; m < proposers.size(); ++m) {
        if (result.proposerPartner[m] == kUnmatched)
            continue;
        const AgentId w = acceptors[result.proposerPartner[m]];
        prop_stats.add(instance.trueDisutility(proposers[m], w));
        acc_stats.add(instance.trueDisutility(w, proposers[m]));
    }
    return {prop_stats.mean(), acc_stats.mean()};
}

/** Fraction of side-A agents whose partner changes when the
 *  proposing direction flips (0 means the stable matching is
 *  unique). */
double
partnerChurn(const ColocationInstance &instance,
             const std::vector<AgentId> &side_a,
             const std::vector<AgentId> &side_b)
{
    auto side_prefs = [&](const std::vector<AgentId> &side,
                          const std::vector<AgentId> &other) {
        return PreferenceProfile::fromDisutility(instance.believedView(),
                                                 side, other);
    };
    const PreferenceProfile a_over_b = side_prefs(side_a, side_b);
    const PreferenceProfile b_over_a = side_prefs(side_b, side_a);
    const auto forward = stableMarriage(a_over_b, b_over_a);
    const auto backward = stableMarriage(b_over_a, a_over_b);

    std::size_t changed = 0;
    for (AgentId a = 0; a < side_a.size(); ++a) {
        // a's partner when A proposes vs when B proposes.
        const AgentId with_a = forward.proposerPartner[a];
        AgentId with_b = kUnmatched;
        for (AgentId b = 0; b < side_b.size(); ++b)
            if (backward.proposerPartner[b] == a)
                with_b = b;
        if (with_a != with_b)
            ++changed;
    }
    return static_cast<double>(changed) /
           static_cast<double>(side_a.size());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cooper;

    CliFlags flags;
    flags.declare("agents", "1000", "population size per trial");
    flags.declare("trials", "10", "trial populations");
    flags.declare("seed", "1", "base RNG seed");
    if (!flags.parse(argc, argv))
        return 0;

    return bench::runHarness(
        "Ablation: proposer advantage in stable marriage", [&] {
        const Catalog catalog = Catalog::paperTableI();
        const InterferenceModel model(catalog);
        const auto agents =
            static_cast<std::size_t>(flags.getInt("agents"));
        const auto trials =
            static_cast<std::size_t>(flags.getInt("trials"));

        Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
        Table table({"partition", "side", "penalty_when_proposing",
                     "penalty_when_accepting", "advantage_%",
                     "partner_churn_%"});

        for (const char *partition_cstr : {"demand", "random"}) {
            const std::string partition = partition_cstr;
            OnlineStats a_prop, a_acc, b_prop, b_acc, churn;
            for (std::size_t trial = 0; trial < trials; ++trial) {
                const auto instance = sampleInstance(
                    catalog, model, agents, MixKind::Uniform, rng);

                std::vector<AgentId> order(instance.agents());
                std::iota(order.begin(), order.end(), AgentId(0));
                if (partition == "demand") {
                    std::stable_sort(
                        order.begin(), order.end(),
                        [&](AgentId x, AgentId y) {
                            return catalog.job(instance.typeOf(x)).gbps <
                                   catalog.job(instance.typeOf(y)).gbps;
                        });
                } else {
                    rng.shuffle(order);
                }
                const std::size_t half = order.size() / 2;
                std::vector<AgentId> side_a(order.begin(),
                                            order.begin() + half);
                std::vector<AgentId> side_b(order.begin() + half,
                                            order.begin() + 2 * half);

                const auto [ap, bx] =
                    runOneDirection(instance, side_a, side_b);
                a_prop.add(ap);
                b_acc.add(bx);
                const auto [bp, ax] =
                    runOneDirection(instance, side_b, side_a);
                b_prop.add(bp);
                a_acc.add(ax);
                churn.add(partnerChurn(instance, side_a, side_b));
            }
            auto advantage = [](double proposing, double accepting) {
                if (accepting <= 0.0)
                    return 0.0;
                return 100.0 * (accepting - proposing) / accepting;
            };
            table.addRow({partition, "low-demand/first",
                          Table::num(a_prop.mean(), 6),
                          Table::num(a_acc.mean(), 6),
                          Table::num(advantage(a_prop.mean(),
                                               a_acc.mean()), 2),
                          Table::num(100.0 * churn.mean(), 2)});
            table.addRow({partition, "high-demand/second",
                          Table::num(b_prop.mean(), 6),
                          Table::num(b_acc.mean(), 6),
                          Table::num(advantage(b_prop.mean(),
                                               b_acc.mean()), 2),
                          Table::num(100.0 * churn.mean(), 2)});
        }
        table.print(std::cout);
        std::cout << "\nExpected shape: proposing never hurts; the "
                     "advantage is small under\nrandom partitions "
                     "(Section III.C). Near-zero partner churn means "
                     "the\ninstance has an (almost) unique stable "
                     "matching, so the advantage\nvanishes entirely."
                     "\n";
    });
}
