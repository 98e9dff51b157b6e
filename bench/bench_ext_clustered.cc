/**
 * @file
 * Extension (Section VIII): classify applications and match at the
 * class level.
 *
 * Compares type-level matching (TM) and k-means-cluster matching (CM)
 * against the exact agent-level policies on performance, fairness,
 * stability, and matching cost. Expected shape: the approximations
 * recover most of SR's fairness and stability at a fraction of the
 * matching work; stability guarantees weaken as classes coarsen
 * (fewer clusters -> more blocking pairs).
 */

#include <chrono>
#include <iostream>

#include "bench_common.hh"
#include "core/approx_policies.hh"
#include "core/experiment.hh"
#include "matching/blocking.hh"
#include "stats/online.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace cooper;

    CliFlags flags;
    flags.declare("agents", "600", "population size per trial");
    flags.declare("trials", "5", "trial populations");
    flags.declare("seed", "1", "base RNG seed");
    flags.declare("csv", "", "optional path to also write CSV");
    if (!flags.parse(argc, argv))
        return 0;

    return bench::runHarness(
        "Extension: type- and cluster-level matching vs exact policies",
        [&] {
        const Catalog catalog = Catalog::paperTableI();
        const InterferenceModel model(catalog);
        const auto agents =
            static_cast<std::size_t>(flags.getInt("agents"));
        const auto trials =
            static_cast<std::size_t>(flags.getInt("trials"));

        std::vector<std::unique_ptr<ColocationPolicy>> policies;
        policies.push_back(std::make_unique<GreedyPolicy>());
        policies.push_back(std::make_unique<StableRoommatePolicy>());
        policies.push_back(std::make_unique<TypeMatchPolicy>());
        for (std::size_t k : {3u, 6u, 10u})
            policies.push_back(std::make_unique<ClusterMatchPolicy>(k));

        Table table({"policy", "mean_penalty", "fairness_corr",
                     "blocking_pairs_a1%", "assign_ms"});
        Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));

        std::vector<OnlineStats> pen(policies.size()),
            fair(policies.size()), block(policies.size()),
            ms(policies.size());
        for (std::size_t trial = 0; trial < trials; ++trial) {
            const auto instance = sampleInstance(
                catalog, model, agents, MixKind::Uniform, rng);
            const Disutility &d = instance.trueView();
            for (std::size_t p = 0; p < policies.size(); ++p) {
                Rng policy_rng = rng.split();
                const auto start =
                    std::chrono::steady_clock::now();
                const Matching m =
                    policies[p]->assign(instance, policy_rng);
                const auto elapsed =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start);
                ms[p].add(elapsed.count());
                pen[p].add(instance.meanTruePenalty(m));
                fair[p].add(fairness(aggregateByType(instance, m))
                                .rankCorrelation);
                block[p].add(static_cast<double>(
                    countBlockingPairs(m, d, 0.01)));
            }
        }
        for (std::size_t p = 0; p < policies.size(); ++p) {
            std::string label = policies[p]->name();
            if (label == "CM") {
                label += "(k=" + std::to_string(
                    static_cast<ClusterMatchPolicy *>(policies[p].get())
                        ->clusters()) + ")";
            }
            table.addRow({label, Table::num(pen[p].mean(), 4),
                          Table::num(fair[p].mean(), 3),
                          Table::num(block[p].mean(), 1),
                          Table::num(ms[p].mean(), 2)});
        }
        table.print(std::cout);
        std::cout << "\nExpected shape: TM and CM approach SR's "
                     "fairness at far lower matching\ncost; blocking "
                     "pairs grow as the classification coarsens "
                     "(smaller k),\nillustrating the paper's caveat "
                     "that stability guarantees vary.\n";

        if (const std::string path = flags.get("csv"); !path.empty())
            table.writeCsv(path);
    });
}
