/**
 * @file
 * Figure 10: stability analysis — agents that recommend breaking away
 * from their assigned colocations, as alpha varies.
 *
 * Alpha is the minimum performance benefit for which an agent breaks
 * away; with alpha = 2%, agents defect only for new colocations
 * improving both agents' penalties by at least two points. An agent
 * recommends breaking away when it belongs to at least one blocking
 * pair. Distributions are over 50 populations of 1000 sampled jobs.
 * Expected shape: counts fall as alpha grows; GR is least stable, CO
 * moderate, SMR most stable, with SMP and SR in between.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "stats/descriptive.hh"
#include "util/chart.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace cooper;

    CliFlags flags;
    flags.declare("agents", "1000", "population size per trial");
    flags.declare("trials", "50", "trial populations");
    flags.declare("seed", "1", "base RNG seed");
    flags.declare("csv", "", "optional path to also write CSV");
    if (!flags.parse(argc, argv))
        return 0;

    return bench::runHarness(
        "Figure 10: break-away agents vs alpha for each policy", [&] {
        const Catalog catalog = Catalog::paperTableI();
        const InterferenceModel model(catalog);
        const auto agents =
            static_cast<std::size_t>(flags.getInt("agents"));
        const auto trials =
            static_cast<std::size_t>(flags.getInt("trials"));
        const std::vector<double> alphas{0.00, 0.01, 0.02,
                                         0.03, 0.04, 0.05};
        const auto policies = figurePolicies();

        // counts[policy][alpha] -> break-away-agent samples; raw
        // blocking-pair counts kept as a diagnostic.
        std::map<std::string, std::vector<std::vector<double>>> counts;
        std::map<std::string, std::vector<double>> raw_pairs;
        for (const auto &policy : policies) {
            counts[policy->name()].resize(alphas.size());
            raw_pairs[policy->name()].resize(alphas.size(), 0.0);
        }

        Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
        for (std::size_t trial = 0; trial < trials; ++trial) {
            const auto instance = sampleInstance(
                catalog, model, agents, MixKind::Uniform, rng);
            const Disutility &d = instance.trueView();
            for (const auto &policy : policies) {
                Rng policy_rng = rng.split();
                const Matching m = policy->assign(instance, policy_rng);
                for (std::size_t k = 0; k < alphas.size(); ++k) {
                    const auto pairs =
                        findBlockingPairs(m, d, alphas[k]);
                    std::vector<std::uint8_t> blocked(m.size(), 0);
                    for (const auto &pair : pairs) {
                        blocked[pair.a] = 1;
                        blocked[pair.b] = 1;
                    }
                    double agents_blocked = 0.0;
                    for (std::uint8_t b : blocked)
                        agents_blocked += b;
                    counts[policy->name()][k].push_back(agents_blocked);
                    raw_pairs[policy->name()][k] +=
                        static_cast<double>(pairs.size()) /
                        static_cast<double>(trials);
                }
            }
        }

        Table table({"policy", "alpha", "median", "q1", "q3", "min",
                     "max", "mean_blocking_pairs"});
        for (const auto &policy : policies) {
            std::vector<std::string> labels;
            std::vector<BoxStats> boxes;
            for (std::size_t k = 0; k < alphas.size(); ++k) {
                const auto &samples = counts[policy->name()][k];
                const BoxStats box = boxStats(samples, 3.0);
                table.addRow(
                    {policy->name(), Table::num(alphas[k], 2),
                     Table::num(median(samples), 1),
                     Table::num(box.q1, 1), Table::num(box.q3, 1),
                     Table::num(minOf(samples), 0),
                     Table::num(maxOf(samples), 0),
                     Table::num(raw_pairs[policy->name()][k], 1)});
                labels.push_back("alpha=" + Table::num(alphas[k], 2));
                boxes.push_back(box);
            }
            std::cout << renderBoxplots(policy->name() +
                                            ": break-away agents vs "
                                            "alpha",
                                        labels, boxes)
                      << "\n";
        }
        table.print(std::cout);
        std::cout << "\nExpected shape: counts fall with alpha; GR "
                     "worst, SMR best (near zero\nfor alpha >= 1%), CO "
                     "moderate, SMP and SR in between.\n";

        if (const std::string path = flags.get("csv"); !path.empty())
            table.writeCsv(path);
    });
}
