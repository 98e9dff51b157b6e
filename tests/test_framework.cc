/**
 * @file
 * Integration tests for the end-to-end Cooper framework.
 */

#include <gtest/gtest.h>

#include "core/framework.hh"
#include "matching/blocking.hh"
#include "util/error.hh"
#include "workload/population.hh"

namespace cooper {
namespace {

class FrameworkTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    std::vector<JobTypeId>
    population(std::size_t n, std::uint64_t seed = 1)
    {
        Rng rng(seed);
        return samplePopulation(catalog_, n, MixKind::Uniform, rng);
    }
};

TEST_F(FrameworkTest, OracularEpochProducesPerfectMatching)
{
    FrameworkConfig config;
    config.policy = "SMR";
    config.oracular = true;
    CooperFramework framework(catalog_, model_, config, 1);
    const EpochReport report = framework.runEpoch(population(100));
    EXPECT_TRUE(report.matching.isPerfect());
    EXPECT_EQ(report.penalties.size(), 100u);
    EXPECT_GT(report.meanPenalty, 0.0);
    EXPECT_DOUBLE_EQ(report.predictionAccuracy, 1.0);
}

TEST_F(FrameworkTest, CfEpochReportsAccuracyAndDensity)
{
    FrameworkConfig config;
    config.policy = "SMR";
    config.oracular = false;
    config.sampleRatio = 0.25;
    CooperFramework framework(catalog_, model_, config, 2);
    const EpochReport report = framework.runEpoch(population(60));
    EXPECT_GT(report.predictionAccuracy, 0.7);
    EXPECT_LT(report.predictionAccuracy, 1.0);
    EXPECT_GE(report.profiledDensity, 0.25);
}

TEST_F(FrameworkTest, MessageProtocolMatchesDirectBlockingCount)
{
    // In oracular mode the agents' assessed disutilities equal the
    // ground truth, so message-based discovery must agree with
    // findBlockingPairs.
    FrameworkConfig config;
    config.policy = "GR";
    config.oracular = true;
    config.alpha = 0.0;
    CooperFramework framework(catalog_, model_, config, 3);
    const auto pop = population(80, 5);
    const EpochReport report = framework.runEpoch(pop);

    ColocationInstance instance = framework.buildInstance(pop);
    const std::size_t direct =
        countBlockingPairs(report.matching, instance.trueView(), 0.0);
    EXPECT_EQ(report.blockingPairs, direct);
}

TEST_F(FrameworkTest, AlphaReducesBlockingPairs)
{
    FrameworkConfig base;
    base.policy = "GR";
    base.oracular = true;
    base.alpha = 0.0;
    FrameworkConfig strict = base;
    strict.alpha = 0.05;

    const auto pop = population(100, 7);
    CooperFramework loose(catalog_, model_, base, 4);
    CooperFramework tight(catalog_, model_, strict, 4);
    EXPECT_GE(loose.runEpoch(pop).blockingPairs,
              tight.runEpoch(pop).blockingPairs);
}

TEST_F(FrameworkTest, StablePolicyYieldsFewerBreakAways)
{
    FrameworkConfig gr_config;
    gr_config.policy = "GR";
    gr_config.oracular = true;
    FrameworkConfig sr_config = gr_config;
    sr_config.policy = "SR";

    const auto pop = population(120, 9);
    CooperFramework gr(catalog_, model_, gr_config, 5);
    CooperFramework sr(catalog_, model_, sr_config, 5);
    EXPECT_LT(sr.runEpoch(pop).breakAwayAgents,
              gr.runEpoch(pop).breakAwayAgents);
}

TEST_F(FrameworkTest, DispatchCoversAllPairs)
{
    FrameworkConfig config;
    config.policy = "CO";
    config.oracular = true;
    config.machines = 10;
    CooperFramework framework(catalog_, model_, config, 6);
    const EpochReport report = framework.runEpoch(population(60));
    EXPECT_EQ(report.dispatch.completions.size(), 30u);
    EXPECT_GT(report.dispatch.makespanSec, 0.0);
    EXPECT_GT(report.dispatch.utilization, 0.0);
}

TEST_F(FrameworkTest, RecommendationsCoverEveryAgent)
{
    FrameworkConfig config;
    config.policy = "SMP";
    config.oracular = true;
    CooperFramework framework(catalog_, model_, config, 7);
    const EpochReport report = framework.runEpoch(population(40));
    EXPECT_EQ(report.recommendations.size(), 40u);
    std::size_t breakaways = 0;
    for (const auto &rec : report.recommendations)
        if (rec.action == ActionKind::BreakAway)
            ++breakaways;
    EXPECT_EQ(breakaways, report.breakAwayAgents);
}

TEST_F(FrameworkTest, EmptyPopulationFatal)
{
    FrameworkConfig config;
    config.oracular = true;
    CooperFramework framework(catalog_, model_, config, 8);
    EXPECT_THROW(framework.runEpoch({}), FatalError);
}

TEST_F(FrameworkTest, BadSampleRatioFatal)
{
    FrameworkConfig config;
    config.sampleRatio = 0.0;
    EXPECT_THROW(CooperFramework(catalog_, model_, config, 9),
                 FatalError);
}

TEST_F(FrameworkTest, UnknownPolicyFatal)
{
    FrameworkConfig config;
    config.policy = "NOPE";
    EXPECT_THROW(CooperFramework(catalog_, model_, config, 10),
                 FatalError);
}

} // namespace
} // namespace cooper
