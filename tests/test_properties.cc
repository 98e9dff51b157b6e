/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * sweeps of population sizes, seeds, policies, and workload mixes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cf/accuracy.hh"
#include "cf/item_knn.hh"
#include "cf/subsample.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "matching/blocking.hh"
#include "matching/stable_marriage.hh"
#include "matching/stable_roommates.hh"
#include "sim/profiler.hh"
#include "util/rng.hh"

namespace cooper {
namespace {

// ---------------------------------------------------------------------
// Property: every policy returns a consistent, maximal matching on any
// population size, mix, and seed.
// ---------------------------------------------------------------------

using PolicyCase = std::tuple<std::string, std::size_t, int, int>;

class PolicyInvariants : public ::testing::TestWithParam<PolicyCase>
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

TEST_P(PolicyInvariants, MatchingIsConsistentAndMaximal)
{
    const auto &[name, agents, mix_index, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto instance = sampleInstance(
        catalog_, model_, agents,
        allMixes()[static_cast<std::size_t>(mix_index)], rng);
    const auto policy = makePolicy(name);
    const Matching m = policy->assign(instance, rng);

    EXPECT_TRUE(m.consistent());
    EXPECT_EQ(m.size(), agents);
    // All figure policies pair everyone (threshold may not).
    if (name != "TH") {
        EXPECT_EQ(m.pairCount(), agents / 2);
    }

    // Penalties of matched agents are valid disutilities.
    for (double d : instance.truePenalties(m)) {
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, PolicyInvariants,
    ::testing::Combine(
        ::testing::Values("GR", "CO", "SMP", "SMR", "SR", "TH"),
        ::testing::Values(std::size_t(10), std::size_t(57),
                          std::size_t(128)),
        ::testing::Values(0, 1, 2, 3), ::testing::Values(1, 97)));

// ---------------------------------------------------------------------
// Property: marriage outcomes are stable for every size and seed.
// ---------------------------------------------------------------------

class MarriageStability
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{};

TEST_P(MarriageStability, NoBlockingPairs)
{
    const auto &[n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<std::vector<AgentId>> mlists(n), wlists(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            mlists[i].push_back(j);
            wlists[i].push_back(j);
        }
        rng.shuffle(mlists[i]);
        rng.shuffle(wlists[i]);
    }
    PreferenceProfile proposers(std::move(mlists), n);
    PreferenceProfile acceptors(std::move(wlists), n);
    const MarriageResult result = stableMarriage(proposers, acceptors);
    EXPECT_EQ(marriageBlockingPairs(proposers, acceptors,
                                    result.proposerPartner),
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    MarriageSweep, MarriageStability,
    ::testing::Combine(::testing::Values(std::size_t(1), std::size_t(2),
                                         std::size_t(17),
                                         std::size_t(64)),
                       ::testing::Values(3, 7, 23)));

// ---------------------------------------------------------------------
// Property: adapted roommates produces perfect matchings whose
// blocking pairs never exceed greedy's on identical instances.
// ---------------------------------------------------------------------

class RoommatesVsGreedy
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

TEST_P(RoommatesVsGreedy, StableSideNeverWorse)
{
    const auto &[n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto instance =
        sampleInstance(catalog_, model_, n, MixKind::Uniform, rng);

    Rng rng_sr(1), rng_gr(1);
    const Matching sr =
        StableRoommatePolicy().assign(instance, rng_sr);
    const Matching gr = GreedyPolicy().assign(instance, rng_gr);
    const Disutility &d = instance.trueView();
    EXPECT_LE(countBlockingPairs(sr, d, 0.0),
              countBlockingPairs(gr, d, 0.0));
}

INSTANTIATE_TEST_SUITE_P(
    RoommatesSweep, RoommatesVsGreedy,
    ::testing::Combine(::testing::Values(std::size_t(20),
                                         std::size_t(60),
                                         std::size_t(100)),
                       ::testing::Values(11, 19, 31)));

// ---------------------------------------------------------------------
// Property: CF preference accuracy improves as more profiles are
// sampled (Figure 12's trend), for several seeds.
// ---------------------------------------------------------------------

class CfAccuracyTrend : public ::testing::TestWithParam<int>
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    /**
     * Figure 12's protocol: the full measured profile database is the
     * "true list"; the predictor sees a sampled subset of its cells.
     */
    double
    accuracyAt(double ratio, std::uint64_t seed)
    {
        SystemProfiler profiler(model_, NoiseConfig{0.004, -0.02}, seed);
        const SparseMatrix full = profiler.sampleProfiles(1.0);
        Rng rng(seed * 31 + 7);
        const SparseMatrix sparse =
            subsampleSymmetric(full, ratio, 2, rng);

        ItemKnnPredictor predictor;
        const Prediction p = predictor.predict(sparse);
        const std::size_t n = catalog_.size();
        std::vector<std::vector<double>> truth(
            n, std::vector<double>(n, 0.0));
        for (JobTypeId i = 0; i < n; ++i)
            for (JobTypeId j = 0; j < n; ++j)
                truth[i][j] = full.at(i, j);
        return preferenceAccuracy(truth, p.dense);
    }
};

TEST_P(CfAccuracyTrend, MoreProfilesMoreAccuracy)
{
    // Paper: accuracy starts near 83% with 25% of colocations
    // profiled and rises toward 95% with 75%.
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const double sparse = accuracyAt(0.25, seed);
    const double dense = accuracyAt(0.75, seed);
    EXPECT_GT(sparse, 0.72);
    EXPECT_GT(dense, sparse);
    EXPECT_GT(dense, 0.90);
}

INSTANTIATE_TEST_SUITE_P(CfSweep, CfAccuracyTrend,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Property: the fairness ordering of policies holds across seeds:
// SMR and SR correlate penalty with contentiousness more strongly
// than GR on uniform populations.
// ---------------------------------------------------------------------

class FairnessOrdering : public ::testing::TestWithParam<int>
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

TEST_P(FairnessOrdering, StablePoliciesFairerThanGreedy)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const auto instance =
        sampleInstance(catalog_, model_, 600, MixKind::Uniform, rng);

    auto corr_for = [&](const std::string &name) {
        Rng policy_rng(77);
        const auto policy = makePolicy(name);
        const Matching m = policy->assign(instance, policy_rng);
        const auto rows = aggregateByType(instance, m);
        return fairness(rows).rankCorrelation;
    };
    const double gr = corr_for("GR");
    const double smr = corr_for("SMR");
    const double sr = corr_for("SR");
    EXPECT_GT(smr, gr);
    EXPECT_GT(sr, gr);
    EXPECT_GT(smr, 0.5);
    EXPECT_GT(sr, 0.5);
}

INSTANTIATE_TEST_SUITE_P(FairnessSweep, FairnessOrdering,
                         ::testing::Values(101, 202, 303));

} // namespace
} // namespace cooper
