/**
 * @file
 * Unit tests for the colocation policies.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hh"
#include "core/policies.hh"
#include "matching/blocking.hh"
#include "util/error.hh"

namespace cooper {
namespace {

class PolicyTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    ColocationInstance
    makeInstance(std::size_t n, std::uint64_t seed = 1,
                 MixKind mix = MixKind::Uniform)
    {
        Rng rng(seed);
        return sampleInstance(catalog_, model_, n, mix, rng);
    }
};

TEST_F(PolicyTest, AllPoliciesProducePerfectMatchingsOnEvenPopulations)
{
    const auto instance = makeInstance(100);
    for (const auto &policy : figurePolicies()) {
        Rng rng(7);
        const Matching m = policy->assign(instance, rng);
        EXPECT_TRUE(m.consistent()) << policy->name();
        EXPECT_TRUE(m.isPerfect()) << policy->name();
    }
}

TEST_F(PolicyTest, OddPopulationsLeaveExactlyOneAlone)
{
    const auto instance = makeInstance(31);
    for (const auto &policy : figurePolicies()) {
        Rng rng(7);
        const Matching m = policy->assign(instance, rng);
        EXPECT_EQ(m.pairCount(), 15u) << policy->name();
    }
}

TEST_F(PolicyTest, GreedyBeatsRandomOnMeanPenalty)
{
    const auto instance = makeInstance(200, 3);
    Rng rng(11);
    GreedyPolicy greedy;
    const Matching gm = greedy.assign(instance, rng);

    // Random pairing for comparison.
    Matching random_m(instance.agents());
    auto perm = rng.permutation(instance.agents());
    for (std::size_t k = 0; k + 1 < perm.size(); k += 2)
        random_m.pair(perm[k], perm[k + 1]);

    EXPECT_LT(instance.meanTruePenalty(gm),
              instance.meanTruePenalty(random_m));
}

TEST_F(PolicyTest, ComplementaryPairsExtremesTogether)
{
    const auto instance = makeInstance(50, 5);
    Rng rng(1);
    ComplementaryPolicy co;
    const Matching m = co.assign(instance, rng);
    // The most demanding agent pairs with the least demanding.
    AgentId most = 0, least = 0;
    for (AgentId a = 1; a < instance.agents(); ++a) {
        const double d = catalog_.job(instance.typeOf(a)).gbps;
        if (d > catalog_.job(instance.typeOf(most)).gbps)
            most = a;
        if (d < catalog_.job(instance.typeOf(least)).gbps)
            least = a;
    }
    const double partner_demand =
        catalog_.job(instance.typeOf(m.partnerOf(most))).gbps;
    const double least_demand =
        catalog_.job(instance.typeOf(least)).gbps;
    EXPECT_NEAR(partner_demand, least_demand, 1e-9);
}

TEST_F(PolicyTest, SmpNeverPairsWithinSameHalf)
{
    const auto instance = makeInstance(60, 9);
    Rng rng(2);
    StableMarriagePartitionPolicy smp;
    const Matching m = smp.assign(instance, rng);

    // Recover the demand ordering to identify halves.
    std::vector<AgentId> order(instance.agents());
    std::iota(order.begin(), order.end(), AgentId(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](AgentId a, AgentId b) {
                         return catalog_.job(instance.typeOf(a)).gbps <
                                catalog_.job(instance.typeOf(b)).gbps;
                     });
    std::vector<int> half(instance.agents(), 0);
    for (std::size_t k = 0; k < order.size(); ++k)
        half[order[k]] = k < order.size() / 2 ? 0 : 1;

    for (const auto &[a, b] : m.pairs())
        EXPECT_NE(half[a], half[b]);
}

TEST_F(PolicyTest, SmrMatchingIsStableAcrossThePartition)
{
    // SMR produces no blocking pair in which both agents would gain;
    // cross-partition stability is guaranteed by Gale-Shapley, and
    // within-partition pairs may still block (counted by Figure 10),
    // so check the matching exists and is perfect here.
    const auto instance = makeInstance(80, 13);
    Rng rng(3);
    StableMarriageRandomPolicy smr;
    const Matching m = smr.assign(instance, rng);
    EXPECT_TRUE(m.isPerfect());
}

TEST_F(PolicyTest, SrProducesFewerBlockingPairsThanGreedy)
{
    const auto instance = makeInstance(120, 17);
    Rng rng_a(4), rng_b(4);
    StableRoommatePolicy sr;
    GreedyPolicy gr;
    const Matching sr_m = sr.assign(instance, rng_a);
    const Matching gr_m = gr.assign(instance, rng_b);
    const Disutility &d = instance.trueView();
    EXPECT_LT(countBlockingPairs(sr_m, d, 0.0),
              countBlockingPairs(gr_m, d, 0.0));
}

TEST_F(PolicyTest, ThresholdRespectsTolerance)
{
    const auto instance = makeInstance(100, 19, MixKind::BetaHigh);
    Rng rng(5);
    ThresholdPolicy th(0.10);
    const Matching m = th.assign(instance, rng);
    for (const auto &[a, b] : m.pairs()) {
        EXPECT_LT(instance.believedDisutility(a, b), 0.10 + 1e-9);
        EXPECT_LT(instance.believedDisutility(b, a), 0.10 + 1e-9);
    }
}

TEST_F(PolicyTest, ThresholdLeavesContentiousJobsAlone)
{
    // With a Beta-High mix and a tight 5% tolerance, many pairs
    // exceed the threshold, so some agents must run alone on extra
    // machines.
    const auto instance = makeInstance(100, 23, MixKind::BetaHigh);
    Rng rng(6);
    ThresholdPolicy th(0.05);
    const Matching m = th.assign(instance, rng);
    EXPECT_LT(m.pairCount(), 50u);
}

TEST_F(PolicyTest, ThresholdBadToleranceFatal)
{
    EXPECT_THROW(ThresholdPolicy(0.0), FatalError);
    EXPECT_THROW(ThresholdPolicy(-1.0), FatalError);
}

TEST_F(PolicyTest, MakePolicyRoundTrip)
{
    for (const char *name : {"GR", "CO", "SMP", "SMR", "SR", "TH"}) {
        const auto policy = makePolicy(name);
        EXPECT_EQ(policy->name(), name);
    }
    EXPECT_THROW(makePolicy("XX"), FatalError);
}

TEST_F(PolicyTest, FigurePoliciesOrderMatchesPaper)
{
    const auto policies = figurePolicies();
    ASSERT_EQ(policies.size(), 5u);
    EXPECT_EQ(policies[0]->name(), "GR");
    EXPECT_EQ(policies[1]->name(), "CO");
    EXPECT_EQ(policies[2]->name(), "SMP");
    EXPECT_EQ(policies[3]->name(), "SMR");
    EXPECT_EQ(policies[4]->name(), "SR");
}

TEST_F(PolicyTest, DeterministicGivenSameSeed)
{
    const auto instance = makeInstance(40, 29);
    for (const auto &policy : figurePolicies()) {
        Rng rng_a(31), rng_b(31);
        const Matching a = policy->assign(instance, rng_a);
        const Matching b = policy->assign(instance, rng_b);
        EXPECT_EQ(a.pairs(), b.pairs()) << policy->name();
    }
}

} // namespace
} // namespace cooper
