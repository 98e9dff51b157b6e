/**
 * @file
 * Unit tests for the type-level and cluster-level matching policies
 * (Section VIII extension).
 */

#include <gtest/gtest.h>

#include "core/approx_policies.hh"
#include "core/experiment.hh"
#include "matching/blocking.hh"
#include "util/error.hh"

namespace cooper {
namespace {

class ApproxPolicyTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};

    ColocationInstance
    makeInstance(std::size_t n, std::uint64_t seed = 1)
    {
        Rng rng(seed);
        return sampleInstance(catalog_, model_, n, MixKind::Uniform,
                              rng);
    }
};

TEST_F(ApproxPolicyTest, TypeMatchProducesMaximalMatching)
{
    const auto instance = makeInstance(100);
    Rng rng(1);
    TypeMatchPolicy tm;
    const Matching m = tm.assign(instance, rng);
    EXPECT_TRUE(m.consistent());
    EXPECT_EQ(m.pairCount(), 50u);
}

TEST_F(ApproxPolicyTest, ClusterMatchProducesMaximalMatching)
{
    const auto instance = makeInstance(101);
    Rng rng(2);
    ClusterMatchPolicy cm(6);
    const Matching m = cm.assign(instance, rng);
    EXPECT_TRUE(m.consistent());
    EXPECT_EQ(m.pairCount(), 50u); // one agent left alone
}

TEST_F(ApproxPolicyTest, NamesAndValidation)
{
    EXPECT_EQ(TypeMatchPolicy().name(), "TM");
    EXPECT_EQ(ClusterMatchPolicy().name(), "CM");
    EXPECT_EQ(ClusterMatchPolicy(3).clusters(), 3u);
    EXPECT_THROW(ClusterMatchPolicy(0), FatalError);
}

TEST_F(ApproxPolicyTest, TypeMatchDrainsCheapestClassPairFirst)
{
    // With only correlation and swaptions agents, the cheapest class
    // colocation is (swaptions, swaptions): the greedy drain pairs
    // all swaptions together, leaving correlation to pair internally.
    const JobTypeId corr = catalog_.jobByName("correlation").id;
    const JobTypeId swap = catalog_.jobByName("swaptions").id;
    std::vector<JobTypeId> types;
    for (int i = 0; i < 10; ++i) {
        types.push_back(corr);
        types.push_back(swap);
    }
    auto instance =
        ColocationInstance::oracular(catalog_, types, model_);
    Rng rng(3);
    TypeMatchPolicy tm;
    const Matching m = tm.assign(instance, rng);
    EXPECT_TRUE(m.isPerfect());
    for (const auto &[a, b] : m.pairs())
        EXPECT_EQ(instance.typeOf(a), instance.typeOf(b));
}

TEST_F(ApproxPolicyTest, TypeMatchMoreStableThanGreedy)
{
    const auto instance = makeInstance(300, 7);
    Rng rng_tm(1), rng_gr(1);
    const Matching tm = TypeMatchPolicy().assign(instance, rng_tm);
    const Matching gr = GreedyPolicy().assign(instance, rng_gr);
    const Disutility &d = instance.trueView();
    // Type-level matching approximates stable matching: fewer
    // blocking pairs than the contention-greedy baseline.
    EXPECT_LT(countBlockingPairs(tm, d, 0.01),
              countBlockingPairs(gr, d, 0.01));
}

TEST_F(ApproxPolicyTest, ClusterMatchFairnessBeatsGreedy)
{
    const auto instance = makeInstance(400, 9);
    Rng rng_cm(1), rng_gr(1);
    const Matching cm = ClusterMatchPolicy().assign(instance, rng_cm);
    const Matching gr = GreedyPolicy().assign(instance, rng_gr);
    const double cm_fair =
        fairness(aggregateByType(instance, cm)).rankCorrelation;
    const double gr_fair =
        fairness(aggregateByType(instance, gr)).rankCorrelation;
    EXPECT_GT(cm_fair, gr_fair);
}

TEST_F(ApproxPolicyTest, DeterministicPerSeed)
{
    const auto instance = makeInstance(60, 11);
    for (int variant = 0; variant < 2; ++variant) {
        Rng rng_a(5), rng_b(5);
        std::unique_ptr<ColocationPolicy> policy;
        if (variant == 0)
            policy = std::make_unique<TypeMatchPolicy>();
        else
            policy = std::make_unique<ClusterMatchPolicy>();
        const Matching a = policy->assign(instance, rng_a);
        const Matching b = policy->assign(instance, rng_b);
        EXPECT_EQ(a.pairs(), b.pairs()) << policy->name();
    }
}

} // namespace
} // namespace cooper
