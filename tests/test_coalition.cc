/**
 * @file
 * Differential and property tests for the coalition formation
 * subsystem: structures hold their partition invariants, the shared
 * value function agrees with the interference model, the G = 2
 * blocking-coalition scan is a drop-in for the pairwise blocking
 * scan, formation is bit-identical at any thread count and dominates
 * packed pairs at equal capacity, and the online driver's coalition
 * mode checkpoints and resumes exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "coalition/blocking_coalition.hh"
#include "coalition/formation.hh"
#include "coalition/prefs.hh"
#include "coalition/structure.hh"
#include "coalition/value.hh"
#include "core/experiment.hh"
#include "io/serialize.hh"
#include "matching/blocking.hh"
#include "matching/stable_roommates.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "online/events.hh"
#include "sim/interference.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace cooper {
namespace {

struct Fixture
{
    Catalog catalog = Catalog::paperTableI();
    InterferenceModel model{catalog};
};

/** A sampled population plus its believed view and agent types. */
struct Population
{
    ColocationInstance instance;
    Disutility believed;
    std::vector<JobTypeId> types;
};

Population
makePopulation(const Fixture &fx, std::size_t agents,
               std::uint64_t seed)
{
    Rng rng(seed);
    ColocationInstance instance = sampleInstance(
        fx.catalog, fx.model, agents, MixKind::Uniform, rng);
    Disutility believed = instance.believedView();
    std::vector<JobTypeId> types;
    types.reserve(agents);
    for (AgentId a = 0; a < agents; ++a)
        types.push_back(instance.typeOf(a));
    return {std::move(instance), std::move(believed),
            std::move(types)};
}

TEST(CoalitionStructure, PartitionInvariantsHold)
{
    CoalitionStructure s(6);
    s.addCoalition({2, 0});
    s.addCoalition({3, 4, 5});
    EXPECT_TRUE(s.valid(3));
    EXPECT_EQ(s.coalitionOf(0), s.coalitionOf(2));
    EXPECT_EQ(s.coalitionOf(1), kNoCoalition);
    EXPECT_EQ(s.othersOf(4), (std::vector<AgentId>{3, 5}));
    EXPECT_EQ(s.machines(), 3u); // {0,2}, {3,4,5}, lone 1

    // A member may not join twice.
    EXPECT_THROW(s.addCoalition({1, 2}), FatalError);

    // Removing down to one member dissolves the coalition.
    s.removeAgent(0);
    EXPECT_EQ(s.coalitionOf(2), kNoCoalition);

    // Deviation carves members out of their current coalitions.
    s.deviate({2, 4});
    EXPECT_EQ(s.coalitionOf(2), s.coalitionOf(4));
    EXPECT_EQ(s.othersOf(3), (std::vector<AgentId>{5}));

    s.canonicalize();
    EXPECT_TRUE(s.valid(3));
    ASSERT_EQ(s.coalitions().size(), 2u);
    EXPECT_EQ(s.coalitions()[0], (std::vector<AgentId>{2, 4}));
    EXPECT_EQ(s.coalitions()[1], (std::vector<AgentId>{3, 5}));
}

TEST(CoalitionStructure, PackMatchingRespectsTheMachineBudget)
{
    Matching matching(10);
    matching.pair(0, 1);
    matching.pair(2, 3);
    matching.pair(4, 5);
    matching.pair(6, 7);

    for (const std::size_t g : {2u, 3u, 4u}) {
        const CoalitionStructure packed =
            CoalitionStructure::packMatching(matching, g);
        EXPECT_TRUE(packed.valid(g)) << "G=" << g;
        EXPECT_LE(packed.machines(), (10 + g - 1) / g) << "G=" << g;
        // Every agent is accounted for exactly once.
        std::size_t grouped = 0;
        for (const auto &group : packed.coalitions())
            grouped += group.size();
        for (AgentId a = 0; a < 10; ++a)
            if (packed.coalitionOf(a) == kNoCoalition)
                ++grouped;
        EXPECT_EQ(grouped, 10u) << "G=" << g;
    }

    // At G = 2 packing adds nothing beyond lifting the pairs (the
    // two unmatched agents share the one remaining machine).
    const CoalitionStructure pairs =
        CoalitionStructure::packMatching(matching, 2);
    EXPECT_EQ(pairs.coalitionOf(0), pairs.coalitionOf(1));
    EXPECT_EQ(pairs.coalitionOf(8), pairs.coalitionOf(9));
}

TEST(CoalitionValue, MemberPenaltyMatchesTheModel)
{
    const Fixture fx;
    const JobTypeId a = 0, b = 5, c = 11;
    const std::vector<JobTypeId> none;
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, none), 0.0);

    const std::vector<JobTypeId> one{b};
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, one),
                     fx.model.penalty(a, b));

    const std::vector<JobTypeId> two{b, c};
    EXPECT_DOUBLE_EQ(coalitionMemberPenalty(fx.model, a, two),
                     fx.model.groupPenalty(a, two));

    // v(S) sums the member penalties; the per-member vector agrees.
    const std::vector<JobTypeId> members{a, b, c};
    const std::vector<double> each =
        coalitionMemberPenalties(fx.model, members);
    ASSERT_EQ(each.size(), 3u);
    EXPECT_DOUBLE_EQ(coalitionValue(fx.model, members),
                     each[0] + each[1] + each[2]);
}

TEST(CoalitionPrefs, AdditiveExtensionRestrictsToPairs)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 12, 3);
    const CoalitionPreferences prefs(pop.believed);

    const std::vector<AgentId> one{3};
    EXPECT_DOUBLE_EQ(prefs.believedPenalty(0, one),
                     pop.believed(0, 3));
    const std::vector<AgentId> two{3, 7};
    EXPECT_DOUBLE_EQ(prefs.believedPenalty(0, two),
                     pop.believed(0, 3) + pop.believed(0, 7));

    // Ranked candidates ascend by pairwise believed cost.
    const std::vector<AgentId> &ranked = prefs.rankedCandidates(0);
    ASSERT_EQ(ranked.size(), 11u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(pop.believed(0, ranked[i - 1]),
                  pop.believed(0, ranked[i]));
}

TEST(CoalitionBlocking, PairScanMatchesThePairwiseBlockingScan)
{
    const Fixture fx;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const Population pop = makePopulation(fx, 20, seed);
        // An arbitrary full matching: 0-1, 2-3, ... — plenty of
        // blocking pairs to count.
        Matching matching(20);
        for (AgentId a = 0; a + 1 < 20; a += 2)
            matching.pair(a, a + 1);

        const CoalitionStructure structure =
            CoalitionStructure::fromMatching(matching);
        const CoalitionPreferences prefs(pop.believed);
        CoalitionScanConfig scan;
        scan.maxSize = 2;
        const std::size_t pairwise =
            countBlockingPairs(matching, pop.believed, 0.0);
        EXPECT_EQ(countBlockingCoalitions(structure, prefs, scan),
                  pairwise)
            << "seed " << seed;

        // And the count is thread-count independent.
        scan.threads = 4;
        EXPECT_EQ(countBlockingCoalitions(structure, prefs, scan),
                  pairwise);
    }
}

TEST(CoalitionFormation, BitIdenticalAcrossThreadCounts)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 30, 7);
    const Rng rng(99);

    for (const std::size_t g : {2u, 3u, 4u}) {
        FormationConfig config;
        config.groupSize = g;
        config.shapleySamples = 32;
        config.threads = 1;
        const FormationResult serial = formCoalitions(
            pop.types, pop.believed, fx.model, config, rng);
        for (const std::size_t threads : {2u, 8u}) {
            config.threads = threads;
            const FormationResult parallel = formCoalitions(
                pop.types, pop.believed, fx.model, config, rng);
            EXPECT_TRUE(parallel.structure == serial.structure)
                << "G=" << g << " threads=" << threads;
            EXPECT_EQ(parallel.rounds, serial.rounds);
            EXPECT_EQ(parallel.blockingAfter, serial.blockingAfter);
            // Exact equality — attribution must not drift either.
            EXPECT_EQ(parallel.shapleyShares, serial.shapleyShares);
            EXPECT_EQ(parallel.truePenalties, serial.truePenalties);
        }
    }
}

TEST(CoalitionFormation, PairFormationStableWhereverRoommatesIs)
{
    const Fixture fx;
    const Rng rng(5);
    std::size_t stable_seeds = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const Population pop = makePopulation(fx, 24, seed);
        const CoalitionPreferences prefs(pop.believed);
        const RoommatesResult sr =
            adaptedRoommates(prefs.pairProfile(), pop.believed);
        if (!sr.perfectlyStable)
            continue;
        ++stable_seeds;

        FormationConfig config;
        config.shapleySamples = 0;
        const FormationResult formed = formCoalitions(
            pop.types, pop.believed, fx.model, config, rng);
        EXPECT_TRUE(formed.coreStable) << "seed " << seed;
        EXPECT_EQ(formed.blockingAfter, 0u) << "seed " << seed;
        EXPECT_TRUE(formed.structure ==
                    CoalitionStructure::fromMatching(sr.matching))
            << "seed " << seed;
    }
    // The adapted matcher finds a perfectly stable matching on most
    // sampled populations; the property must not hold vacuously.
    EXPECT_GE(stable_seeds, 1u);
}

TEST(CoalitionFormation, DominatesPackedPairsAtEqualCapacity)
{
    const Fixture fx;
    const Rng rng(17);
    for (const std::uint64_t seed : {2u, 6u}) {
        const Population pop = makePopulation(fx, 24, seed);
        const CoalitionPreferences prefs(pop.believed);
        const RoommatesResult sr =
            adaptedRoommates(prefs.pairProfile(), pop.believed);

        for (const std::size_t g : {3u, 4u}) {
            FormationConfig config;
            config.groupSize = g;
            config.shapleySamples = 0;
            const FormationResult formed = formCoalitions(
                pop.types, pop.believed, fx.model, config, rng);
            EXPECT_TRUE(formed.structure.valid(g));
            EXPECT_LE(formed.structure.machines(), (24 + g - 1) / g);

            CoalitionScanConfig scan;
            scan.maxSize = g;
            const std::size_t packed_blocking = countBlockingCoalitions(
                CoalitionStructure::packMatching(sr.matching, g), prefs,
                scan);
            EXPECT_LE(formed.blockingAfter, packed_blocking)
                << "seed " << seed << " G=" << g;
            EXPECT_LE(formed.blockingAfter, formed.blockingBefore);
        }
    }
}

TEST(CoalitionFormation, WarmStartOverBudgetIsRepaired)
{
    const Fixture fx;
    const Population pop = makePopulation(fx, 6, 4);
    const Rng rng(8);

    // Three pairs need three machines; at G = 3 the budget is two.
    CoalitionStructure carried(6);
    carried.addCoalition({0, 1});
    carried.addCoalition({2, 3});
    carried.addCoalition({4, 5});

    FormationConfig config;
    config.groupSize = 3;
    config.shapleySamples = 0;
    const FormationResult formed = formCoalitions(
        pop.types, pop.believed, fx.model, config, rng, &carried);
    EXPECT_TRUE(formed.structure.valid(3));
    EXPECT_LE(formed.structure.machines(), 2u);
}

// --- Online driver, --policy coalition ---------------------------

ChurnTrace
makeTrace(const Catalog &catalog, std::size_t arrivals,
          std::uint64_t seed)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = 6.0;
    churn.meanLifetimeTicks = 400.0;
    Rng rng(seed);
    return generateChurnTrace(catalog, churn, rng);
}

FrameworkConfig
coalitionConfig(std::size_t group_size)
{
    FrameworkConfig config;
    config.policy = "coalition";
    config.execution.online.groupSize = group_size;
    config.execution.online.admitPerEpoch = 64;
    config.execution.online.maxQueueDepth = 0;
    return config;
}

std::string
summaryOf(const OnlineReport &report)
{
    std::ostringstream out;
    writeOnlineSummary(out, report);
    return out.str();
}

TEST(OnlineDriverCoalition, SameTraceSameSummaryAtAnyThreadCount)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 2);

    std::vector<std::string> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        FrameworkConfig config = coalitionConfig(3);
        config.execution.threads = threads;
        OnlineDriver driver(fx.catalog, fx.model, config, 17);
        summaries.push_back(summaryOf(driver.run(trace)));
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[0], summaries[2]);
}

TEST(OnlineDriverCoalition, GroupsRespectTheCapAndPartitionLiveJobs)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 3);
    FrameworkConfig config = coalitionConfig(3);
    OnlineDriver driver(fx.catalog, fx.model, config, 21);
    const OnlineReport report = driver.run(trace);

    std::vector<JobUid> seen;
    for (const auto &group : report.finalGroups) {
        EXPECT_GE(group.size(), 2u);
        EXPECT_LE(group.size(), 3u);
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i > 0) {
                EXPECT_LT(group[i - 1], group[i]);
            }
            seen.push_back(group[i]);
        }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) ==
                seen.end());
}

TEST(OnlineDriverCoalition, MidRunCheckpointResumesExactly)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 150, 9);
    const FrameworkConfig config = coalitionConfig(3);

    OnlineDriver whole(fx.catalog, fx.model, config, 10);
    const OnlineReport whole_report = whole.run(trace);

    const Tick cut = 10 * config.execution.online.epochTicks;
    std::vector<ChurnEvent> head;
    for (const ChurnEvent &event : trace.events())
        if (event.tick < cut)
            head.push_back(event);
    ASSERT_FALSE(head.empty());
    ASSERT_LT(head.size(), trace.size());

    OnlineDriver prefix(fx.catalog, fx.model, config, 10);
    prefix.run(ChurnTrace(std::move(head)));
    ASSERT_LE(prefix.clockTick(), cut);

    // Round-trip the checkpoint through the v4 text format, as the
    // CLI does, so the groups section itself is under test.
    std::stringstream checkpoint;
    writeOnlineState(checkpoint, prefix.snapshot());
    OnlineDriver resumed(fx.catalog, fx.model, config, 10);
    resumed.restore(readOnlineState(checkpoint));
    const OnlineReport tail_report =
        resumed.run(trace.suffix(resumed.clockTick()));

    EXPECT_EQ(tail_report.totalArrivals, whole_report.totalArrivals);
    EXPECT_EQ(tail_report.finalGroups, whole_report.finalGroups);

    std::ostringstream whole_state, resumed_state;
    writeOnlineState(whole_state, whole.snapshot());
    writeOnlineState(resumed_state, resumed.snapshot());
    EXPECT_EQ(whole_state.str(), resumed_state.str());
}

TEST(OnlineDriverCoalition, RestoreRejectsHostileGroupStates)
{
    const Fixture fx;
    const ChurnTrace trace = makeTrace(fx.catalog, 60, 11);
    const FrameworkConfig config = coalitionConfig(2);
    OnlineDriver source(fx.catalog, fx.model, config, 12);
    source.run(trace);
    const OnlineState state = source.snapshot();

    // A group larger than the configured cap must not restore.
    if (state.live.size() >= 3) {
        OnlineState oversized = state;
        oversized.groups = {{state.live[0].uid, state.live[1].uid,
                             state.live[2].uid}};
        OnlineDriver target(fx.catalog, fx.model, config, 12);
        EXPECT_THROW(target.restore(oversized), FatalError);
    }

    // A grouped uid that is not live must not restore.
    OnlineState ghost = state;
    ghost.groups = {{999991, 999992}};
    OnlineDriver target(fx.catalog, fx.model, config, 12);
    EXPECT_THROW(target.restore(ghost), FatalError);
}

TEST(OnlineDriverCoalition, RejectsDegenerateGroupSize)
{
    const Fixture fx;
    FrameworkConfig config = coalitionConfig(1);
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, config, 1),
                 FatalError);
    config = coalitionConfig(21);
    EXPECT_THROW(OnlineDriver(fx.catalog, fx.model, config, 1),
                 FatalError);
}

} // namespace
} // namespace cooper
