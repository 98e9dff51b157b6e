/**
 * @file
 * Failure-injection and extreme-configuration tests: the pipeline
 * must stay well-defined (no crashes, no invariant violations) even
 * when profiling is nearly useless, noise dwarfs the signal, or the
 * hardware model is pushed to its edges.
 *
 * The FaultStorm suite drives the online service through active
 * FaultPlans — probe-timeout storms, scripted node crashes, and
 * quarantine churn — and holds the degradation contract: every epoch
 * completes, uncharacterizable jobs are quarantined and later
 * recovered (or abandoned, counted), the final matching stays within
 * 2x of the fault-free blocking-pair count, and checkpoint/restore
 * under faults replays bit-identically at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cf/item_knn.hh"
#include "core/framework.hh"
#include "core/experiment.hh"
#include "fault/plan.hh"
#include "io/serialize.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/profiler.hh"
#include "workload/population.hh"

namespace cooper {
namespace {

class ChaosTest : public ::testing::Test
{
  protected:
    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

TEST_F(ChaosTest, HugeNoiseStillYieldsValidEpochs)
{
    FrameworkConfig config;
    config.policy = "SMR";
    config.noise.sigma = 0.5; // noise dwarfs every true penalty
    config.noise.floor = -0.5;
    CooperFramework framework(catalog_, model_, config, 1);
    Rng rng(2);
    const auto pop =
        samplePopulation(catalog_, 60, MixKind::Uniform, rng);
    const EpochReport report = framework.runEpoch(pop);
    EXPECT_TRUE(report.matching.isPerfect());
    for (double p : report.penalties) {
        EXPECT_GE(p, 0.0);
        EXPECT_LT(p, 1.0);
    }
    // Prediction should be near-useless but still a valid number.
    EXPECT_GE(report.predictionAccuracy, 0.0);
    EXPECT_LE(report.predictionAccuracy, 1.0);
}

TEST_F(ChaosTest, MinimalSamplingStillWorks)
{
    // Far below the paper's 25%: the min-per-row top-up is all the
    // predictor gets.
    FrameworkConfig config;
    config.policy = "SR";
    config.sampleRatio = 0.02;
    CooperFramework framework(catalog_, model_, config, 3);
    Rng rng(4);
    const auto pop =
        samplePopulation(catalog_, 40, MixKind::Uniform, rng);
    const EpochReport report = framework.runEpoch(pop);
    EXPECT_TRUE(report.matching.isPerfect());
}

TEST_F(ChaosTest, SingleTypePopulation)
{
    // Every agent runs the same job: all policies must still pair.
    const JobTypeId t = catalog_.jobByName("svm").id;
    std::vector<JobTypeId> pop(30, t);
    auto instance = ColocationInstance::oracular(catalog_, pop, model_);
    for (const auto &policy : figurePolicies()) {
        Rng rng(5);
        const Matching m = policy->assign(instance, rng);
        EXPECT_EQ(m.pairCount(), 15u) << policy->name();
    }
}

TEST_F(ChaosTest, TwoAgentPopulation)
{
    std::vector<JobTypeId> pop{0, 1};
    auto instance = ColocationInstance::oracular(catalog_, pop, model_);
    for (const auto &policy : figurePolicies()) {
        Rng rng(6);
        const Matching m = policy->assign(instance, rng);
        EXPECT_EQ(m.pairCount(), 1u) << policy->name();
    }
}

TEST_F(ChaosTest, SaturatedCacheModel)
{
    // Tiny LLC: every pair overflows completely; penalties must stay
    // clamped inside [0, 1).
    ServerConfig server;
    server.llcMB = 0.5;
    InterferenceModel cramped(catalog_, server);
    for (JobTypeId i = 0; i < catalog_.size(); ++i) {
        for (JobTypeId j = 0; j < catalog_.size(); ++j) {
            const double d = cramped.penalty(i, j);
            EXPECT_GE(d, 0.0);
            EXPECT_LT(d, 1.0);
        }
    }
}

TEST_F(ChaosTest, ZeroWeightModelIsPenaltyFree)
{
    ServerConfig server;
    server.weightBandwidth = 0.0;
    server.weightCache = 0.0;
    InterferenceModel free_model(catalog_, server);
    for (JobTypeId i = 0; i < catalog_.size(); i += 3)
        for (JobTypeId j = 0; j < catalog_.size(); j += 3)
            EXPECT_DOUBLE_EQ(free_model.penalty(i, j), 0.0);

    // With no contention anywhere, no blocking pair can exist.
    std::vector<JobTypeId> pop;
    Rng rng(7);
    pop = samplePopulation(catalog_, 40, MixKind::Uniform, rng);
    auto instance =
        ColocationInstance::oracular(catalog_, pop, free_model);
    Rng policy_rng(8);
    const Matching m = GreedyPolicy().assign(instance, policy_rng);
    const std::size_t blocking =
        countBlockingPairs(m, instance.trueView(), 0.01);
    EXPECT_EQ(blocking, 0u);
}

TEST_F(ChaosTest, PredictorSurvivesConstantRatings)
{
    // All observed penalties identical: similarities degenerate and
    // every prediction must fall back gracefully.
    SparseMatrix ratings(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        ratings.set(i, (i + 1) % 6, 0.25);
    ItemKnnPredictor predictor;
    const Prediction p = predictor.predict(ratings);
    for (const auto &row : p.dense)
        for (double v : row)
            EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST_F(ChaosTest, ExtremeMixesKeepPoliciesAlive)
{
    for (MixKind mix : allMixes()) {
        Rng rng(9);
        const auto instance =
            sampleInstance(catalog_, model_, 50, mix, rng);
        for (const auto &policy : figurePolicies()) {
            Rng policy_rng(10);
            const Matching m = policy->assign(instance, policy_rng);
            EXPECT_TRUE(m.consistent())
                << policy->name() << " on " << mixName(mix);
        }
    }
}

// ---------------------------------------------------------------------
// Fault storms against the online service.

class FaultStormTest : public ::testing::Test
{
  protected:
    ChurnTrace
    makeTrace(std::size_t arrivals, std::uint64_t seed,
              double mean_life = 400.0) const
    {
        ChurnConfig churn;
        churn.arrivals = arrivals;
        churn.initialJobs = 12;
        churn.meanInterarrivalTicks = 6.0;
        churn.meanLifetimeTicks = mean_life;
        Rng rng(seed);
        return generateChurnTrace(catalog_, churn, rng);
    }

    /** Generous admission so nothing is rejected for queue reasons. */
    FrameworkConfig
    serviceConfig(unsigned threads = 1) const
    {
        FrameworkConfig config;
        config.execution.threads = threads;
        config.execution.online.admitPerEpoch = 64;
        config.execution.online.maxQueueDepth = 0;
        return config;
    }

    OnlineReport
    replay(const ChurnTrace &trace, const FrameworkConfig &config,
           std::uint64_t seed, const FaultPlan &plan) const
    {
        OnlineDriver driver(catalog_, model_, config, seed);
        driver.setFaultPlan(plan);
        return driver.run(trace);
    }

    static std::string
    summaryOf(const OnlineReport &report)
    {
        std::ostringstream out;
        writeOnlineSummary(out, report);
        return out.str();
    }

    /** The first arrival landing at or after `min_epoch` that stays
     *  alive at least `min_epochs_alive` epochs, as (uid, epoch). The
     *  storm tests target it so the job is probed against an
     *  established population and survives its quarantine terms — a
     *  job departing inside its arrival epoch is withdrawn from the
     *  queue before it is ever probed. */
    static std::pair<std::uint64_t, std::uint64_t>
    lateArrival(const ChurnTrace &trace, const FrameworkConfig &config,
                std::uint64_t min_epoch, std::uint64_t min_epochs_alive)
    {
        const Tick ticks = config.execution.online.epochTicks;
        for (const ChurnEvent &event : trace.events()) {
            if (event.kind != EventKind::Arrival)
                continue;
            const std::uint64_t epoch = event.tick / ticks;
            if (epoch < min_epoch)
                continue;
            Tick departs = ~Tick{0}; // outlives the trace
            for (const ChurnEvent &later : trace.events())
                if (later.kind == EventKind::Departure &&
                    later.uid == event.uid)
                    departs = later.tick;
            if (departs / ticks >= epoch + min_epochs_alive)
                return {event.uid, epoch};
        }
        ADD_FAILURE() << "trace has no long-lived arrival past epoch "
                      << min_epoch;
        return {0, 0};
    }

    Catalog catalog_ = Catalog::paperTableI();
    InterferenceModel model_{catalog_};
};

/** Scripted per-job probe timeout at one epoch. */
ScriptedFault
scriptedTimeout(std::uint64_t epoch, std::uint64_t uid)
{
    ScriptedFault fault;
    fault.epoch = epoch;
    fault.kind = FaultKind::ProbeTimeout;
    fault.hasUid = true;
    fault.uid = uid;
    return fault;
}

TEST_F(FaultStormTest, ProbeTimeoutStormDegradesGracefully)
{
    // The acceptance storm: 20% of probe attempts time out. Every
    // epoch must still complete, the service must never crash, all
    // quarantines must resolve, and the matching must stay within 2x
    // of the fault-free blocking-pair count.
    const ChurnTrace trace = makeTrace(200, 21);
    const FrameworkConfig config = serviceConfig();

    const OnlineReport clean = replay(trace, config, 5, FaultPlan());

    FaultSpec spec;
    spec.seed = 5;
    spec.probeTimeoutRate = 0.2;
    const OnlineReport degraded =
        replay(trace, config, 5, FaultPlan(spec));

    EXPECT_GT(degraded.totalFaultsInjected, 0u);
    EXPECT_GT(degraded.totalRetries, 0u);
    EXPECT_EQ(clean.totalFaultsInjected, 0u);

    // Every epoch completed, in order, none skipped.
    ASSERT_FALSE(degraded.epochs.empty());
    for (std::size_t i = 0; i < degraded.epochs.size(); ++i)
        EXPECT_EQ(degraded.epochs[i].epoch, i);

    // Degradation resolved: nothing left in quarantine at the end.
    EXPECT_EQ(degraded.finalQuarantine, 0u);

    // The matching survived the storm: post-repair blocking pairs,
    // summed over every epoch, stay within 2x of the fault-free run's.
    // (Both replays drain to an empty population, so the final
    // epoch's count is 0 either way and could not tell them apart.)
    const auto summed = [](const OnlineReport &report) {
        std::size_t sum = 0;
        for (const OnlineEpochStats &e : report.epochs)
            sum += e.blockingAfter;
        return sum;
    };
    const std::size_t clean_blocking = summed(clean);
    const std::size_t degraded_blocking = summed(degraded);
    EXPECT_GT(clean_blocking, 0u);
    EXPECT_LE(degraded_blocking, 2 * clean_blocking);
}

TEST_F(FaultStormTest, ScriptedStormQuarantinesThenRecovers)
{
    // Black out every probe of one late arrival for its whole arrival
    // epoch: the job cannot be characterized, must be quarantined, and
    // must be re-admitted cleanly after sitting out its term.
    const ChurnTrace trace = makeTrace(120, 31, /*mean_life=*/2500.0);
    const FrameworkConfig config = serviceConfig();
    const auto [uid, epoch] = lateArrival(trace, config, 4, 8);

    std::vector<ScriptedFault> script{scriptedTimeout(epoch, uid)};
    const OnlineReport report =
        replay(trace, config, 7, FaultPlan(FaultSpec{}, script));

    EXPECT_GE(report.totalQuarantined, 1u);
    EXPECT_GE(report.totalQuarantineReleased, 1u);
    EXPECT_EQ(report.totalAbandoned, 0u);
    EXPECT_EQ(report.finalQuarantine, 0u);
}

TEST_F(FaultStormTest, UnreachableJobIsAbandonedNotWedged)
{
    // Black out the same job's probes at every epoch: each release
    // fails again until the round cap abandons it. The service must
    // terminate (a wedged quarantine would loop forever) and count
    // the abandonment.
    const ChurnTrace trace = makeTrace(120, 31, /*mean_life=*/2500.0);
    const FrameworkConfig config = serviceConfig();
    const auto [uid, epoch] = lateArrival(trace, config, 4, 16);

    std::vector<ScriptedFault> script;
    for (std::uint64_t e = epoch; e < epoch + 64; ++e)
        script.push_back(scriptedTimeout(e, uid));
    const OnlineReport report =
        replay(trace, config, 7, FaultPlan(FaultSpec{}, script));

    EXPECT_GE(report.totalQuarantined, 1u);
    EXPECT_GE(report.totalAbandoned, 1u);
    EXPECT_EQ(report.finalQuarantine, 0u);
}

TEST_F(FaultStormTest, CrashStormKeepsStateConsistentAcrossThreads)
{
    // Node crashes every epoch (rate 1.0): the victim's pair is
    // evicted mid-service and re-admitted. The population must stay
    // consistent and the whole degraded run must be thread-invariant.
    const ChurnTrace trace = makeTrace(150, 41);

    FaultSpec spec;
    spec.seed = 11;
    spec.crashRatePerEpoch = 1.0;
    spec.probeTimeoutRate = 0.1;
    const FaultPlan plan(spec);

    const OnlineReport serial =
        replay(trace, serviceConfig(1), 11, plan);
    EXPECT_GT(serial.totalCrashes, 0u);
    EXPECT_EQ(serial.finalQuarantine, 0u);

    // No uid may appear twice in the final pairing.
    std::vector<JobUid> seen;
    for (const auto &[a, b] : serial.finalPairs) {
        seen.push_back(a);
        seen.push_back(b);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) ==
                seen.end());

    for (unsigned threads : {2u, 8u}) {
        const OnlineReport parallel =
            replay(trace, serviceConfig(threads), 11, plan);
        EXPECT_EQ(summaryOf(parallel), summaryOf(serial))
            << "crash-storm replay diverged at " << threads
            << " threads";
    }
}

TEST_F(FaultStormTest, CheckpointRestoreUnderFaultsIsExact)
{
    // Cut the run at an epoch boundary while the storm is active and
    // resume from the checkpoint: the stitched run must land in the
    // byte-identical final state, at every thread count.
    const ChurnTrace trace = makeTrace(200, 9);

    FaultSpec spec;
    spec.seed = 13;
    spec.probeTimeoutRate = 0.2;
    spec.measurementDropRate = 0.05;
    spec.measurementCorruptRate = 0.05;
    spec.crashRatePerEpoch = 0.2;
    const FaultPlan plan(spec);

    std::string canonical_state;
    for (unsigned threads : {1u, 2u, 8u}) {
        const FrameworkConfig config = serviceConfig(threads);

        OnlineDriver whole(catalog_, model_, config, 10);
        whole.setFaultPlan(plan);
        const OnlineReport whole_report = whole.run(trace);
        EXPECT_GT(whole_report.totalFaultsInjected, 0u);

        const Tick cut = 10 * config.execution.online.epochTicks;
        std::vector<ChurnEvent> head;
        for (const ChurnEvent &event : trace.events())
            if (event.tick < cut)
                head.push_back(event);
        ASSERT_FALSE(head.empty());
        ASSERT_LT(head.size(), trace.size());

        OnlineDriver prefix(catalog_, model_, config, 10);
        prefix.setFaultPlan(plan);
        prefix.run(ChurnTrace(std::move(head)));
        ASSERT_LE(prefix.clockTick(), cut);

        // The checkpoint must survive serialization, not just the
        // in-memory snapshot: round-trip the state through its text
        // format before resuming.
        std::stringstream buffer;
        writeOnlineState(buffer, prefix.snapshot());
        OnlineDriver resumed(catalog_, model_, config, 10);
        resumed.setFaultPlan(plan);
        resumed.restore(readOnlineState(buffer));
        resumed.run(trace.suffix(resumed.clockTick()));

        std::ostringstream whole_state, resumed_state;
        writeOnlineState(whole_state, whole.snapshot());
        writeOnlineState(resumed_state, resumed.snapshot());
        EXPECT_EQ(whole_state.str(), resumed_state.str())
            << "stitched fault run diverged at " << threads
            << " threads";
        if (threads == 1)
            canonical_state = whole_state.str();
        else
            EXPECT_EQ(whole_state.str(), canonical_state)
                << "fault run is thread-dependent at " << threads
                << " threads";
    }
}

} // namespace
} // namespace cooper
