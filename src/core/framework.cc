#include "framework.hh"

#include <algorithm>

#include "cf/accuracy.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace cooper {

namespace {

CoordinatorConfig
coordinatorConfigFrom(const FrameworkConfig &config)
{
    CoordinatorConfig out;
    out.policy = config.policy;
    out.sampleRatio = config.sampleRatio;
    out.noise = config.noise;
    out.machines = config.machines;
    return out;
}

} // namespace

CooperFramework::CooperFramework(const Catalog &catalog,
                                 const InterferenceModel &model,
                                 FrameworkConfig config, std::uint64_t seed)
    : catalog_(&catalog), model_(&model), config_(std::move(config)),
      rng_(seed),
      coordinator_(catalog, model, coordinatorConfigFrom(config_),
                   seed * 0x9e3779b97f4a7c15ULL + 1)
{
    fatalIf(config_.sampleRatio <= 0.0 || config_.sampleRatio > 1.0,
            "CooperFramework: sampleRatio outside (0, 1]");
}

ColocationInstance
CooperFramework::buildInstance(const std::vector<JobTypeId> &population)
{
    const TraceSpan span("framework.build_instance", "framework");
    PenaltyMatrix truth = model_->penaltyMatrix();

    if (config_.oracular) {
        lastAccuracy_ = 1.0;
        lastDensity_ = 1.0;
        PenaltyMatrix believed = truth;
        return ColocationInstance(*catalog_, population, std::move(truth),
                                  std::move(believed), config_.jitter);
    }

    // 1. Agents query the coordinator's profiler for sparse
    // colocation profiles.
    const SparseMatrix &profiles = coordinator_.profiles();
    lastDensity_ = profiles.density();

    // 2. The preference predictor fills the matrix.
    ItemKnnConfig knn_config = config_.predictor;
    if (knn_config.threads == 1)
        knn_config.threads = config_.execution.threads;
    ItemKnnPredictor predictor(knn_config);
    const Prediction prediction = predictor.predict(profiles);

    const std::size_t n = catalog_->size();
    PenaltyMatrix believed(n);
    std::vector<std::vector<double>> truth_dense(
        n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            believed(i, j) = prediction.dense[i][j];
            truth_dense[i][j] = truth(i, j);
        }
    }
    lastAccuracy_ = preferenceAccuracy(truth_dense, prediction.dense);

    return ColocationInstance(*catalog_, population, std::move(truth),
                              std::move(believed), config_.jitter);
}

EpochReport
CooperFramework::runEpoch(const std::vector<JobTypeId> &population)
{
    fatalIf(population.empty(), "runEpoch: empty population");

    // Honor the framework-level observability knob. The scope is
    // passive when the config is off or an outer session (for
    // example the CLI's) is already installed.
    const ObsScope obs_scope(config_.execution.obs);
    const TraceSpan epoch_span("framework.epoch", "framework");
    const ScopedTimer epoch_timer("framework.epoch_seconds");

    // New epoch, fresh profiles (the profiler keeps accumulating its
    // measurement database across epochs).
    if (!config_.oracular)
        coordinator_.refreshProfiles();
    ColocationInstance instance = buildInstance(population);

    EpochReport report;
    report.predictionAccuracy = lastAccuracy_;
    report.profiledDensity = lastDensity_;

    // 3. The coordinator's policy assigns co-runners.
    report.matching = coordinator_.colocate(instance, rng_);

    report.penalties = instance.truePenalties(report.matching);
    report.meanPenalty = instance.meanTruePenalty(report.matching);

    // 4. Agents assess assignments via message exchange. Candidates
    // are judged with believed penalties; the current co-runner with
    // the observed (true) penalty.
    const std::size_t n = population.size();
    const DisutilityFn assessed = [&](AgentId a, AgentId b) {
        if (report.matching.partnerOf(a) == b)
            return instance.trueDisutility(a, b);
        return instance.believedDisutility(a, b);
    };

    const PreferenceProfile believed = instance.believedPreferences();
    std::vector<Agent> agents;
    agents.reserve(n);
    for (AgentId i = 0; i < n; ++i) {
        agents.emplace_back(i, population[i]);
        agents.back().setPreferences(believed.list(i));
    }

    std::vector<std::vector<AgentId>> inbox(n);
    for (const Agent &agent : agents) {
        const auto targets =
            agent.messageTargets(report.matching, assessed, config_.alpha);
        report.messagesSent += targets.size();
        for (AgentId target : targets)
            inbox[target].push_back(agent.id());
    }

    report.recommendations.reserve(n);
    std::size_t mutual_edges = 0;
    for (const Agent &agent : agents) {
        Recommendation rec = agent.assess(report.matching,
                                          inbox[agent.id()], assessed,
                                          config_.alpha);
        if (rec.action == ActionKind::BreakAway) {
            ++report.breakAwayAgents;
            mutual_edges += rec.options.size();
        }
        report.recommendations.push_back(std::move(rec));
    }
    // Each blocking pair surfaces once at each endpoint.
    panicIf(mutual_edges % 2 != 0,
            "runEpoch: asymmetric blocking-pair discovery");
    report.blockingPairs = mutual_edges / 2;

    // 5. The dispatcher sends participating pairs to machines. (The
    // default agent behavior is to participate; break-away counts
    // quantify dissatisfaction.)
    std::vector<PairAssignment> assignments;
    for (const auto &[a, b] : report.matching.pairs())
        assignments.push_back(PairAssignment{population[a],
                                             population[b]});
    report.dispatch = coordinator_.dispatch(
        assignments, std::max<std::size_t>(1, n / 2));

    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->gauge("framework.agents")
            .set(static_cast<double>(n));
        metrics->gauge("framework.mean_penalty")
            .set(report.meanPenalty);
        metrics->gauge("framework.prediction_accuracy")
            .set(report.predictionAccuracy);
        metrics->gauge("framework.profiled_density")
            .set(report.profiledDensity);
    }
    return report;
}

} // namespace cooper
