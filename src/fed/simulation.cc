#include "fed/simulation.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"

namespace fedrec {

Simulation::Simulation(const Dataset& train, const FedConfig& config,
                       std::size_t num_malicious,
                       MaliciousCoordinator* coordinator, ThreadPool* pool)
    : config_(config),
      pool_(pool),
      rng_(config.seed),
      fault_plan_(config.faults, config.seed),
      engine_(&config_, &model_, &benign_clients_, num_malicious, coordinator,
              pool, &rng_) {
  model_ = MfModel(train.num_items(), config_.model, rng_);
  benign_clients_.reserve(train.num_users());
  for (std::uint32_t u = 0; u < train.num_users(); ++u) {
    benign_clients_.emplace_back(u, train.UserItems(u), config_.model,
                                 rng_.Fork(u));
  }
  // A zero-rate plan is inert (the engine checks enabled()), so installing it
  // unconditionally keeps the fault-free path bit-identical to no plan.
  engine_.SetFaultPlan(&fault_plan_);
}

template <typename RoundFn>
std::size_t Simulation::RunRoundLoop(std::size_t max_rounds, bool one_epoch,
                                     const RoundFn& run_round) {
  std::size_t run = 0;
  while (run < max_rounds && (one_epoch || epoch_ < config_.epochs)) {
    if (!epoch_open_) {
      engine_.BeginEpoch(epoch_);
      epoch_loss_ = 0.0;
      epoch_open_ = true;
    }
    if (engine_.HasNextRound()) {
      epoch_loss_ += run_round();
      ++run;
    }
    if (!engine_.HasNextRound()) {
      epoch_open_ = false;
      ++epoch_;
      if (one_epoch) break;
    }
  }
  return run;
}

double Simulation::RunEpoch() {
  RunRoundLoop(std::numeric_limits<std::size_t>::max(), /*one_epoch=*/true,
               [this] { return engine_.RunRound(observer_); });
  return epoch_loss_;
}

std::size_t Simulation::RunRounds(std::size_t max_rounds) {
  return RunRoundLoop(max_rounds, /*one_epoch=*/false,
                      [this] { return engine_.RunRound(observer_); });
}

std::size_t Simulation::RunRounds(
    std::size_t max_rounds, const std::function<double()>& round_runner) {
  return RunRoundLoop(max_rounds, /*one_epoch=*/false, round_runner);
}

std::vector<EpochRecord> Simulation::Run(
    const Evaluator* evaluator, const std::vector<std::uint32_t>& target_items,
    std::size_t eval_every) {
  std::vector<EpochRecord> records;
  records.reserve(config_.epochs);
  Stopwatch epoch_timer;
  for (std::size_t e = 0; e < config_.epochs; ++e) {
    EpochRecord record;
    record.epoch = e;
    const std::size_t rounds_before = engine_.global_round();
    const FaultStats faults_before = engine_.fault_stats();
    epoch_timer.Reset();
    record.train_loss = RunEpoch();
    record.train_seconds = epoch_timer.ElapsedSeconds();
    record.rounds = engine_.global_round() - rounds_before;
    const FaultStats& faults = engine_.fault_stats();
    record.dropped_uploads =
        faults.dropped_uploads - faults_before.dropped_uploads;
    record.straggler_uploads =
        faults.straggler_uploads - faults_before.straggler_uploads;
    record.corrupt_messages =
        faults.corrupt_messages - faults_before.corrupt_messages;
    record.skipped_rounds =
        faults.skipped_rounds - faults_before.skipped_rounds;
    record.rounds_per_sec =
        record.train_seconds > 0.0
            ? static_cast<double>(record.rounds) / record.train_seconds
            : 0.0;
    const bool last = e + 1 == config_.epochs;
    if (evaluator != nullptr &&
        (last || (eval_every > 0 && (e + 1) % eval_every == 0))) {
      record.metrics = evaluator->Evaluate(BenignUserFactors(),
                                           model_.item_factors(), target_items,
                                           pool_);
      record.has_metrics = true;
    }
    records.push_back(std::move(record));
  }
  return records;
}

const Matrix& Simulation::BenignUserFactors() {
  if (user_factors_.rows() != benign_clients_.size() ||
      user_factors_.cols() != model_.dim()) {
    user_factors_ = Matrix(benign_clients_.size(), model_.dim());
  }
  std::vector<Client>& clients = benign_clients_;
  ParallelFor(pool_, clients.size(), [&](std::size_t u) {
    const auto& vec = clients[u].user_vector();
    std::copy(vec.begin(), vec.end(), user_factors_.Row(u).begin());
  });
  return user_factors_;
}

}  // namespace fedrec
