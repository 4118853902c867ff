#include "shard/sharded_round_engine.h"

#include "obs/stats_bridge.h"

namespace fedrec {

ShardedRoundEngine::ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                                       const FedConfig* config,
                                       const ShardPlan& plan, ThreadPool* pool)
    : engine_(engine),
      model_(model),
      config_(config),
      pool_(pool),
      owned_transport_(
          std::make_unique<InProcessShardTransport>(plan, model->dim())),
      transport_(owned_transport_.get()) {
  FEDREC_CHECK(engine_ != nullptr);
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(config_ != nullptr);
  FEDREC_CHECK_EQ(plan.num_items(), model->num_items());
}

ShardedRoundEngine::ShardedRoundEngine(RoundEngine* engine, MfModel* model,
                                       const FedConfig* config,
                                       ShardTransport* transport,
                                       ThreadPool* pool)
    : engine_(engine),
      model_(model),
      config_(config),
      pool_(pool),
      transport_(transport) {
  FEDREC_CHECK(engine_ != nullptr);
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(config_ != nullptr);
  FEDREC_CHECK(transport_ != nullptr);
  FEDREC_CHECK_EQ(transport_->server().plan().num_items(),
                  model->num_items());
  FEDREC_CHECK_EQ(transport_->server().dim(), model->dim());
}

double ShardedRoundEngine::RunRound(const RoundObserver& observer) {
  double loss = 0.0;
  if (!engine_->RunClientStages(observer, loss)) return loss;
  const bool faults = engine_->faults_active();
  if (owned_transport_ != nullptr) {
    owned_transport_->set_fault_plan(faults ? engine_->fault_plan() : nullptr);
  }
  // The surviving prefix (= all uploads when faults are inactive).
  const std::span<const ClientUpdate> updates(
      engine_->workspace().updates.data(), engine_->live_uploads());
  const ShardRetryPolicy policy{config_->max_shard_retries,
                                config_->shard_retry_backoff_ticks};
  engine_->AdvanceClock(server_round_.Run(
      *transport_, updates, config_->aggregator, policy,
      engine_->global_round(), config_->model.learning_rate, *model_, pool_,
      wire_stats_));
  engine_->FinishRound();
  obs::PublishFaultStats(wire_stats_, "wire");
  return loss;
}

}  // namespace fedrec
