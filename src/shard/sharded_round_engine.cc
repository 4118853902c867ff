#include "shard/sharded_round_engine.h"

#include "obs/stats_bridge.h"
#include "obs/trace.h"

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
  InitStageMetrics();
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
  InitStageMetrics();
}

void ShardedRoundEngine::InitStageMetrics() {
  obs::Registry& registry = obs::Registry::Global();
  stage_.select = registry.GetHistogram("fedrec_stage_us", "stage=\"select\"");
  stage_.local_train =
      registry.GetHistogram("fedrec_stage_us", "stage=\"local_train\"");
  stage_.attack = registry.GetHistogram("fedrec_stage_us", "stage=\"attack\"");
  stage_.observe =
      registry.GetHistogram("fedrec_stage_us", "stage=\"observe\"");
  stage_.transit_faults =
      registry.GetHistogram("fedrec_stage_us", "stage=\"transit_faults\"");
}

double ShardedRoundEngine::RunRound(const RoundObserver& observer) {
  FEDREC_CHECK(HasNextRound()) << "epoch " << engine_->epoch()
                               << " has no rounds left";
  {
    obs::ScopedSpan span("select", stage_.select);
    engine_->Select();
  }
  double loss = 0.0;
  {
    obs::ScopedSpan span("local_train", stage_.local_train);
    loss = engine_->LocalTrain();
  }
  {
    obs::ScopedSpan span("attack", stage_.attack);
    engine_->Attack();
  }
  {
    obs::ScopedSpan span("observe", stage_.observe);
    engine_->Observe(observer);
  }
  {
    obs::ScopedSpan span("transit_faults", stage_.transit_faults);
    engine_->ApplyTransitFaults();
  }
  const bool faults = engine_->faults_active();
  if (faults && engine_->BelowQuorum()) {
    engine_->NoteSkippedRound();
    engine_->AdvanceRound();
    return loss;
  }

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
  engine_->AdvanceRound();
  obs::PublishFaultStats(wire_stats_, "wire");
  return loss;
}

}  // namespace fedrec
