#include "fed/round_engine.h"

#include <algorithm>

#include "common/kernels.h"
#include "common/logging.h"
#include "obs/stats_bridge.h"
#include "obs/trace.h"

namespace fedrec {

const char* ParticipationModeToString(ParticipationMode mode) {
  switch (mode) {
    case ParticipationMode::kShuffledEpochs:
      return "shuffled-epochs";
    case ParticipationMode::kUniformPerRound:
      return "uniform-per-round";
  }
  return "?";
}

RoundEngine::RoundEngine(const FedConfig* config, MfModel* model,
                         std::vector<Client>* benign_clients,
                         std::size_t num_malicious,
                         MaliciousCoordinator* coordinator, ThreadPool* pool,
                         Rng* rng)
    : config_(config),
      model_(model),
      benign_clients_(benign_clients),
      num_malicious_(num_malicious),
      coordinator_(coordinator),
      pool_(pool),
      rng_(rng) {
  FEDREC_CHECK(config_ != nullptr);
  FEDREC_CHECK(model_ != nullptr);
  FEDREC_CHECK(benign_clients_ != nullptr);
  FEDREC_CHECK(rng_ != nullptr);
  FEDREC_CHECK_GT(config_->clients_per_round, 0u);
  if (num_malicious_ > 0) {
    FEDREC_CHECK(coordinator_ != nullptr)
        << "malicious users configured without a coordinator";
  }
  obs::Registry& registry = obs::Registry::Global();
  stage_.select = registry.GetHistogram("fedrec_stage_us", "stage=\"select\"");
  stage_.local_train =
      registry.GetHistogram("fedrec_stage_us", "stage=\"local_train\"");
  stage_.attack = registry.GetHistogram("fedrec_stage_us", "stage=\"attack\"");
  stage_.observe =
      registry.GetHistogram("fedrec_stage_us", "stage=\"observe\"");
  stage_.transit_faults =
      registry.GetHistogram("fedrec_stage_us", "stage=\"transit_faults\"");
  stage_.aggregate =
      registry.GetHistogram("fedrec_stage_us", "stage=\"aggregate\"");
  stage_.apply = registry.GetHistogram("fedrec_stage_us", "stage=\"apply\"");
}

void RoundEngine::BeginEpoch(std::size_t epoch) {
  epoch_ = epoch;
  round_in_epoch_ = 0;

  // Per-epoch negative resampling (the paper samples V-_i' per client; fresh
  // negatives each epoch are the standard BPR variant and converge better).
  const std::size_t num_items = model_->num_items();
  std::vector<Client>& clients = *benign_clients_;
  ParallelFor(pool_, clients.size(), [&](std::size_t i) {
    // The client structs are contiguous but their positive arrays are
    // scattered heap blocks; hint the next client's positives while this one
    // resamples so the sweep isn't one dependent miss per client. Only the
    // immutable positives may be touched ahead — another pool task may be
    // resampling client i+4's negatives at this very moment.
    if (i + 4 < clients.size()) {
      const Client& ahead = clients[i + 4];
      kernels::PrefetchRead(ahead.positives().data(),
                            ahead.positives().size() * sizeof(std::uint32_t));
    }
    clients[i].ResampleNegatives(num_items, config_->negatives_per_positive);
  });

  const std::size_t total = TotalClients();
  const std::size_t batch = config_->clients_per_round;
  const std::size_t full_cycle = (total + batch - 1) / batch;

  // Reset the persistent order buffer to the identity permutation (no
  // reallocation in steady state). The refill keeps every epoch's shuffle a
  // pure function of the rng state, so training trajectories stay bit-stable
  // against the historical per-epoch iota + shuffle.
  std::vector<std::uint32_t>& order = workspace_.order;
  order.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }

  switch (config_->participation) {
    case ParticipationMode::kShuffledEpochs:
      rng_->Shuffle(order);
      rounds_this_epoch_ = full_cycle;
      break;
    case ParticipationMode::kUniformPerRound:
      // Sampling happens per round in Select(); an epoch is only a reporting
      // unit here.
      rounds_this_epoch_ = config_->rounds_per_epoch > 0
                               ? config_->rounds_per_epoch
                               : full_cycle;
      break;
  }
}

void RoundEngine::Select() {
  workspace_.selected_benign.clear();
  workspace_.selected_malicious.clear();

  std::vector<std::uint32_t>& order = workspace_.order;
  const std::size_t total = TotalClients();
  const std::size_t batch = config_->clients_per_round;
  const std::size_t num_benign = benign_clients_->size();

  const auto route = [&](std::uint32_t id) {
    if (id < num_benign) {
      workspace_.selected_benign.push_back(id);
    } else {
      workspace_.selected_malicious.push_back(id);
    }
  };

  switch (config_->participation) {
    case ParticipationMode::kShuffledEpochs: {
      const std::size_t begin = round_in_epoch_ * batch;
      const std::size_t end = std::min(begin + batch, total);
      for (std::size_t i = begin; i < end; ++i) route(order[i]);
      break;
    }
    case ParticipationMode::kUniformPerRound: {
      // Partial Fisher-Yates over the persistent pool: after k swaps,
      // order[0..k) is a uniform sample of k distinct clients — no per-round
      // allocation, and each round's draw is independent.
      const std::size_t k = std::min(batch, total);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(
                                      rng_->NextBounded(total - i));
        std::swap(order[i], order[j]);
        route(order[i]);
      }
      break;
    }
  }
}

double RoundEngine::LocalTrain() {
  const std::vector<std::uint32_t>& selected = workspace_.selected_benign;
  std::vector<ClientUpdate>& updates = workspace_.updates;
  std::vector<Client>& clients = *benign_clients_;
  // Persistent slots: each slot's SparseRowMatrix keeps its heap buffers and
  // TrainRoundInto refills them in place — steady-state rounds (constant
  // selection size, warmed capacities) allocate nothing.
  updates.resize(selected.size());
  // One client per chunk, heaviest first: client cost grows with its
  // positives and is heavy-tailed, and the pool claims chunks in index
  // order, so the longest jobs start before the short ones fill the gaps.
  // The tie-break on selection index makes the order a stable sort without
  // its buffer. Each chunk writes only its own slot, so the result is
  // schedule-independent.
  std::vector<std::uint32_t>& dispatch = workspace_.dispatch;
  dispatch.resize(selected.size());
  for (std::size_t i = 0; i < dispatch.size(); ++i) {
    dispatch[i] = static_cast<std::uint32_t>(i);
  }
  const auto weight = [&](std::uint32_t i) {
    return clients[selected[i]].positives().size();
  };
  std::sort(dispatch.begin(), dispatch.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return weight(a) != weight(b) ? weight(a) > weight(b) : a < b;
            });
  const auto train = [&](std::size_t k) {
    const std::uint32_t i = dispatch[k];
    clients[selected[i]].TrainRoundInto(model_->item_factors(), *config_,
                                        updates[i]);
  };
  if (pool_ == nullptr) {
    for (std::size_t k = 0; k < dispatch.size(); ++k) train(k);
  } else {
    pool_->ParallelFor(0, dispatch.size(), /*grain=*/1, train);
  }
  workspace_.is_malicious.assign(updates.size(), false);
  live_uploads_ = updates.size();
  live_benign_ = updates.size();
  double loss = 0.0;
  for (const ClientUpdate& update : updates) loss += update.loss;
  return loss;
}

void RoundEngine::Attack() {
  if (workspace_.selected_malicious.empty() || coordinator_ == nullptr) return;
  const RoundContext context = MakeContext();
  std::vector<ClientUpdate> poisoned = coordinator_->ProduceUpdates(
      context, std::span<const std::uint32_t>(workspace_.selected_malicious));
  FEDREC_CHECK_EQ(poisoned.size(), workspace_.selected_malicious.size());
  for (ClientUpdate& update : poisoned) {
    workspace_.updates.push_back(std::move(update));
    workspace_.is_malicious.push_back(true);
  }
  live_uploads_ = workspace_.updates.size();
}

void RoundEngine::Observe(const RoundObserver& observer) const {
  if (observer) observer(workspace_.updates, workspace_.is_malicious);
}

std::size_t RoundEngine::ApplyTransitFaults() {
  if (!faults_active()) return live_uploads_;
  std::vector<ClientUpdate>& updates = workspace_.updates;
  std::vector<bool>& is_malicious = workspace_.is_malicious;
  fault_plan_->DrawRound(global_round_, updates.size(), fault_draw_);
  // The collection window stays open to the deadline no matter who reports.
  AdvanceClock(fault_plan_->spec().round_deadline_ticks);
  if (fault_draw_.dropped + fault_draw_.stragglers == 0) return live_uploads_;

  // Compact survivors to the front by swapping slots (heap buffers of the
  // lost uploads are recycled, not freed), preserving survivor order so the
  // aggregation sees the serial contributor sequence minus the losses.
  const std::uint32_t deadline = fault_plan_->spec().round_deadline_ticks;
  std::size_t keep = 0;
  std::size_t benign_kept = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const UploadFault& fault = fault_draw_.uploads[i];
    if (fault.dropped) {
      ++fault_stats_.dropped_uploads;
      continue;
    }
    if (fault.delay_ticks > deadline) {
      ++fault_stats_.straggler_uploads;
      continue;
    }
    if (keep != i) {
      std::swap(updates[keep], updates[i]);
      is_malicious[keep] = is_malicious[i];
    }
    if (!is_malicious[keep]) ++benign_kept;
    ++keep;
  }
  live_uploads_ = keep;
  live_benign_ = benign_kept;
  return live_uploads_;
}

void RoundEngine::AdvanceClock(std::uint64_t ticks) {
  clock_.Advance(ticks);
  fault_stats_.virtual_ticks = clock_.ticks();
}

void RoundEngine::Aggregate() {
  AggregateUpdates(
      std::span<const ClientUpdate>(workspace_.updates.data(), live_uploads_),
      model_->dim(), config_->aggregator, workspace_.aggregation,
      workspace_.delta, pool_);
}

void RoundEngine::Apply() {
  model_->ApplySparseGradient(workspace_.delta, config_->model.learning_rate);
}

bool RoundEngine::RunClientStages(const RoundObserver& observer,
                                  double& loss) {
  FEDREC_CHECK(HasNextRound()) << "epoch " << epoch_ << " has no rounds left";
  {
    obs::ScopedSpan span("select", stage_.select);
    Select();
  }
  {
    obs::ScopedSpan span("local_train", stage_.local_train);
    loss = LocalTrain();
  }
  {
    obs::ScopedSpan span("attack", stage_.attack);
    Attack();
  }
  {
    obs::ScopedSpan span("observe", stage_.observe);
    Observe(observer);
  }
  {
    obs::ScopedSpan span("transit_faults", stage_.transit_faults);
    ApplyTransitFaults();
  }
  if (faults_active() && live_benign_ < config_->min_round_quorum) {
    // Too few surviving benign uploads to trust the round: skip the server
    // step entirely (the model stays put) and move on.
    ++fault_stats_.skipped_rounds;
    FEDREC_LOG(Info) << "round " << global_round_ << " skipped: "
                     << live_benign_
                     << " surviving benign uploads below quorum "
                     << config_->min_round_quorum;
    FinishRound();
    return false;
  }
  return true;
}

void RoundEngine::FinishRound() {
  ++round_in_epoch_;
  ++global_round_;
  if (faults_active()) obs::PublishFaultStats(fault_stats_, "engine");
}

double RoundEngine::RunRound(const RoundObserver& observer) {
  double loss = 0.0;
  if (!RunClientStages(observer, loss)) return loss;
  {
    obs::ScopedSpan span("aggregate", stage_.aggregate);
    Aggregate();
  }
  {
    obs::ScopedSpan span("apply", stage_.apply);
    Apply();
  }
  FinishRound();
  return loss;
}

RoundEngineSnapshot RoundEngine::Snapshot() const {
  RoundEngineSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.round_in_epoch = round_in_epoch_;
  snapshot.rounds_this_epoch = rounds_this_epoch_;
  snapshot.global_round = global_round_;
  snapshot.order = workspace_.order;
  snapshot.fault_stats = fault_stats_;
  snapshot.clock_ticks = clock_.ticks();
  return snapshot;
}

void RoundEngine::Restore(const RoundEngineSnapshot& snapshot) {
  epoch_ = snapshot.epoch;
  round_in_epoch_ = snapshot.round_in_epoch;
  rounds_this_epoch_ = snapshot.rounds_this_epoch;
  global_round_ = snapshot.global_round;
  workspace_.order = snapshot.order;
  fault_stats_ = snapshot.fault_stats;
  clock_ = VirtualClock();
  clock_.Advance(snapshot.clock_ticks);
  live_uploads_ = 0;
  live_benign_ = 0;
}

RoundContext RoundEngine::MakeContext() const {
  RoundContext context;
  context.model = model_;
  context.config = config_;
  context.epoch = epoch_;
  context.round_in_epoch = round_in_epoch_;
  context.global_round = global_round_;
  context.num_benign_users = benign_clients_->size();
  context.pool = pool_;
  context.workspace = &workspace_;
  return context;
}

}  // namespace fedrec
