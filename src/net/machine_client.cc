#include "src/net/machine_client.h"

#include <future>
#include <utility>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/net/codec.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mtdb::net {

namespace {

// Client-side per-RPC-type metrics, resolved once per process so the reply
// path does no registry lookups.
struct ClientRpcMetrics {
  obs::Counter* calls = nullptr;
  obs::Counter* timeouts = nullptr;
  Histogram* latency_us = nullptr;
};

const ClientRpcMetrics& MetricsForType(RpcType type) {
  static ClientRpcMetrics* table = [] {
    auto* entries = new ClientRpcMetrics[kRpcTypeLimit];
    auto& registry = obs::MetricsRegistry::Global();
    for (int i = 1; i < kRpcTypeLimit; ++i) {
      if (!IsLiveRpcType(i)) continue;
      obs::MetricLabels labels{
          .operation = std::string(RpcTypeName(static_cast<RpcType>(i)))};
      entries[i].calls = registry.GetCounter("mtdb_rpc_total", labels);
      entries[i].timeouts =
          registry.GetCounter("mtdb_rpc_timeout_total", labels);
      entries[i].latency_us =
          registry.GetHistogram("mtdb_rpc_latency_us", labels);
    }
    return entries;
  }();
  int index = static_cast<int>(type);
  static const ClientRpcMetrics kEmpty;
  return index > 0 && index < kRpcTypeLimit ? table[index] : kEmpty;
}

}  // namespace

MachineClient::MachineClient(Transport* transport, RpcOptions options)
    : transport_(transport), options_(options) {
  if (options_.call_timeout_us > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

MachineClient::~MachineClient() {
  {
    platform::Guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
  // Control channels (and their transport threads) die before the transport:
  // the member order takes care of it, this is just explicit.
  control_channels_.clear();
}

void MachineClient::SetTimeoutListener(TimeoutListener listener) {
  platform::Guard lock(mu_);
  timeout_listener_ = std::move(listener);
}

std::unique_ptr<MachineClient::Session> MachineClient::OpenSession(
    int machine_id) {
  return std::unique_ptr<Session>(
      new Session(this, machine_id, transport_->OpenChannel(machine_id)));
}

// --- Session ---

void MachineClient::Session::CallAsync(RpcRequest request,
                                       ResponseHandler done) {
  client_->CallWithDeadline(channel_.get(), machine_id_, request,
                            std::move(done));
}

RpcResponse MachineClient::Session::Call(RpcRequest request) {
  return client_->CallSync(channel_.get(), machine_id_, std::move(request));
}

// --- Control plane ---

Channel* MachineClient::ControlChannel(int machine_id) {
  platform::Guard lock(mu_);
  auto it = control_channels_.find(machine_id);
  if (it == control_channels_.end()) {
    it = control_channels_
             .emplace(machine_id, transport_->OpenChannel(machine_id))
             .first;
  }
  return it->second.get();
}

RpcResponse MachineClient::ControlCall(int machine_id, RpcRequest request) {
  return CallSync(ControlChannel(machine_id), machine_id, std::move(request));
}

RpcResponse MachineClient::CopyCall(int machine_id, RpcRequest request) {
  auto channel = transport_->OpenChannel(machine_id);
  return CallSync(channel.get(), machine_id, std::move(request));
}

Status MachineClient::Health(int machine_id) {
  RpcRequest request;
  request.type = RpcType::kHealth;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::CreateDatabase(int machine_id,
                                     const std::string& db_name) {
  RpcRequest request;
  request.type = RpcType::kCreateDatabase;
  request.db_name = db_name;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::DropDatabase(int machine_id,
                                   const std::string& db_name) {
  RpcRequest request;
  request.type = RpcType::kDropDatabase;
  request.db_name = db_name;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::HasDatabase(int machine_id, const std::string& db_name) {
  RpcRequest request;
  request.type = RpcType::kHasDatabase;
  request.db_name = db_name;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::ExecuteDdl(int machine_id, const std::string& db_name,
                                 const std::string& sql) {
  RpcRequest request;
  request.type = RpcType::kExecuteDdl;
  request.db_name = db_name;
  request.sql = sql;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::BulkLoad(int machine_id, const std::string& db_name,
                               const std::string& table,
                               const std::vector<Row>& rows) {
  RpcRequest request;
  request.type = RpcType::kBulkLoad;
  request.db_name = db_name;
  request.table = table;
  request.rows = rows;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Result<std::vector<uint64_t>> MachineClient::ListPrepared(int machine_id) {
  RpcRequest request;
  request.type = RpcType::kListPrepared;
  RpcResponse response = ControlCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.txn_ids);
}

Result<std::vector<uint64_t>> MachineClient::ListActive(int machine_id) {
  RpcRequest request;
  request.type = RpcType::kListActive;
  RpcResponse response = ControlCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.txn_ids);
}

Result<std::vector<std::string>> MachineClient::ListTables(
    int machine_id, const std::string& db_name) {
  RpcRequest request;
  request.type = RpcType::kListTables;
  request.db_name = db_name;
  RpcResponse response = ControlCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.names);
}

Status MachineClient::CommitPrepared(int machine_id, uint64_t txn_id) {
  RpcRequest request;
  request.type = RpcType::kCommitPrepared;
  request.txn_id = txn_id;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Status MachineClient::Abort(int machine_id, uint64_t txn_id) {
  RpcRequest request;
  request.type = RpcType::kAbort;
  request.txn_id = txn_id;
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Result<std::string> MachineClient::Stats(int machine_id) {
  RpcRequest request;
  request.type = RpcType::kStats;
  RpcResponse response = ControlCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.message);
}

Status MachineClient::SetQuota(int machine_id, const std::string& db_name,
                               double rate_tps, double burst, int weight) {
  RpcRequest request;
  request.type = RpcType::kSetQuota;
  request.db_name = db_name;
  request.params = {Value(rate_tps), Value(burst),
                    Value(static_cast<int64_t>(weight))};
  return ControlCall(machine_id, std::move(request)).ToStatus();
}

Result<std::vector<std::string>> MachineClient::DumpTable(
    int machine_id, const std::string& db_name, const std::string& table,
    uint64_t dump_txn_id, int64_t per_row_delay_us) {
  RpcRequest request;
  request.type = RpcType::kDumpTable;
  request.txn_id = dump_txn_id;
  request.db_name = db_name;
  request.table = table;
  request.per_row_delay_us = per_row_delay_us;
  RpcResponse response = CopyCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.records);
}

Result<std::vector<std::string>> MachineClient::DumpDatabase(
    int machine_id, const std::string& db_name, uint64_t dump_txn_id,
    int64_t per_row_delay_us) {
  RpcRequest request;
  request.type = RpcType::kDumpDatabase;
  request.txn_id = dump_txn_id;
  request.db_name = db_name;
  request.per_row_delay_us = per_row_delay_us;
  RpcResponse response = CopyCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.records);
}

Result<std::vector<std::string>> MachineClient::WalDeltaRead(
    int machine_id, const std::string& db_name, uint64_t wal_cursor,
    uint64_t* frontier) {
  RpcRequest request;
  request.type = RpcType::kWalDeltaRead;
  request.db_name = db_name;
  request.wal_cursor = wal_cursor;
  RpcResponse response = CopyCall(machine_id, std::move(request));
  if (!response.ok()) return response.ToStatus();
  *frontier = response.wal_lsn;
  return std::move(response.records);
}

Status MachineClient::ApplyRecords(int machine_id, const std::string& db_name,
                                   const std::vector<std::string>& records) {
  RpcRequest request;
  request.type = RpcType::kApplyRecords;
  request.db_name = db_name;
  request.records = records;
  return CopyCall(machine_id, std::move(request)).ToStatus();
}

// --- Deadline machinery ---

void MachineClient::CallWithDeadline(Channel* channel, int machine_id,
                                     const RpcRequest& request,
                                     ResponseHandler handler) {
  auto state = std::make_shared<CallState>();
  state->handler = std::move(handler);
  state->machine_id = machine_id;
  state->type = request.type;
  state->trace_id = request.trace_id;
  state->start_us = NowMicros();

  // `this` outlives every reply that finds the call pending: a channel
  // drains before its owner (a Session, a control channel or a synchronous
  // call) goes, a reply that waits for durability is waited for by whoever
  // sent it (CallSync, Connection's fan-outs and its phase 2), and none of
  // those outlives the client. A reply after the deadline returns below
  // without touching `this`.
  channel->Call(request, [this, state](RpcResponse response) {
    bool armed = false;
    ResponseHandler handler = state->Take(&armed);
    if (!handler) return;  // the deadline already answered
    if (armed) Disarm(state.get());
    int64_t elapsed_us = NowMicros() - state->start_us;
    const ClientRpcMetrics& metrics = MetricsForType(state->type);
    obs::Increment(metrics.calls);
    obs::Observe(metrics.latency_us, elapsed_us);
    if (state->trace_id != 0) {
      obs::TraceSpan span;
      span.trace_id = state->trace_id;
      span.machine_id = state->machine_id;
      span.operation = std::string(RpcTypeName(state->type));
      span.start_us = state->start_us;
      span.client_duration_us = elapsed_us;
      span.server_duration_us = response.server_duration_us;
      span.code = response.code;
      obs::TraceCollector::Global().RecordSpan(span);
    }
    handler(std::move(response));
  });
  // An inline reply (the usual in-process case) has already answered, and
  // no deadline could have woken its caller earlier anyway: only a call
  // still pending now (queued, dropped, or waiting for durability) is armed.
  if (options_.call_timeout_us > 0) Arm(state);
}

void MachineClient::Arm(const std::shared_ptr<CallState>& state) {
  if (state->Done()) return;
  platform::Guard lock(watchdog_mu_);
  platform::Guard call_lock(state->mu);
  if (state->done) return;  // answered since the check above
  // Stamped under the lock; WatchdogLoop relies on it to never need a
  // wake-up when a call is armed.
  state->deadline = deadlines_.emplace(
      std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.call_timeout_us),
      state);
  state->armed = true;
}

RpcResponse MachineClient::CallSync(Channel* channel, int machine_id,
                                    RpcRequest request) {
  request.may_run_inline = true;
  auto done = std::make_shared<std::promise<RpcResponse>>();
  auto future = done->get_future();
  CallWithDeadline(channel, machine_id, request,
                   [done](RpcResponse response) {
                     done->set_value(std::move(response));
                   });
  return future.get();
}

void MachineClient::Disarm(CallState* state) {
  platform::Guard lock(watchdog_mu_);
  if (!state->deadline.has_value()) return;
  deadlines_.erase(*state->deadline);
  state->deadline.reset();
}

size_t MachineClient::armed_deadlines() const {
  platform::Guard lock(watchdog_mu_);
  return deadlines_.size();
}

void MachineClient::AbandonArmedCalls() {
  DeadlineMap abandoned;
  {
    platform::Guard lock(watchdog_mu_);
    abandoned.swap(deadlines_);
    for (auto& [deadline, state] : abandoned) state->deadline.reset();
  }
  for (auto& [deadline, state] : abandoned) {
    ResponseHandler handler = state->Take();
    if (!handler) continue;  // the reply won the race
    handler(RpcResponse::FromStatus(Status::Unavailable(
        "rpc abandoned by a controller takeover (machine " +
        std::to_string(state->machine_id) + ")")));
  }
}

void MachineClient::WatchdogLoop() {
  const auto timeout = std::chrono::microseconds(options_.call_timeout_us);
  platform::UniqueLock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    // Every call has the same timeout and stamps its deadline under this
    // lock, so a call armed while the watchdog sleeps expires no earlier
    // than the wake-up chosen here (the earliest armed deadline, or one
    // timeout from now when none is armed): arming never wakes the watchdog.
    auto wake = deadlines_.empty() ? std::chrono::steady_clock::now() + timeout
                                   : deadlines_.begin()->first;
    if (watchdog_cv_.WaitUntil(lock, wake) == std::cv_status::no_timeout &&
        watchdog_stop_) {
      break;
    }
    auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<CallState>> expired;
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      expired.push_back(std::move(deadlines_.begin()->second));
      expired.back()->deadline.reset();
      deadlines_.erase(deadlines_.begin());
    }
    if (expired.empty()) continue;
    lock.unlock();
    for (auto& state : expired) {
      ResponseHandler handler = state->Take();
      if (!handler) continue;  // reply arrived in time
      int machine_id = state->machine_id;
      MTDB_LOG(kWarning) << "rpc to machine " << machine_id
                         << " missed its deadline; treating as failed";
      const ClientRpcMetrics& metrics = MetricsForType(state->type);
      obs::Increment(metrics.calls);
      obs::Increment(metrics.timeouts);
      if (state->trace_id != 0) {
        obs::TraceSpan span;
        span.trace_id = state->trace_id;
        span.machine_id = machine_id;
        span.operation = std::string(RpcTypeName(state->type));
        span.start_us = state->start_us;
        span.client_duration_us = NowMicros() - state->start_us;
        span.code = StatusCode::kUnavailable;
        obs::TraceCollector::Global().RecordSpan(span);
      }
      // Declare the machine failed before completing the call, so a caller
      // woken by the kUnavailable reply already sees the failure.
      OnTimeout(machine_id);
      handler(RpcResponse::FromStatus(Status::Unavailable(
          "rpc deadline exceeded (machine " + std::to_string(machine_id) +
          ")")));
    }
    lock.lock();
  }
}

void MachineClient::OnTimeout(int machine_id) {
  TimeoutListener listener;
  {
    platform::Guard lock(mu_);
    listener = timeout_listener_;
  }
  if (listener) listener(machine_id);
}

}  // namespace mtdb::net
