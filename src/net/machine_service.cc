#include "src/net/machine_service.h"

#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "src/cluster/machine.h"
#include "src/common/clock.h"
#include "src/net/codec.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/parser.h"
#include "src/storage/dump.h"
#include "src/storage/wal/wal.h"

namespace mtdb::net {

namespace {

// Server-side per-type service-time histograms, resolved once.
Histogram* ServerLatencyFor(RpcType type) {
  static Histogram** table = [] {
    auto** entries = new Histogram*[kRpcTypeLimit]();
    for (int i = 1; i < kRpcTypeLimit; ++i) {
      if (!IsLiveRpcType(i)) continue;
      entries[i] = obs::MetricsRegistry::Global().GetHistogram(
          "mtdb_rpc_server_us",
          {.operation = std::string(RpcTypeName(static_cast<RpcType>(i)))});
    }
    return entries;
  }();
  int index = static_cast<int>(type);
  return index > 0 && index < kRpcTypeLimit ? table[index] : nullptr;
}

bool IsTransactional(RpcType type) {
  switch (type) {
    case RpcType::kBegin:
    case RpcType::kExecute:
    case RpcType::kPrepare:
    case RpcType::kCommit:
    case RpcType::kCommitPrepared:
    case RpcType::kAbort:
      return true;
    default:
      return false;
  }
}

void SleepMicros(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

MachineService::MachineService(Machine* machine) : machine_(machine) {}

void MachineService::Dispatch(const RpcRequest& request,
                              ResponseHandler reply) {
  // The fail-stop model: a failed machine answers nothing but health probes.
  // (The liveness probe must keep answering so monitoring can distinguish
  // "machine declared failed" from "network partition".)
  if (request.type == RpcType::kHealth) {
    reply(RpcResponse::FromStatus(
        machine_->failed() ? Status::Unavailable("machine failed")
                           : Status::OK()));
    return;
  }
  // Stats stay readable on failed machines too: post-mortem counters are
  // exactly what an operator wants from a dead machine.
  if (request.type == RpcType::kStats) {
    RpcResponse response;
    response.message = obs::MetricsRegistry::Global().TextDump();
    reply(std::move(response));
    return;
  }
  if (machine_->failed()) {
    reply(RpcResponse::FromStatus(Status::Unavailable("machine failed")));
    return;
  }
  // Service time runs from here to the reply, durability wait included.
  auto finish = [type = request.type, start_us = NowMicros(),
                 reply = std::move(reply)](RpcResponse response) {
    int64_t elapsed_us = NowMicros() - start_us;
    response.server_duration_us = elapsed_us;
    obs::Observe(ServerLatencyFor(type), elapsed_us);
    reply(std::move(response));
  };
  if (!IsTransactional(request.type)) {
    finish(DispatchControl(request));
    return;
  }
  uint64_t durable_lsn = 0;
  std::shared_ptr<Engine> engine = machine_->engine();
  RpcResponse response =
      DispatchTransactional(engine.get(), request, &durable_lsn);
  if (durable_lsn == 0) {
    finish(std::move(response));
    return;
  }
  // The completion captures no engine reference: the log thread must never
  // be the one to destroy the engine that owns it.
  engine->OnDurable(durable_lsn, [finish = std::move(finish)](Status status) {
    finish(RpcResponse::FromStatus(status));
  });
}

RpcResponse MachineService::Begin(Engine* engine, const RpcRequest& request) {
  // QoS admission gates the transaction here, before any engine state
  // exists: an over-quota tenant answers with a fast kResourceExhausted +
  // retry_after_us instead of queueing work. Everything after the begin
  // (executes, 2PC completions) belongs to an already-admitted transaction
  // and is never throttled, so a quota can never cut a replicated write off
  // on a subset of replicas.
  qos::AdmitDecision decision = machine_->AdmitBegin(request.db_name);
  if (!decision.admitted) {
    RpcResponse response = RpcResponse::FromStatus(
        Status::ResourceExhausted("tenant over admission quota"));
    response.retry_after_us = decision.retry_after_us;
    return response;
  }
  uint64_t snapshot_ts = 0;
  RpcResponse response = RpcResponse::FromStatus(
      engine->Begin(request.txn_id, request.read_only, &snapshot_ts));
  response.snapshot_ts = snapshot_ts;
  return response;
}

RpcResponse MachineService::Execute(Engine* engine,
                                    const RpcRequest& request) {
  // Parse+plan (or plan-cache hit) happens before the latency model so
  // cached statements skip straight to the op slot.
  auto plan_or = engine->GetPlan(request.db_name, request.sql);
  if (!plan_or.ok()) return RpcResponse::FromStatus(plan_or.status());
  // Test-only injected latency is applied *before* taking an op slot,
  // matching the pre-RPC execution path so Table 1 anomaly schedules stay
  // deterministic.
  SleepMicros(request.debug_delay_us);
  qos::WeightedFairQueue::Guard guard(machine_->fair_queue(),
                                      request.db_name);
  int64_t execute_start_us = NowMicros();
  SleepMicros(machine_->base_op_latency_us());
  sql::SqlExecutor executor(engine);
  auto result = executor.ExecutePlan(request.txn_id, request.db_name,
                                     **plan_or, request.params);
  machine_->RecordExecuteLatency(NowMicros() - execute_start_us);
  if (!result.ok()) return RpcResponse::FromStatus(result.status());
  RpcResponse response;
  response.result = std::move(*result);
  return response;
}

RpcResponse MachineService::DispatchTransactional(Engine* engine,
                                                  const RpcRequest& request,
                                                  uint64_t* durable_lsn) {
  switch (request.type) {
    case RpcType::kBegin:
      return Begin(engine, request);
    case RpcType::kExecute: {
      if (!request.begin) return Execute(engine, request);
      // The transaction's first request to this machine: begin it, then run
      // the statement, and answer both in one reply. A refused or failed
      // begin runs nothing.
      RpcResponse begun = Begin(engine, request);
      if (!begun.ok()) return begun;
      RpcResponse response = Execute(engine, request);
      response.snapshot_ts = begun.snapshot_ts;
      return response;
    }
    // The 2PC outcomes hand back their record's LSN instead of waiting on
    // it; Dispatch answers once it is durable.
    case RpcType::kPrepare:
      return RpcResponse::FromStatus(
          engine->Prepare(request.txn_id, durable_lsn));
    case RpcType::kCommit:
      return RpcResponse::FromStatus(
          engine->Commit(request.txn_id, durable_lsn));
    case RpcType::kCommitPrepared:
      return RpcResponse::FromStatus(
          engine->CommitPrepared(request.txn_id, durable_lsn));
    case RpcType::kAbort:
      return RpcResponse::FromStatus(engine->Abort(request.txn_id));
    default:
      return RpcResponse::FromStatus(Status::Internal(
          "non-transactional request in transactional dispatch"));
  }
}

RpcResponse MachineService::DispatchControl(const RpcRequest& request) {
  auto engine = machine_->engine();
  switch (request.type) {
    case RpcType::kCreateDatabase:
      return RpcResponse::FromStatus(engine->CreateDatabase(request.db_name));
    case RpcType::kDropDatabase:
      return RpcResponse::FromStatus(engine->DropDatabase(request.db_name));
    case RpcType::kHasDatabase:
      return RpcResponse::FromStatus(
          engine->HasDatabase(request.db_name)
              ? Status::OK()
              : Status::NotFound("no database " + request.db_name));
    case RpcType::kExecuteDdl: {
      auto stmt_or = sql::Parse(request.sql);
      if (!stmt_or.ok()) return RpcResponse::FromStatus(stmt_or.status());
      sql::SqlExecutor executor(engine.get());
      auto result = executor.Execute(/*txn_id=*/0, request.db_name, *stmt_or);
      if (!result.ok()) return RpcResponse::FromStatus(result.status());
      RpcResponse response;
      response.result = std::move(*result);
      return response;
    }
    case RpcType::kBulkLoad:
      return RpcResponse::FromStatus(
          engine->BulkInsert(request.db_name, request.table, request.rows));
    case RpcType::kDumpTable: {
      DumpOptions options;
      options.per_row_delay_us = request.per_row_delay_us;
      auto dump_or = DumpTable(engine.get(), request.db_name, request.table,
                               request.txn_id, options);
      if (!dump_or.ok()) return RpcResponse::FromStatus(dump_or.status());
      RpcResponse response;
      AppendCopyRecords(request.db_name, std::move(*dump_or),
                        &response.records);
      return response;
    }
    case RpcType::kDumpDatabase: {
      DumpOptions options;
      options.per_row_delay_us = request.per_row_delay_us;
      auto dump_or = DumpDatabaseCoarse(engine.get(), request.db_name,
                                        request.txn_id, options);
      if (!dump_or.ok()) return RpcResponse::FromStatus(dump_or.status());
      RpcResponse response;
      for (TableDump& table : dump_or->tables) {
        AppendCopyRecords(request.db_name, std::move(table),
                          &response.records);
      }
      return response;
    }
    case RpcType::kListPrepared: {
      RpcResponse response;
      response.txn_ids = engine->PreparedTxnIds();
      return response;
    }
    case RpcType::kListActive: {
      RpcResponse response;
      response.txn_ids = engine->ActiveTxnIds();
      return response;
    }
    case RpcType::kSetQuota: {
      // Quota triple rides the params vector:
      // [rate_tps (double), burst (double), weight (int)].
      if (request.params.size() != 3 || !request.params[0].is_numeric() ||
          !request.params[1].is_numeric() || !request.params[2].is_numeric()) {
        return RpcResponse::FromStatus(
            Status::InvalidArgument("malformed quota params"));
      }
      qos::QuotaSpec spec;
      spec.rate_tps = request.params[0].AsDouble();
      spec.burst = request.params[1].AsDouble();
      spec.weight = static_cast<int>(request.params[2].is_int()
                                         ? request.params[2].AsInt()
                                         : request.params[2].AsDouble());
      machine_->SetQuota(request.db_name, spec);
      return RpcResponse();
    }
    case RpcType::kWalDeltaRead: {
      WriteAheadLog* log = engine->wal();
      if (log == nullptr) {
        // Doubles as the replica builder's capability probe: a WAL-less
        // source cannot serve deltas, so a move falls back to frozen copy.
        return RpcResponse::FromStatus(
            Status::FailedPrecondition("source machine has no WAL"));
      }
      // Push enqueued records to the file so the frontier covers them.
      Status sync_status = log->Sync();
      if (!sync_status.ok()) return RpcResponse::FromStatus(sync_status);
      // A probe round (cursor UINT64_MAX) finds no record past its cursor:
      // it returns the frontier alone.
      uint64_t frontier = 0;
      auto records_or = WriteAheadLog::ReadCommittedDeltaSince(
          log->path(), request.db_name, request.wal_cursor, &frontier);
      if (!records_or.ok()) {
        return RpcResponse::FromStatus(records_or.status());
      }
      RpcResponse response;
      response.records = std::move(*records_or);
      response.wal_lsn = frontier;
      return response;
    }
    case RpcType::kApplyRecords:
      // Replay tolerates kNotFound record by record (a delta may name an
      // object a later record drops), so into a missing database it would
      // install nothing and answer OK: a target replaced since the copy
      // created the database must fail the copy instead.
      if (!engine->HasDatabase(request.db_name)) {
        return RpcResponse::FromStatus(
            Status::NotFound("no database " + request.db_name));
      }
      return RpcResponse::FromStatus(
          WriteAheadLog::Replay(request.records, engine.get()));
    case RpcType::kListTables: {
      Database* db = engine->GetDatabase(request.db_name);
      if (db == nullptr) {
        return RpcResponse::FromStatus(
            Status::NotFound("no database " + request.db_name));
      }
      RpcResponse response;
      response.names = db->TableNames();
      return response;
    }
    // Retired wire numbers; DecodeRequest never lets them through.
    case RpcType::kPrepareStatement:
    case RpcType::kExecutePrepared:
    default:
      return RpcResponse::FromStatus(Status::InvalidArgument(
          "unhandled rpc type " +
          std::to_string(static_cast<int>(request.type))));
  }
}

}  // namespace mtdb::net
