#ifndef MTDB_NET_MACHINE_SERVICE_H_
#define MTDB_NET_MACHINE_SERVICE_H_

#include <cstdint>

#include "src/net/message.h"
#include "src/net/transport.h"

namespace mtdb {
class Engine;
class Machine;
}

namespace mtdb::net {

// The machine-side RPC endpoint: turns one decoded RpcRequest into one
// RpcResponse by dispatching onto the Machine's engine through the existing
// semaphore/latency machinery. Stateless across requests — statement caching
// lives in the engine's plan cache (Engine::GetPlan), so any transport
// (in-process caller or strand, TCP connection thread) can call Dispatch
// concurrently. No request blocks on the engine's log: a reply that must
// wait for durability comes from the log's completion instead.
class MachineService {
 public:
  explicit MachineService(Machine* machine);

  MachineService(const MachineService&) = delete;
  MachineService& operator=(const MachineService&) = delete;

  Machine* machine() const { return machine_; }

  // Executes one request and answers it through `reply`, exactly once.
  // Never throws; every failure comes back as a Status code in the
  // response. Most requests are answered before Dispatch returns. A
  // kPrepare, kCommit or kCommitPrepared that logged a record is answered
  // once the record is durable, from the log's completion on the log
  // thread: Dispatch returns as soon as the engine call does, so the next
  // request of the same session can run during the flush.
  void Dispatch(const RpcRequest& request, ResponseHandler reply);

 private:
  // Runs a transactional request. For a logged 2PC outcome, *durable_lsn
  // receives the LSN the reply must wait for (0 = answer now).
  RpcResponse DispatchTransactional(Engine* engine, const RpcRequest& request,
                                    uint64_t* durable_lsn);
  RpcResponse DispatchControl(const RpcRequest& request);
  // Admits and starts request.txn_id (kBegin, or kExecute with `begin`).
  RpcResponse Begin(Engine* engine, const RpcRequest& request);
  // Runs request.sql inside request.txn_id.
  RpcResponse Execute(Engine* engine, const RpcRequest& request);

  Machine* machine_;
};

}  // namespace mtdb::net

#endif  // MTDB_NET_MACHINE_SERVICE_H_
