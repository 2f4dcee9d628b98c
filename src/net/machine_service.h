#ifndef MTDB_NET_MACHINE_SERVICE_H_
#define MTDB_NET_MACHINE_SERVICE_H_

#include "src/net/message.h"

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
// concurrently.
class MachineService {
 public:
  explicit MachineService(Machine* machine);

  MachineService(const MachineService&) = delete;
  MachineService& operator=(const MachineService&) = delete;

  Machine* machine() const { return machine_; }

  // Executes one request to completion. Never throws; every failure comes
  // back as a Status code in the response.
  RpcResponse Dispatch(const RpcRequest& request);

 private:
  RpcResponse DispatchTransactional(const RpcRequest& request);
  RpcResponse DispatchControl(const RpcRequest& request);
  // Admits and starts request.txn_id (kBegin, or kExecute with `begin`).
  RpcResponse Begin(Engine* engine, const RpcRequest& request);
  // Runs request.sql inside request.txn_id.
  RpcResponse Execute(Engine* engine, const RpcRequest& request);

  Machine* machine_;
};

}  // namespace mtdb::net

#endif  // MTDB_NET_MACHINE_SERVICE_H_
