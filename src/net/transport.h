#ifndef MTDB_NET_TRANSPORT_H_
#define MTDB_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/net/message.h"

namespace mtdb::net {

class MachineService;

// Invoked with the reply to one Call. A transport invokes the handler at
// most once; it may never invoke it at all when the reply is lost (dropped
// by fault injection, or the peer vanished without an error the transport
// can observe). MachineClient layers a deadline watchdog on top so callers
// always hear back exactly once.
using ResponseHandler = std::function<void(RpcResponse)>;

// An ordered, bidirectional message stream to one machine — the moral
// equivalent of one client connection to a per-machine DBMS process.
// Requests sent on one channel are executed by the machine in FIFO order.
// A reply that waits for durability (a logged PREPARE, COMMIT or COMMIT
// PREPARED) may arrive after the replies to later requests on the same
// channel; every other reply arrives in request order. Call is
// thread-safe, and may run the handler before it returns (on the calling
// thread, for a request marked RpcRequest::may_run_inline).
class Channel {
 public:
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  virtual void Call(const RpcRequest& request, ResponseHandler handler) = 0;

 protected:
  Channel() = default;
};

// Factory for channels to machines, keyed by machine id. Implementations:
// InProcTransport (deterministic in-process delivery with fault injection)
// and TcpTransport (real sockets against mtdbd server processes).
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Opens an ordered channel to `machine_id`. Never fails: channels to
  // unknown or unreachable machines answer every call with kUnavailable.
  virtual std::unique_ptr<Channel> OpenChannel(int machine_id) = 0;

  // Hosts a machine's service endpoint inside this transport. In-process
  // transports dispatch to it directly; remote transports ignore this (the
  // server process hosts the service, see tools/mtdbd.cc).
  virtual void AttachLocal(int machine_id, MachineService* service) {
    (void)machine_id;
    (void)service;
  }

  virtual std::string name() const = 0;

 protected:
  Transport() = default;
};

// A channel whose peer does not exist: every call answers kUnavailable
// immediately. Returned by transports for unknown machine ids.
class UnreachableChannel : public Channel {
 public:
  explicit UnreachableChannel(int machine_id) : machine_id_(machine_id) {}

  void Call(const RpcRequest& request, ResponseHandler handler) override {
    (void)request;
    handler(RpcResponse::FromStatus(Status::Unavailable(
        "no route to machine " + std::to_string(machine_id_))));
  }

 private:
  int machine_id_;
};

}  // namespace mtdb::net

#endif  // MTDB_NET_TRANSPORT_H_
