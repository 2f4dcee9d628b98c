#ifndef MTDB_NET_INPROC_TRANSPORT_H_
#define MTDB_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/net/transport.h"
#include "src/platform/mutex.h"

namespace mtdb::net {

// Deterministic in-process transport. Every Call still runs the full
// marshalling round trip (encode request -> decode request -> dispatch ->
// encode response -> decode response), so the wire codec is exercised by
// every cluster test, but delivery is a function call on a per-channel
// strand — the same FIFO-per-(connection,machine) ordering a dedicated TCP
// connection provides, with none of the scheduling nondeterminism.
//
// A request marked RpcRequest::may_run_inline runs on the calling thread,
// inside Call, when nothing is queued or running on its channel; otherwise
// (and for every unmarked request) it runs on the channel's strand thread,
// which starts when the channel first queues a request. A channel whose
// requests all run inline therefore never owns a thread. An inline caller
// is blocked in the machine's Dispatch until it returns, so an RPC deadline
// cannot wake it earlier; in-process Dispatch always returns (its lock and
// WFQ waits are bounded, and it never waits on a log). A reply that waits
// for durability is decoded and handed over on the machine's log thread,
// after the channel may have run later requests. A dropped request or
// reply returns from Call at once and leaves the caller to the deadline
// watchdog.
//
// Fault injection:
//  * SetFaultHook decides per request whether to deliver it, drop it before
//    the service sees it (lost request), or execute it but drop the reply
//    (lost response — the dangerous 2PC case: the participant has voted but
//    the coordinator never hears it).
//  * PartitionMachine makes a machine unreachable (every call times out at
//    the client) until HealMachine.
// Hooks run on the delivering thread (the caller's or the strand's), after
// the request is already serialized, so they see exactly what would have
// hit the wire. A reply drop is applied wherever the reply is produced.
// Delivery takes no transport-wide lock while no fault is installed: a
// channel resolves its machine's service once, and evaluates faults under
// the transport's mutex only while a hook or a partition is in place.
class InProcTransport : public Transport {
 public:
  enum class Fault {
    kDeliver,      // normal delivery
    kDropRequest,  // lose the request before the service executes it
    kDropReply,    // execute the request, lose the response
  };

  using FaultHook = std::function<Fault(int machine_id, const RpcRequest&)>;

  InProcTransport() = default;

  std::unique_ptr<Channel> OpenChannel(int machine_id) override;
  void AttachLocal(int machine_id, MachineService* service) override;
  std::string name() const override { return "inproc"; }

  void SetFaultHook(FaultHook hook);

  // Cuts / restores all delivery to one machine (requests and replies).
  void PartitionMachine(int machine_id);
  void HealMachine(int machine_id);

  // Number of requests fully delivered (dispatched with the reply handed to
  // the caller) since construction. Lets tests assert traffic actually
  // crossed the transport.
  int64_t delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  class InProcChannel;

  // The service attached for machine_id; null means unreachable.
  MachineService* Lookup(int machine_id) const;
  // Returns kDeliver/kDropRequest/kDropReply for this request, folding in
  // partitions.
  Fault EvaluateFault(int machine_id, const RpcRequest& request) const;
  // Recomputes faults_armed_ after a hook or partition change.
  void UpdateFaultsArmedLocked() MTDB_REQUIRES(mu_);

  mutable platform::Mutex mu_{"net/InProcTransport::mu"};
  std::map<int, MachineService*> services_ MTDB_GUARDED_BY(mu_);
  std::set<int> partitioned_ MTDB_GUARDED_BY(mu_);
  FaultHook fault_hook_ MTDB_GUARDED_BY(mu_);
  // Set while a fault hook is installed or a machine is partitioned; written
  // under mu_, read without it on every delivery.
  std::atomic<bool> faults_armed_{false};
  std::atomic<int64_t> delivered_{0};
};

}  // namespace mtdb::net

#endif  // MTDB_NET_INPROC_TRANSPORT_H_
