#include "src/net/inproc_transport.h"

#include <utility>

#include "src/cluster/strand.h"
#include "src/common/logging.h"
#include "src/net/codec.h"
#include "src/net/machine_service.h"

namespace mtdb::net {

// One in-process "connection": a strand that serializes delivery, dispatch,
// and reply for all calls on this channel. Mirrors a dedicated client
// connection to the machine's DBMS process.
class InProcTransport::InProcChannel : public Channel {
 public:
  InProcChannel(InProcTransport* transport, int machine_id)
      : transport_(transport), machine_id_(machine_id) {}

  ~InProcChannel() override { strand_.Drain(); }

  void Call(const RpcRequest& request, ResponseHandler handler) override {
    // Marshal up front: the bytes are what the fault hook conceptually acts
    // on, and encoding outside the strand keeps the serialized cost on the
    // caller like a real socket write.
    auto frame = std::make_shared<std::string>();
    EncodeRequestFrame(request, frame.get());
    auto deliver = [this, frame = std::move(frame),
                    handler = std::move(handler)]() mutable {
      Deliver(*frame, std::move(handler));
    };
    // A request that may run on the caller's thread does, instead of hopping
    // to the strand's thread and back — but only when the channel is idle,
    // so it still runs after everything sent before it.
    if (request.may_run_inline) {
      strand_.RunIfIdle(std::move(deliver));
    } else {
      strand_.SubmitDetached(std::move(deliver));
    }
  }

 private:
  void Deliver(const std::string& frame, ResponseHandler handler) {
    size_t frame_size = 0;
    Status frame_error;
    auto payload =
        ExtractFrame(frame, &frame_size, &frame_error);
    if (!payload.has_value()) {
      handler(RpcResponse::FromStatus(
          frame_error.ok() ? Status::Internal("inproc: incomplete frame")
                           : frame_error));
      return;
    }
    auto request_or = DecodeRequest(*payload);
    if (!request_or.ok()) {
      handler(RpcResponse::FromStatus(request_or.status()));
      return;
    }
    const RpcRequest& request = *request_or;

    Fault fault = transport_->EvaluateFault(machine_id_, request);
    if (fault == Fault::kDropRequest) {
      MTDB_LOG(kDebug) << "inproc: dropped request " << RpcTypeName(request.type)
                   << " to machine " << machine_id_;
      return;  // the caller's deadline watchdog answers eventually
    }
    // The reply half runs wherever the service answers: here, or later on
    // the machine's log thread for a reply that waits for durability. It
    // keeps no channel state but the strand's address, which it only
    // dereferences on the strand's own thread, because the channel may be
    // gone by then.
    ResponseHandler reply = [transport = transport_, machine_id = machine_id_,
                             type = request.type, fault, strand = &strand_,
                             handler = std::move(handler)](
                                RpcResponse response) {
      if (!Strand::InTaskOf(strand)) {
        Reply(transport, machine_id, type, fault, std::move(response),
              handler);
        return;
      }
      // Answered inside a queued task: hand the reply over once the strand
      // is idle, so the caller's next inline request need not queue behind
      // this task's tail.
      strand->RunAfterTask([transport, machine_id, type, fault, handler,
                            response = std::move(response)]() mutable {
        Reply(transport, machine_id, type, fault, std::move(response),
              handler);
      });
    };
    // Deliveries on one channel never overlap (the strand runs one at a
    // time, inline or queued), so the cached service needs no lock.
    if (service_ == nullptr) service_ = transport_->Lookup(machine_id_);
    if (service_ == nullptr) {
      reply(RpcResponse::FromStatus(Status::Unavailable(
          "no machine " + std::to_string(machine_id_) +
          " attached to inproc transport")));
      return;
    }
    service_->Dispatch(request, std::move(reply));
  }

  static void Reply(InProcTransport* transport, int machine_id, RpcType type,
                    Fault fault, RpcResponse response,
                    const ResponseHandler& handler) {
    if (fault == Fault::kDropReply) {
      MTDB_LOG(kDebug) << "inproc: dropped reply for " << RpcTypeName(type)
                   << " from machine " << machine_id;
      return;  // executed on the machine, but the coordinator never hears
    }
    // Round-trip the response through the codec too.
    std::string reply_frame;
    EncodeResponseFrame(response, &reply_frame);
    size_t reply_size = 0;
    Status reply_error;
    auto reply_payload = ExtractFrame(reply_frame, &reply_size, &reply_error);
    if (!reply_payload.has_value()) {
      handler(RpcResponse::FromStatus(
          Status::Internal("inproc: bad reply frame")));
      return;
    }
    auto response_or = DecodeResponse(*reply_payload);
    if (!response_or.ok()) {
      handler(RpcResponse::FromStatus(response_or.status()));
      return;
    }
    transport->delivered_.fetch_add(1, std::memory_order_relaxed);
    handler(std::move(*response_or));
  }

  InProcTransport* transport_;
  int machine_id_;
  // Resolved on the first delivery that finds the machine attached.
  MachineService* service_ = nullptr;
  Strand strand_;
};

std::unique_ptr<Channel> InProcTransport::OpenChannel(int machine_id) {
  return std::make_unique<InProcChannel>(this, machine_id);
}

void InProcTransport::AttachLocal(int machine_id, MachineService* service) {
  platform::Guard lock(mu_);
  services_[machine_id] = service;
}

void InProcTransport::SetFaultHook(FaultHook hook) {
  platform::Guard lock(mu_);
  fault_hook_ = std::move(hook);
  UpdateFaultsArmedLocked();
}

void InProcTransport::PartitionMachine(int machine_id) {
  platform::Guard lock(mu_);
  partitioned_.insert(machine_id);
  UpdateFaultsArmedLocked();
}

void InProcTransport::HealMachine(int machine_id) {
  platform::Guard lock(mu_);
  partitioned_.erase(machine_id);
  UpdateFaultsArmedLocked();
}

void InProcTransport::UpdateFaultsArmedLocked() {
  faults_armed_.store(fault_hook_ != nullptr || !partitioned_.empty(),
                      std::memory_order_release);
}

MachineService* InProcTransport::Lookup(int machine_id) const {
  platform::Guard lock(mu_);
  auto it = services_.find(machine_id);
  return it == services_.end() ? nullptr : it->second;
}

InProcTransport::Fault InProcTransport::EvaluateFault(
    int machine_id, const RpcRequest& request) const {
  if (!faults_armed_.load(std::memory_order_acquire)) return Fault::kDeliver;
  FaultHook hook;
  {
    platform::Guard lock(mu_);
    if (partitioned_.count(machine_id) > 0) return Fault::kDropRequest;
    hook = fault_hook_;
  }
  return hook ? hook(machine_id, request) : Fault::kDeliver;
}

}  // namespace mtdb::net
