#include "perfbench/trace.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

thread_local ThreadTrace* t_trace = nullptr;

class TracingChannel : public mtdb::net::Channel {
 public:
  TracingChannel(std::unique_ptr<mtdb::net::Channel> inner, int machine_id)
      : inner_(std::move(inner)), machine_id_(machine_id) {}

  void Call(const mtdb::net::RpcRequest& request,
            mtdb::net::ResponseHandler handler) override {
    ThreadTrace* trace = t_trace;
    if (trace == nullptr || !trace->enabled) {
      inner_->Call(request, std::move(handler));
      return;
    }
    Span* span = &trace->spans.emplace_back();
    span->kind = SpanKind::kRpc;
    span->rpc_type = request.type;
    span->machine = static_cast<int16_t>(machine_id_);
    span->txn = trace->txn;
    span->trace_id = request.trace_id;
    span->start_ns = NowNs();
    inner_->Call(request, [span, handler = std::move(handler)](
                              mtdb::net::RpcResponse response) mutable {
      span->server_us = response.server_duration_us;
      span->end_ns = NowNs();
      handler(std::move(response));
    });
  }

 private:
  std::unique_ptr<mtdb::net::Channel> inner_;
  int machine_id_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BindThreadTrace(ThreadTrace* trace) { t_trace = trace; }

ScopedSpan::ScopedSpan(SpanKind kind)
    : trace_(t_trace != nullptr && t_trace->enabled ? t_trace : nullptr),
      kind_(kind),
      start_ns_(trace_ != nullptr ? NowNs() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  Span& span = trace_->spans.emplace_back();
  span.kind = kind_;
  span.txn = trace_->txn;
  span.start_ns = start_ns_;
  span.end_ns = NowNs();
}

std::unique_ptr<mtdb::net::Channel> TracingTransport::OpenChannel(
    int machine_id) {
  return std::make_unique<TracingChannel>(inner_.OpenChannel(machine_id),
                                          machine_id);
}

}  // namespace perfbench
