// Span recording for the platform benchmark, measured from outside the
// program: the benchmark's own calls into the cluster API and every RPC the
// controller sends through net::Transport.
#ifndef MTDB_PERFBENCH_TRACE_H_
#define MTDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/net/inproc_transport.h"
#include "src/net/transport.h"

namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNs();

enum class SpanKind : uint8_t {
  kTxn,             // one transaction, as the client sees it
  kConnect,         // ClusterController::Connect
  kPrepareSet,      // workload::PrepareTpcwStatements (statement-set lookup)
  kRunInteraction,  // workload::RunInteraction
  kRpc,             // one controller->machine RPC, caller side
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while an RPC reply is outstanding
  // Benchmark-assigned transaction id; every span of one transaction
  // carries it (RPCs are attributed by calling thread).
  uint64_t txn = 0;
  uint64_t trace_id = 0;      // kRpc: the request's trace id
  int64_t server_us = -1;     // kRpc: reply's server_duration_us
  SpanKind kind = SpanKind::kTxn;
  mtdb::net::RpcType rpc_type = mtdb::net::RpcType::kHealth;  // kRpc
  int16_t machine = -1;                                       // kRpc
  bool committed = false;                                     // kTxn
  bool write = false;                                         // kTxn
};

// One client thread's span buffer. A deque so that an RPC reply handler,
// running on a transport thread, can fill in its span through a stable
// pointer while the owning thread keeps appending. The owner reads a span
// only after its transaction has finished, and every reply of a finished
// transaction has been handled by then.
struct ThreadTrace {
  std::deque<Span> spans;
  uint64_t txn = 0;     // current transaction (0 = none)
  bool enabled = false;  // record spans for the current transaction
};

// Binds the calling thread's span buffer (nullptr unbinds).
void BindThreadTrace(ThreadTrace* trace);

// Records a span of the benchmark's own around a call when the calling
// thread is tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  SpanKind kind_;
  int64_t start_ns_;
};

// A transport that forwards to an InProcTransport and, for callers bound to
// an enabled ThreadTrace, records one kRpc span per call. Installed through
// ClusterControllerOptions::transport; must outlive the controller.
class TracingTransport : public mtdb::net::Transport {
 public:
  TracingTransport() = default;

  std::unique_ptr<mtdb::net::Channel> OpenChannel(int machine_id) override;
  void AttachLocal(int machine_id,
                   mtdb::net::MachineService* service) override {
    inner_.AttachLocal(machine_id, service);
  }
  std::string name() const override { return "traced-" + inner_.name(); }

 private:
  mtdb::net::InProcTransport inner_;
};

}  // namespace perfbench

#endif  // MTDB_PERFBENCH_TRACE_H_
