#ifndef MTDB_NET_MACHINE_CLIENT_H_
#define MTDB_NET_MACHINE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/platform/mutex.h"

namespace mtdb::net {

struct RpcOptions {
  // Per-call deadline, counted from when the caller regains control
  // (Channel::Call returns). A call still unanswered by then completes with
  // kUnavailable and fires the timeout listener (the paper's fail-stop
  // model: silence is indistinguishable from death, so the controller
  // declares the machine failed and recovers). A call answered inline,
  // before Channel::Call returns, never arms one. <= 0 disables deadlines.
  int64_t call_timeout_us = 60'000'000;
};

// The controller's client stub for talking to machines. Everything the
// cluster controller wants from a machine goes through here as an RPC; this
// class adds the reliability layer transports do not provide:
//  * every call completes exactly once — with the reply, or with
//    kUnavailable when the deadline passes first;
//  * a deadline expiry notifies the timeout listener so lost machines feed
//    the existing failure/recovery path.
class MachineClient {
 public:
  using TimeoutListener = std::function<void(int machine_id)>;

  explicit MachineClient(Transport* transport, RpcOptions options = {});
  ~MachineClient();

  MachineClient(const MachineClient&) = delete;
  MachineClient& operator=(const MachineClient&) = delete;

  const RpcOptions& options() const { return options_; }

  void SetTimeoutListener(TimeoutListener listener);

  // The client end of one (connection, machine) conversation: owns a
  // dedicated channel, so the machine executes this session's requests in
  // submission order — the ordering contract transactions rely on.
  class Session {
   public:
    int machine_id() const { return machine_id_; }

    // Sends one transactional request (kBegin, kExecute, kPrepare, kCommit,
    // kCommitPrepared or kAbort); `done` hears the reply exactly once (reply
    // or deadline). Set
    // request.may_run_inline to let an in-process transport run the request
    // on the calling thread.
    void CallAsync(RpcRequest request, ResponseHandler done);

    // CallAsync with may_run_inline set; waits for and returns the reply.
    RpcResponse Call(RpcRequest request);

   private:
    friend class MachineClient;
    Session(MachineClient* client, int machine_id,
            std::unique_ptr<Channel> channel)
        : client_(client), machine_id_(machine_id),
          channel_(std::move(channel)) {}

    MachineClient* client_;
    int machine_id_;
    std::unique_ptr<Channel> channel_;
  };

  std::unique_ptr<Session> OpenSession(int machine_id);

  // --- Control plane (synchronous; shared per-machine control channel) ---
  Status Health(int machine_id);
  Status CreateDatabase(int machine_id, const std::string& db_name);
  Status DropDatabase(int machine_id, const std::string& db_name);
  // OK when the machine hosts db_name, kNotFound otherwise.
  Status HasDatabase(int machine_id, const std::string& db_name);
  Status ExecuteDdl(int machine_id, const std::string& db_name,
                    const std::string& sql);
  Status BulkLoad(int machine_id, const std::string& db_name,
                  const std::string& table, const std::vector<Row>& rows);
  Result<std::vector<uint64_t>> ListPrepared(int machine_id);
  Result<std::vector<uint64_t>> ListActive(int machine_id);
  Result<std::vector<std::string>> ListTables(int machine_id,
                                              const std::string& db_name);
  // 2PC resolution outside a session (controller takeover).
  Status CommitPrepared(int machine_id, uint64_t txn_id);
  Status Abort(int machine_id, uint64_t txn_id);

  // Text-format metrics dump from the machine (kStats). Answered even by
  // machines marked failed, like kHealth — stats are for diagnosis.
  Result<std::string> Stats(int machine_id);

  // Installs the QoS admission quota and WDRR weight for db_name on the
  // machine (kSetQuota). rate_tps <= 0 removes the rate limit.
  Status SetQuota(int machine_id, const std::string& db_name, double rate_tps,
                  double burst, int weight);

  // Copy calls run on a transient channel of their own: a dump can
  // legitimately take seconds (per_row_delay_us models the paper's copy
  // cost), and a delta round can be large, so neither may head-of-line-block
  // the control channel. Every copy moves as log record payloads
  // (AppendCopyRecords, dump.h): DumpTable returns one table's, and
  // DumpDatabase every table's in turn, read under one lock on them all.
  Result<std::vector<std::string>> DumpTable(int machine_id,
                                             const std::string& db_name,
                                             const std::string& table,
                                             uint64_t dump_txn_id,
                                             int64_t per_row_delay_us);
  Result<std::vector<std::string>> DumpDatabase(int machine_id,
                                                const std::string& db_name,
                                                uint64_t dump_txn_id,
                                                int64_t per_row_delay_us);
  // Returns the committed WAL records the target must replay to catch
  // db_name up past `wal_cursor`, and sets `*frontier` to the source-WAL LSN
  // the delta reaches (the next round's cursor). Cursor UINT64_MAX is a
  // probe: frontier only, no records; a source without a WAL answers
  // kFailedPrecondition.
  Result<std::vector<std::string>> WalDeltaRead(int machine_id,
                                                const std::string& db_name,
                                                uint64_t wal_cursor,
                                                uint64_t* frontier);
  // Installs records on the machine through the one replay
  // (kApplyRecords, WriteAheadLog::Replay): a bulk copy as the dump calls
  // return it, or a delta as WalDeltaRead returns it.
  Status ApplyRecords(int machine_id, const std::string& db_name,
                      const std::vector<std::string>& records);

  // Calls whose deadline is armed: sent and neither answered nor expired.
  size_t armed_deadlines() const;

  // Completes every call armed now with kUnavailable, without the timeout
  // listener: their sender is gone (a controller takeover), so their
  // silence says nothing about the machines. A late reply finds the call
  // done and is dropped.
  void AbandonArmedCalls();

 private:
  struct CallState;
  using DeadlineMap =
      std::multimap<std::chrono::steady_clock::time_point,
                    std::shared_ptr<CallState>>;

  // Exactly-once completion record shared by the reply path and the
  // watchdog; whichever gets there first consumes the handler.
  struct CallState {
    // Guards the exactly-once consumption; the metadata below is written
    // before the state is shared and read-only afterwards.
    platform::Mutex mu{"net/MachineClient::CallState::mu"};
    bool done MTDB_GUARDED_BY(mu) = false;
    // Set, with the watchdog's mutex held too, when the call enters
    // deadlines_; a reply to a call never armed skips Disarm.
    bool armed MTDB_GUARDED_BY(mu) = false;
    ResponseHandler handler MTDB_GUARDED_BY(mu);
    int machine_id = -1;
    RpcType type = RpcType::kHealth;
    uint64_t trace_id = 0;
    int64_t start_us = 0;  // send time, for the client-side latency metric
    // This call's entry in deadlines_ while armed (guarded by the client's
    // watchdog_mu_, which the analysis cannot name from here).
    std::optional<DeadlineMap::iterator> deadline;

    // The handler, to whichever completion comes first (reply, deadline or
    // abandonment); empty for every later one. *was_armed tells whether the
    // call ever entered the watchdog's map.
    ResponseHandler Take(bool* was_armed = nullptr) {
      platform::Guard lock(mu);
      if (done) return nullptr;
      done = true;
      if (was_armed != nullptr) *was_armed = armed;
      return std::move(handler);
    }

    bool Done() {
      platform::Guard lock(mu);
      return done;
    }
  };

  // Issues the call on `channel`, and arms its deadline if the call is still
  // pending when Channel::Call returns.
  void CallWithDeadline(Channel* channel, int machine_id,
                        const RpcRequest& request, ResponseHandler handler);
  // Enters a pending call in the watchdog's map; a call answered meanwhile
  // stays out.
  void Arm(const std::shared_ptr<CallState>& state);
  // Issues the call with may_run_inline set and blocks for the reply.
  RpcResponse CallSync(Channel* channel, int machine_id, RpcRequest request);
  // Control-plane convenience: sync call on the shared control channel.
  RpcResponse ControlCall(int machine_id, RpcRequest request);
  // A copy call: sync, on a transient channel of its own.
  RpcResponse CopyCall(int machine_id, RpcRequest request);
  Channel* ControlChannel(int machine_id);

  // Removes an answered call's deadline, if the watchdog has not taken it.
  void Disarm(CallState* state);
  void WatchdogLoop();
  void OnTimeout(int machine_id);

  Transport* transport_;
  RpcOptions options_;

  platform::Mutex mu_{"net/MachineClient::mu"};
  std::map<int, std::unique_ptr<Channel>> control_channels_
      MTDB_GUARDED_BY(mu_);
  TimeoutListener timeout_listener_ MTDB_GUARDED_BY(mu_);

  mutable platform::Mutex watchdog_mu_{"net/MachineClient::watchdog_mu"};
  platform::CondVar watchdog_cv_;
  DeadlineMap deadlines_ MTDB_GUARDED_BY(watchdog_mu_);
  bool watchdog_stop_ MTDB_GUARDED_BY(watchdog_mu_) = false;
  std::thread watchdog_;
};

}  // namespace mtdb::net

#endif  // MTDB_NET_MACHINE_CLIENT_H_
