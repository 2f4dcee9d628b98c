#ifndef MTDB_NET_TCP_TRANSPORT_H_
#define MTDB_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/net/transport.h"
#include "src/platform/mutex.h"

namespace mtdb::net {

// Machine-side socket server: accepts connections and answers framed
// RpcRequests by dispatching them on a MachineService. Each accepted
// connection is serviced by one thread that reads, dispatches, and replies
// strictly in order — the FIFO-per-channel contract of Transport. A reply
// that waits for durability holds its connection until the log's
// completion delivers it. Used by the mtdbd daemon (tools/mtdbd.cc) and by
// in-process TCP tests.
class TcpServer {
 public:
  explicit TcpServer(MachineService* service);
  ~TcpServer();  // calls Stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 0.0.0.0:port (0 = kernel-assigned ephemeral port) and starts the
  // accept loop.
  Status Start(uint16_t port);

  // Port actually bound; valid after a successful Start.
  uint16_t port() const { return port_; }

  // Shuts the listener, closes live connections, joins all threads.
  void Stop();

  // Connections whose thread has not been joined yet: the open ones plus at
  // most one that has finished.
  size_t connection_count() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  MachineService* service_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;
  mutable platform::Mutex mu_{"net/TcpServer::mu"};
  // Open connections' threads by socket fd. A connection closes its fd and
  // leaves this map in one critical section, so every fd here is open and
  // Stop never shuts down a reused number.
  std::map<int, std::thread> connections_ MTDB_GUARDED_BY(mu_);
  // The last connection thread to finish; the next one to finish (or Stop)
  // joins it, so finished threads never pile up.
  std::thread finished_ MTDB_GUARDED_BY(mu_);
};

// Client-side transport: one TCP connection per channel, pipelined. Call
// writes the request frame and queues the handler; a reader thread matches
// replies to handlers in FIFO order (the server replies in order, so no
// request ids are needed). A dead socket fails all queued and future calls
// with kUnavailable — the MachineClient deadline then converts silence into
// machine failure.
class TcpTransport : public Transport {
 public:
  TcpTransport() = default;

  // Registers where machine_id lives. Channels to unregistered ids are
  // unreachable (every call answers kUnavailable).
  void AddEndpoint(int machine_id, const std::string& host, uint16_t port);

  std::unique_ptr<Channel> OpenChannel(int machine_id) override;
  std::string name() const override { return "tcp"; }

 private:
  struct Endpoint {
    std::string host;
    uint16_t port;
  };

  platform::Mutex mu_{"net/TcpTransport::mu"};
  std::map<int, Endpoint> endpoints_ MTDB_GUARDED_BY(mu_);
};

}  // namespace mtdb::net

#endif  // MTDB_NET_TCP_TRANSPORT_H_
