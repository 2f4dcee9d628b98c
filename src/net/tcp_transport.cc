#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/platform/mutex.h"
#include "src/net/codec.h"
#include "src/net/machine_service.h"

namespace mtdb::net {

namespace {

// Writes the whole buffer, retrying on EINTR / short writes.
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Reads one length-prefixed frame payload into *payload. Returns false on
// EOF or error (connection is finished either way).
bool ReadFrame(int fd, std::string* payload) {
  char header[4];
  size_t have = 0;
  while (have < sizeof(header)) {
    ssize_t n = ::recv(fd, header + have, sizeof(header) - have, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    have += static_cast<size_t>(n);
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (length > kMaxFrameBytes) return false;
  payload->resize(length);
  size_t off = 0;
  while (off < length) {
    ssize_t n = ::recv(fd, payload->data() + off, length - off, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

int ConnectTo(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

// --- TcpServer ---

TcpServer::TcpServer(MachineService* service) : service_(service) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(uint16_t port) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 64) != 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_.store(listen_fd);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept loop (on Linux, shutdown on a listening socket makes a
  // blocked accept return), join it, and only then close the fd — so no
  // thread can race the close or touch a recycled descriptor.
  int listen_fd = listen_fd_.load();
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd_.store(-1);
  }
  std::vector<std::thread> threads;
  {
    platform::Guard lock(mu_);
    for (auto& [fd, thread] : connections_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    connections_.clear();
    threads.push_back(std::move(finished_));
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

size_t TcpServer::connection_count() const {
  platform::Guard lock(mu_);
  return connections_.size() + (finished_.joinable() ? 1 : 0);
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal error
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    platform::Guard lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    connections_.emplace(fd, std::thread([this, fd] { ServeConnection(fd); }));
  }
}

void TcpServer::ServeConnection(int fd) {
  // Strictly sequential request/reply: this is what gives each connection
  // (= Channel) its FIFO execution order on the machine. A reply that waits
  // for durability comes from the log's completion; the next request is
  // read only after it, so replies stay in request order and the client
  // needs no request ids.
  std::string payload;
  std::string reply;
  while (ReadFrame(fd, &payload)) {
    RpcResponse response;
    auto request_or = DecodeRequest(payload);
    if (!request_or.ok()) {
      response = RpcResponse::FromStatus(request_or.status());
    } else {
      std::promise<RpcResponse> answered;
      service_->Dispatch(*request_or, [&answered](RpcResponse r) {
        answered.set_value(std::move(r));
      });
      response = answered.get_future().get();
    }
    reply.clear();
    EncodeResponseFrame(response, &reply);
    if (!WriteAll(fd, reply.data(), reply.size())) break;
  }
  std::thread predecessor;
  {
    platform::Guard lock(mu_);
    ::close(fd);
    auto it = connections_.find(fd);
    if (it != connections_.end()) {  // else Stop owns this thread already
      predecessor = std::exchange(finished_, std::move(it->second));
      connections_.erase(it);
    }
  }
  if (predecessor.joinable()) predecessor.join();
}

// --- TcpTransport ---

namespace {

// One pipelined client connection. Handlers are queued on write and fired in
// order by the reader thread; the server's sequential reply order makes the
// match-up correct without request ids.
class TcpChannel : public Channel {
 public:
  TcpChannel(int machine_id, int fd) : machine_id_(machine_id), fd_(fd) {
    reader_ = std::thread([this] { ReadLoop(); });
  }

  ~TcpChannel() override {
    {
      platform::Guard lock(mu_);
      dead_ = true;
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    }
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  void Call(const RpcRequest& request, ResponseHandler handler) override {
    std::string frame;
    EncodeRequestFrame(request, &frame);
    {
      platform::Guard lock(mu_);
      if (!dead_) {
        // Handler enqueued under the same lock as the write keeps the FIFO
        // aligned with the byte stream.
        handlers_.push_back(std::move(handler));
        if (WriteAll(fd_, frame.data(), frame.size())) return;
        dead_ = true;
        handler = std::move(handlers_.back());
        handlers_.pop_back();
      }
    }
    handler(RpcResponse::FromStatus(Status::Unavailable(
        "connection to machine " + std::to_string(machine_id_) + " is down")));
  }

 private:
  void ReadLoop() {
    std::string payload;
    while (ReadFrame(fd_, &payload)) {
      ResponseHandler handler;
      {
        platform::Guard lock(mu_);
        if (handlers_.empty()) {
          // Reply with no outstanding request: protocol violation.
          dead_ = true;
          break;
        }
        handler = std::move(handlers_.front());
        handlers_.pop_front();
      }
      auto response_or = DecodeResponse(payload);
      if (response_or.ok()) {
        handler(std::move(*response_or));
      } else {
        handler(RpcResponse::FromStatus(response_or.status()));
      }
    }
    // Socket is finished: fail everything still waiting. Calls racing with
    // the shutdown fail at write time in Call.
    std::deque<ResponseHandler> orphans;
    {
      platform::Guard lock(mu_);
      dead_ = true;
      orphans.swap(handlers_);
    }
    for (auto& orphan : orphans) {
      orphan(RpcResponse::FromStatus(Status::Unavailable(
          "connection to machine " + std::to_string(machine_id_) +
          " lost")));
    }
  }

  int machine_id_;
  int fd_;
  platform::Mutex mu_{"net/TcpChannel::mu"};
  bool dead_ MTDB_GUARDED_BY(mu_) = false;
  std::deque<ResponseHandler> handlers_ MTDB_GUARDED_BY(mu_);
  std::thread reader_;
};

}  // namespace

void TcpTransport::AddEndpoint(int machine_id, const std::string& host,
                               uint16_t port) {
  platform::Guard lock(mu_);
  endpoints_[machine_id] = Endpoint{host, port};
}

std::unique_ptr<Channel> TcpTransport::OpenChannel(int machine_id) {
  Endpoint endpoint;
  {
    platform::Guard lock(mu_);
    auto it = endpoints_.find(machine_id);
    if (it == endpoints_.end()) {
      return std::make_unique<UnreachableChannel>(machine_id);
    }
    endpoint = it->second;
  }
  int fd = ConnectTo(endpoint.host, endpoint.port);
  if (fd < 0) {
    MTDB_LOG(kWarning) << "tcp: cannot connect to machine " << machine_id
                       << " at " << endpoint.host << ":" << endpoint.port;
    return std::make_unique<UnreachableChannel>(machine_id);
  }
  return std::make_unique<TcpChannel>(machine_id, fd);
}

}  // namespace mtdb::net
