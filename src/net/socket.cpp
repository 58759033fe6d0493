#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace nacu::net {

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const void* data, std::size_t n) const {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (sent == 0) {
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

void Socket::shutdown_send() const noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_WR);
  }
}

void Socket::shutdown_receive() const noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RD);
  }
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameReader::FrameReader() : buffer_(kInitialBytes) {}

std::size_t FrameReader::head_bytes() const noexcept {
  if (end_ - begin_ < kLengthPrefixBytes) {
    return 0;
  }
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < kLengthPrefixBytes; ++i) {
    length |= static_cast<std::uint32_t>(buffer_[begin_ + i]) << (8 * i);
  }
  if (length == 0 || length > kMaxFrameBytes) {
    return kBrokenPrefix;
  }
  return kLengthPrefixBytes + length;
}

bool FrameReader::ready() const noexcept {
  const std::size_t need = head_bytes();
  return need == kBrokenPrefix || (need != 0 && need <= end_ - begin_);
}

FrameReader::Frame FrameReader::next(const Socket& socket) {
  for (;;) {
    const std::size_t need = head_bytes();
    if (need == kBrokenPrefix) {
      return {Status::kBroken, {}};
    }
    if (need != 0 && need <= end_ - begin_) {
      const std::span<const std::uint8_t> payload{
          buffer_.data() + begin_ + kLengthPrefixBytes,
          need - kLengthPrefixBytes};
      begin_ += need;
      return {Status::kFrame, payload};
    }
    // At most one partial frame is left: move it to the front and make
    // room for all of it, so the recv below can complete it.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (need > buffer_.size()) {
      buffer_.resize(need);
    }
    const ssize_t got = ::recv(socket.fd(), buffer_.data() + end_,
                               buffer_.size() - end_, 0);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return {end_ == 0 ? Status::kEof : Status::kBroken, {}};
    }
    end_ += static_cast<std::size_t>(got);
  }
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return;
  }
  Socket sock{fd};
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    return;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return;
  }
  port_ = ntohs(bound.sin_port);
  socket_ = std::move(sock);
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  if (!socket_.valid()) {
    return std::nullopt;
  }
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) {
    return std::nullopt;
  }
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) {
    return std::nullopt;
  }
  Socket conn{fd};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return conn;
}

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Socket{};
  }
  Socket sock{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Socket{};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

}  // namespace nacu::net
