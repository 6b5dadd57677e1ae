// Networked KV server configuration (DESIGN.md §11).
//
// Every knob comes from a MONTAGE_SERVER_* environment variable and is
// parsed with util::env_u64_checked, following the MONTAGE_STALL_* pattern:
// a malformed or out-of-range value throws std::invalid_argument at startup
// instead of silently running with a default the operator believes was
// overridden. For a durability-critical server, "the timeout I set was
// ignored" is a correctness bug, not a convenience issue.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace montage::server {

/// All tunables of the networked KV server; see from_env() for the
/// environment variables and their validation rules.
struct ServerConfig {
  /// TCP port to bind on loopback; 0 asks the kernel for an ephemeral port
  /// (tests read the bound port back via KvServer::port()).
  /// MONTAGE_SERVER_PORT, default 11211.
  uint16_t port = 11211;
  /// Number of epoll worker threads. MONTAGE_SERVER_THREADS, default 4,
  /// range [1, 64].
  uint32_t workers = 4;
  /// Close a connection with no inbound traffic and nothing pending for
  /// this long; 0 disables. MONTAGE_SERVER_IDLE_MS, default 60000.
  uint64_t idle_timeout_ms = 60'000;
  /// Close a connection whose peer stops draining its responses (no write
  /// progress while output is pending) for this long; 0 disables.
  /// MONTAGE_SERVER_STALL_MS, default 5000.
  uint64_t stall_timeout_ms = 5'000;
  /// Accept cap: connections beyond this are shed at accept time with
  /// "SERVER_ERROR busy". MONTAGE_SERVER_MAX_CONNS, default 1024, >= 1.
  uint64_t max_conns = 1024;
  /// Per-worker cap on responses queued behind the persistence frontier;
  /// requests arriving above it are answered "SERVER_ERROR overloaded"
  /// instead of queueing unboundedly. 0 = unbounded.
  /// MONTAGE_SERVER_MAX_INFLIGHT, default 4096.
  uint64_t max_inflight = 4096;
  /// Per-connection bound on buffered response bytes; above it the server
  /// stops reading from the socket (backpressure) until the peer drains.
  /// MONTAGE_SERVER_WRITE_BUF, default 1 MiB, >= 4096.
  uint64_t write_buf_max = 1u << 20;
  /// Graceful-drain budget after SIGTERM: stop accepting, flush in-flight
  /// responses behind a final sync, then force-close whatever remains when
  /// the deadline expires. MONTAGE_SERVER_DRAIN_MS, default 5000, >= 1.
  uint64_t drain_deadline_ms = 5'000;
  /// Whether the admin/introspection listener (/metrics, /healthz, /varz —
  /// DESIGN.md §14) is enabled. Set MONTAGE_SERVER_ADMIN_PORT to enable;
  /// unset leaves the plane off entirely (no extra listener).
  bool admin_enabled = false;
  /// Loopback TCP port for the admin listener; 0 asks the kernel for an
  /// ephemeral port (written as the second line of --port-file).
  /// MONTAGE_SERVER_ADMIN_PORT, range [0, 65535].
  uint16_t admin_port = 0;
  /// Slow-op threshold: a request whose parse-to-durable-ACK latency exceeds
  /// this many nanoseconds emits one structured log line, increments
  /// server.slow_ops, and lands in the /varz recent-slow-ops ring.
  /// 0 disables capture. MONTAGE_SERVER_SLOW_OP_NS, default 0.
  uint64_t slow_op_ns = 0;

  /// Read every MONTAGE_SERVER_* knob, strictly validated: non-numeric
  /// values, out-of-range ports, zero caps that must be positive, and
  /// undersized buffers all throw std::invalid_argument naming the
  /// variable. Unset variables keep the defaults above.
  static ServerConfig from_env() {
    ServerConfig c;
    const uint64_t port = util::env_u64_checked("MONTAGE_SERVER_PORT", c.port);
    if (port > 65535) {
      throw std::invalid_argument("MONTAGE_SERVER_PORT=" +
                                  std::to_string(port) + ": not a TCP port");
    }
    c.port = static_cast<uint16_t>(port);
    const uint64_t workers =
        util::env_u64_checked("MONTAGE_SERVER_THREADS", c.workers);
    if (workers < 1 || workers > 64) {
      throw std::invalid_argument("MONTAGE_SERVER_THREADS=" +
                                  std::to_string(workers) +
                                  ": expected 1..64 worker threads");
    }
    c.workers = static_cast<uint32_t>(workers);
    c.idle_timeout_ms =
        util::env_u64_checked("MONTAGE_SERVER_IDLE_MS", c.idle_timeout_ms);
    c.stall_timeout_ms =
        util::env_u64_checked("MONTAGE_SERVER_STALL_MS", c.stall_timeout_ms);
    c.max_conns = util::env_u64_checked("MONTAGE_SERVER_MAX_CONNS", c.max_conns);
    if (c.max_conns == 0) {
      throw std::invalid_argument(
          "MONTAGE_SERVER_MAX_CONNS=0: the server must accept at least one "
          "connection");
    }
    c.max_inflight =
        util::env_u64_checked("MONTAGE_SERVER_MAX_INFLIGHT", c.max_inflight);
    c.write_buf_max =
        util::env_u64_checked("MONTAGE_SERVER_WRITE_BUF", c.write_buf_max);
    if (c.write_buf_max < 4096) {
      throw std::invalid_argument(
          "MONTAGE_SERVER_WRITE_BUF=" + std::to_string(c.write_buf_max) +
          ": below the 4096-byte minimum (one response must fit)");
    }
    c.drain_deadline_ms =
        util::env_u64_checked("MONTAGE_SERVER_DRAIN_MS", c.drain_deadline_ms);
    if (c.drain_deadline_ms == 0) {
      throw std::invalid_argument(
          "MONTAGE_SERVER_DRAIN_MS=0: drain needs a positive deadline");
    }
    // Presence of MONTAGE_SERVER_ADMIN_PORT is the enable switch: an admin
    // plane the operator did not ask for must not open a listener.
    if (const char* ap = std::getenv("MONTAGE_SERVER_ADMIN_PORT");
        ap != nullptr && *ap != '\0') {
      const uint64_t admin = util::env_u64_checked("MONTAGE_SERVER_ADMIN_PORT", 0);
      if (admin > 65535) {
        throw std::invalid_argument("MONTAGE_SERVER_ADMIN_PORT=" +
                                    std::to_string(admin) +
                                    ": not a TCP port");
      }
      c.admin_enabled = true;
      c.admin_port = static_cast<uint16_t>(admin);
    }
    c.slow_op_ns =
        util::env_u64_checked("MONTAGE_SERVER_SLOW_OP_NS", c.slow_op_ns);
    return c;
  }
};

}  // namespace montage::server
