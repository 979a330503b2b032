// Routing policies for the sharded placement service.
//
// A Router decides, at admission time and in the producer's thread, which
// Dispatcher shard receives a job. The decision is irrevocable (like the
// placement itself): the job's departure is steered to the same shard so the
// shard sees a self-consistent substream.
//
// Three built-in policies:
//   round-robin  -- job id modulo K; perfectly balanced item counts, and
//                   (the service hands out ids consecutively) a pure
//                   function of the job id, like rendezvous.
//   rendezvous   -- highest-random-weight hash of (job id, shard); a pure
//                   function of the job id and K, so the assignment is
//                   independent of thread interleaving and queue timing
//                   (pinned by tests/test_sweep_determinism.cpp).
//   least-usage  -- argmin of the per-shard load estimates the service
//                   maintains (periodically refreshed Dispatcher load
//                   snapshots plus queued-but-unapplied arrivals).
//
// All route() implementations are thread-safe and wait-free; the sharded
// service calls them concurrently from every producer thread.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/types.hpp"

namespace dvbp::cloud {

enum class RouterKind : std::uint8_t {
  kRoundRobin = 0,
  kRendezvous = 1,
  kLeastUsage = 2,
};

/// Parses "round-robin" | "rendezvous" | "least-usage" (the harness CLI
/// spelling). Throws std::invalid_argument for anything else.
RouterKind parse_router(std::string_view name);

/// The CLI spelling of `kind`.
std::string_view router_name(RouterKind kind) noexcept;

class Router {
 public:
  virtual ~Router() = default;

  virtual RouterKind kind() const noexcept = 0;
  std::string_view name() const noexcept { return router_name(kind()); }

  /// Picks the shard for `job`. `shard_loads` holds the service's current
  /// per-shard load estimates (size == shard count, always >= 1); policies
  /// that do not balance on load ignore it. Must be thread-safe.
  virtual std::size_t route(ItemId job,
                            std::span<const double> shard_loads) noexcept = 0;
};

/// Constructs a router for `shards` >= 1 shards. Throws
/// std::invalid_argument when `shards` is 0.
std::unique_ptr<Router> make_router(RouterKind kind, std::size_t shards);

/// The rendezvous score used by the rendezvous router: a splitmix64-style
/// mix of (job, shard). Exposed so tests can pin the assignment function
/// itself, not just its observable effects.
std::uint64_t rendezvous_score(ItemId job, std::size_t shard) noexcept;

}  // namespace dvbp::cloud
