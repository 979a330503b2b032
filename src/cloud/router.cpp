#include "cloud/router.hpp"

#include <stdexcept>

namespace dvbp::cloud {

RouterKind parse_router(std::string_view name) {
  if (name == "round-robin") return RouterKind::kRoundRobin;
  if (name == "rendezvous") return RouterKind::kRendezvous;
  if (name == "least-usage") return RouterKind::kLeastUsage;
  throw std::invalid_argument(
      "parse_router: unknown router '" + std::string(name) +
      "' (expected round-robin | rendezvous | least-usage)");
}

std::string_view router_name(RouterKind kind) noexcept {
  switch (kind) {
    case RouterKind::kRoundRobin: return "round-robin";
    case RouterKind::kRendezvous: return "rendezvous";
    case RouterKind::kLeastUsage: return "least-usage";
  }
  return "unknown";
}

std::uint64_t rendezvous_score(ItemId job, std::size_t shard) noexcept {
  // splitmix64 finalizer over a job/shard combination. Any fixed mix works;
  // what matters is that the score depends on nothing but (job, shard).
  std::uint64_t x = static_cast<std::uint64_t>(job) * 0x9E3779B97F4A7C15ull ^
                    (static_cast<std::uint64_t>(shard) + 1) *
                        0xC2B2AE3D27D4EB4Full;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

namespace {

class RoundRobinRouter final : public Router {
 public:
  explicit RoundRobinRouter(std::size_t shards) : shards_(shards) {}
  RouterKind kind() const noexcept override {
    return RouterKind::kRoundRobin;
  }
  std::size_t route(ItemId job, std::span<const double>) noexcept override {
    return static_cast<std::size_t>(job) % shards_;
  }

 private:
  std::size_t shards_;
};

class RendezvousRouter final : public Router {
 public:
  explicit RendezvousRouter(std::size_t shards) : shards_(shards) {}
  RouterKind kind() const noexcept override {
    return RouterKind::kRendezvous;
  }
  std::size_t route(ItemId job, std::span<const double>) noexcept override {
    std::size_t best = 0;
    std::uint64_t best_score = rendezvous_score(job, 0);
    for (std::size_t s = 1; s < shards_; ++s) {
      const std::uint64_t score = rendezvous_score(job, s);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  }

 private:
  std::size_t shards_;
};

class LeastUsageRouter final : public Router {
 public:
  explicit LeastUsageRouter(std::size_t shards) : shards_(shards) {}
  RouterKind kind() const noexcept override {
    return RouterKind::kLeastUsage;
  }
  std::size_t route(ItemId, std::span<const double> loads) noexcept override {
    // Ties break toward the lowest shard index, so a cold start with all
    // estimates equal degrades to filling shard 0 first until the pending
    // counters (folded into `loads` by the service) push traffic outward.
    std::size_t best = 0;
    for (std::size_t s = 1; s < loads.size() && s < shards_; ++s) {
      if (loads[s] < loads[best]) best = s;
    }
    return best;
  }

 private:
  std::size_t shards_;
};

}  // namespace

std::unique_ptr<Router> make_router(RouterKind kind, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("make_router: shards must be >= 1");
  }
  switch (kind) {
    case RouterKind::kRoundRobin:
      return std::make_unique<RoundRobinRouter>(shards);
    case RouterKind::kRendezvous:
      return std::make_unique<RendezvousRouter>(shards);
    case RouterKind::kLeastUsage:
      return std::make_unique<LeastUsageRouter>(shards);
  }
  throw std::invalid_argument("make_router: unknown router kind");
}

}  // namespace dvbp::cloud
