#include "persist/fault.hpp"

#include <atomic>
#include <memory>
#include <mutex>

namespace dvbp::persist {

namespace {

// The hook is read from shard workers while tests install it from the main
// thread before workers start; the armed flag keeps the no-hook hot path
// at a single relaxed load.
std::mutex hook_mu;
std::shared_ptr<const FaultHook> hook;  // guarded by hook_mu
std::atomic<bool> armed{false};

}  // namespace

void set_fault_hook(FaultHook h) {
  std::lock_guard<std::mutex> lock(hook_mu);
  hook = std::make_shared<const FaultHook>(std::move(h));
  armed.store(true, std::memory_order_release);
}

void clear_fault_hook() {
  std::lock_guard<std::mutex> lock(hook_mu);
  hook.reset();
  armed.store(false, std::memory_order_release);
}

bool fault_hook_installed() noexcept {
  return armed.load(std::memory_order_acquire);
}

void fault_point(std::string_view name) {
  if (!fault_hook_installed()) return;
  std::shared_ptr<const FaultHook> h;
  {
    std::lock_guard<std::mutex> lock(hook_mu);
    h = hook;
  }
  if (h && *h) (*h)(name);
}

}  // namespace dvbp::persist
