#include "sim/context.hpp"

// dcs-lint: allow(R2, next_local_id hands out slot indices to any thread)
#include <atomic>

#include "common/check.hpp"

namespace dcs::sim {

Context::~Context() {
  // A local's destructor must not use another local: a metric handle cache
  // may be destroyed after the registry its handles point into.
  for (std::size_t i = 0; i < kMaxLocals; ++i) {
    if (locals_[i].ptr != nullptr) locals_[i].destroy(locals_[i].ptr);
  }
  if (detail::current_context() == this) detail::current_context() = nullptr;
}

std::size_t Context::next_local_id() {
  // dcs-lint: allow(R2, a slot index is handed out once per local<T> type,
  // and two shard threads may each touch a new type for the first time)
  static std::atomic<std::size_t> next{0};
  const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
  DCS_CHECK_MSG(id < kMaxLocals, "too many Context::local types");
  return id;
}

namespace detail {

Context& bind_thread_context() {
  static thread_local Context own;
  current_context() = &own;
  return own;
}

}  // namespace detail
}  // namespace dcs::sim
