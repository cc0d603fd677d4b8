#include "engine/resource.hpp"

#include <algorithm>

namespace svmsim::engine {

bool Resource::submit(Cycles service, std::coroutine_handle<> h) {
  if (busy_) {
    waiters_.push_back(Waiter{h, service});
    return true;
  }
  busy_ = true;
  return start(service, h);
}

bool Resource::start(Cycles service, std::coroutine_handle<> h) {
  ++grants_;
  busy_cycles_ += service;
  if (service == 0) {
    release();
    return false;
  }
  sim_->queue().schedule_in(service, [this, h] {
    release();
    h.resume();
  });
  return true;
}

void Resource::release() {
  if (!waiters_.empty()) {
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    // Hand over ownership directly: busy_ stays true for the new holder. A
    // with() holder only resumes; a serve() grant starts now.
    sim_->queue().schedule_now([this, w] {
      if (w.service == kHold || !start(w.service, w.handle)) w.handle.resume();
    });
  } else {
    busy_ = false;
  }
}

Task<void> Resource::with(std::function<Task<void>()> body) {
  struct Hold {
    Resource& r;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (!r.busy_) {
        r.busy_ = true;
        return false;
      }
      r.waiters_.push_back(Waiter{h, kHold});
      return true;
    }
    void await_resume() const noexcept {}
  };

  co_await Hold{*this};
  // When resumed from the wait list, release() has already kept busy_ true
  // on our behalf.
  ++grants_;
  const Cycles start = sim_->now();
  try {
    co_await body();
  } catch (...) {
    busy_cycles_ += sim_->now() - start;
    release();
    throw;
  }
  busy_cycles_ += sim_->now() - start;
  release();
}

bool PriorityResource::submit(int priority, Cycles service,
                              std::coroutine_handle<> h) {
  if (busy_) {
    waiters_.push_back(Waiter{priority, next_seq_++, h, service});
    std::push_heap(waiters_.begin(), waiters_.end(), After{});
    return true;
  }
  busy_ = true;
  return start(service, h);
}

bool PriorityResource::start(Cycles service, std::coroutine_handle<> h) {
  ++grants_;
  const Cycles occupancy = arbitration_ + service;
  busy_cycles_ += occupancy;
  if (occupancy == 0) {
    release();
    return false;
  }
  sim_->queue().schedule_in(occupancy, [this, h] {
    release();
    if (h) h.resume();
  });
  return true;
}

void PriorityResource::release() {
  if (!waiters_.empty()) {
    std::pop_heap(waiters_.begin(), waiters_.end(), After{});
    const Waiter w = waiters_.back();
    waiters_.pop_back();
    // busy_ stays true for the new holder.
    sim_->queue().schedule_now([this, h = w.handle, s = w.service] {
      if (!start(s, h) && h) h.resume();
    });
  } else {
    busy_ = false;
  }
}

}  // namespace svmsim::engine
