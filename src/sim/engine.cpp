#include "sim/engine.h"

#include <algorithm>
#include <chrono>

#include "sim/parallel.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace mmptcp {

namespace {

/// Yields a pool worker makes after its spin budget before it parks.  A
/// window's serial barrier section (hook, next-event scan, control
/// window) takes about 10 µs on a k=8 fat-tree; a worker that parks
/// inside it puts a futex wake on the critical path of every window.
constexpr int kYieldsBeforePark = 2048;

/// Spin briefly, then yield: windows are short, but on oversubscribed
/// hosts (more workers than cores) pure spinning would burn the peer's
/// whole quantum.  Main-thread barrier wait only — workers escalate to
/// relax_or_park so an idle pool costs no CPU.
template <typename Pred>
void relax_until(const Pred& pred) {
  int spins = 0;
  while (!pred()) {
    if (++spins >= 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

Engine::Engine(Simulation& sim, Time lookahead, unsigned workers)
    : sim_(sim), lookahead_(lookahead), workers_(std::max(1u, workers)) {
  if (sim_.num_domains() > 0) {
    check(lookahead_ > Time::zero(),
          "parallel engine needs a positive lookahead");
    workers_ = std::min<unsigned>(
        workers_, static_cast<unsigned>(sim_.num_domains()));
  } else {
    workers_ = 1;
  }
}

Engine::~Engine() {
  if (!pool_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    {
      // Empty critical section: a worker past its predicate check but
      // not yet asleep holds park_mu_, so this lock orders the store
      // before its wait and the notify below cannot be lost.
      std::lock_guard<std::mutex> lk(park_mu_);
    }
    park_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
}

void Engine::ensure_pool() {
  if (workers_ <= 1 || !pool_.empty()) return;
  pool_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    pool_.emplace_back([this, w] { worker_main(w); });
  }
}

template <typename Pred>
void Engine::relax_or_park(const Pred& pred) {
  for (int spins = 0; spins < 64; ++spins) {
    if (pred()) return;
  }
  for (int yields = 0; yields < kYieldsBeforePark; ++yields) {
    if (pred()) return;
    std::this_thread::yield();
  }
  // Budget exhausted: park.  The predicate re-check runs under park_mu_,
  // which the publisher also takes (after its epoch_ release store), so
  // either we see the new epoch here or the publisher sees parked_ > 0
  // and notifies — a wakeup can never slip between check and sleep.
  std::unique_lock<std::mutex> lk(park_mu_);
  ++parked_;
  park_cv_.wait(lk, pred);
  --parked_;
}

void Engine::worker_main(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    relax_or_park([&] {
      return epoch_.load(std::memory_order_acquire) != seen ||
             shutdown_.load(std::memory_order_acquire);
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    // The main thread waits for this worker's check-in before it
    // publishes again, so the epoch cannot move past seen + 1 here.
    seen = epoch_.load(std::memory_order_acquire);
    run_owned(worker,
              Time::nanos(window_end_ns_.load(std::memory_order_relaxed)));
    checked_in_.fetch_add(1, std::memory_order_release);
  }
}

void Engine::run_owned(unsigned worker, Time end) {
  for (const std::size_t d : order_) {
    if (d % workers_ != worker) continue;
    Scheduler& sched = sim_.domain_scheduler(d);
    par::ScopedDomain scope(&sched, static_cast<int>(d));
    sched.run_window(end);
  }
}

void Engine::run_domains(Time end) {
  if (workers_ <= 1) {
    run_owned(0, end);
    return;
  }
  ensure_pool();
  window_end_ns_.store(end.ns(), std::memory_order_relaxed);
  checked_in_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  bool wake;
  {
    // Taken after the epoch_ store: any worker that checked its
    // predicate before the store is counted in parked_ here (it holds
    // or held park_mu_ on the way to sleep), so notify reaches it.
    std::lock_guard<std::mutex> lk(park_mu_);
    wake = parked_ > 0;
  }
  if (wake) park_cv_.notify_all();
  run_owned(0, end);
  const auto t0 = std::chrono::steady_clock::now();
  relax_until([&] {
    return checked_in_.load(std::memory_order_acquire) + 1 >= workers_;
  });
  stats_.barrier_wait_ns += ns_since(t0);
}

void Engine::run_hook() {
  if (!hook_) return;
  const auto t0 = std::chrono::steady_clock::now();
  hook_();
  stats_.hook_ns += ns_since(t0);
}

void Engine::run_until(Time until) {
  const auto wall0 = std::chrono::steady_clock::now();
  stopped_ = false;
  Scheduler& control = sim_.control_scheduler();
  const std::size_t n = sim_.num_domains();
  if (n == 0) {
    // Serial collapse: no domains were configured, so every event lives
    // in the control scheduler and the classic inclusive run applies.
    run_hook();
    control.run_until(until);
    stopped_ = control.stop_requested();
    run_hook();
    stats_.wall_ns += ns_since(wall0);
    return;
  }
  for (;;) {
    run_hook();
    Time next = Time::max();
    bool any = false;
    Time t;
    if (control.next_time(t)) {
      next = t;
      any = true;
    }
    for (std::size_t d = 0; d < n; ++d) {
      if (sim_.domain_scheduler(d).next_time(t)) {
        any = true;
        if (t < next) next = t;
      }
    }
    if (!any || next >= until) {
      control.run_window(until);
      if (control.stop_requested()) {
        // Mirror the mid-loop branch: a stop() in the final control
        // window also ends the run before the domain windows.
        stopped_ = true;
        break;
      }
      // Final window: run EVERY domain, quiet or not, so all clocks
      // park exactly at `until` (quiet-skip only applies mid-run).
      order_.resize(n);
      for (std::size_t d = 0; d < n; ++d) order_[d] = d;
      ++stats_.windows;
      stats_.domains_claimed += n;
      run_domains(until);
      break;
    }
    const Time window_end = std::min(next + lookahead_, until);
    control.run_window(window_end);
    if (control.stop_requested()) {
      stopped_ = true;
      break;
    }
    // Quiet-domain skip.  Probe AFTER the control window so events it
    // scheduled into domains count; keep a domain only when its next
    // event falls inside this window.  Skipping changes scheduling only
    // — every kept window executes the same events.
    order_.clear();
    for (std::size_t d = 0; d < n; ++d) {
      if (sim_.domain_scheduler(d).next_time(t) && t < window_end) {
        order_.push_back(d);
      }
    }
    ++stats_.windows;
    stats_.domains_claimed += order_.size();
    stats_.domains_skipped += n - order_.size();
    // An all-quiet window (the next event was control-only) publishes
    // nothing at all — workers stay parked.
    if (!order_.empty()) run_domains(window_end);
  }
  run_hook();
  stats_.wall_ns += ns_since(wall0);
}

}  // namespace mmptcp
