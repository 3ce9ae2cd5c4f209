#pragma once

// Barrier-synchronous conservative parallel event engine.
//
// The simulation's schedulers (one control + N domain) advance in
// windows.  Each iteration finds T, the earliest pending event across
// all schedulers, and executes every event in [T, T + lookahead) — the
// control scheduler first and single-threaded, then the *active*
// domains on a worker pool.  `lookahead` is the minimum cross-domain
// propagation delay, so an event at time t can only influence another
// domain at t + lookahead or later: everything inside one window is
// causally independent across domains and may run concurrently.
//
// Two scheduling rules cut the cost of the pool:
//
//  * Quiet-domain skip.  After the control window runs, each domain is
//    probed once; domains whose next event lies at or after the window
//    end are not run.  A skipped domain's clock lags the window
//    frontier, which is safe: it has no events below any prior window
//    end, and cross-domain deliveries use absolute timestamps beyond
//    the last window end.  The final window runs every domain so all
//    clocks park at `until`.
//
//  * Sticky ownership.  Domain d runs on worker d % workers for the
//    whole run, worker 0 being the calling thread.  A domain's
//    scheduler, sockets and packets therefore stay in one core's cache
//    from window to window instead of following whichever thread
//    happened to grab them first.  Publishing a window is an epoch bump;
//    each worker runs its own active domains in id order and checks in
//    once.
//
// Both are pure scheduling policies: they change which thread runs a
// window and when, never what the window executes, so results stay
// byte-identical across worker counts.
//
// Cross-domain packets and metric mutations are buffered during the
// window (net/link.h outboxes, stats/metrics.h journals) and flushed by
// the barrier hook at the top of every iteration, in a canonical order
// that does not depend on the worker count.  Determinism therefore holds
// by construction: the sequence of windows, the event stream inside each
// domain, and the flush order are identical at any `workers` value —
// threads only change which core executes a given window.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/time.h"

namespace mmptcp {

class Simulation;

/// Per-run engine telemetry, accumulated across run_until calls.  The
/// window and domain counts depend only on the simulated events (they are
/// identical at any thread count and on any host); the timings are
/// host-dependent.
struct EngineStats {
  std::uint64_t windows = 0;          ///< windowed iterations executed
  std::uint64_t domains_claimed = 0;  ///< domain windows run by their owner
  std::uint64_t domains_skipped = 0;  ///< quiet domain windows not run
  std::uint64_t barrier_wait_ns = 0;  ///< main thread idle at the barrier
  std::uint64_t hook_ns = 0;          ///< main thread inside the barrier hook
  std::uint64_t wall_ns = 0;          ///< wall clock inside run_until
};

class Engine {
 public:
  /// `lookahead` must be positive when the simulation has domains
  /// configured.  `workers` is the number of threads executing domain
  /// windows (the calling thread is one of them); clamped to the domain
  /// count.
  Engine(Simulation& sim, Time lookahead, unsigned workers);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Invoked at every barrier (and once before the first window and once
  /// after the last): drain cross-domain mailboxes and metric journals.
  void set_barrier_hook(std::function<void()> hook) {
    hook_ = std::move(hook);
  }

  /// Runs events with timestamp strictly below `until`, leaving every
  /// clock at `until` — unless the control scheduler's stop() fired, in
  /// which case the run ends at that event.  With no domains configured
  /// this is exactly `control.run_until(until)` (inclusive, serial).
  void run_until(Time until);

  /// True when the last run_until ended because of a control stop().
  bool stopped() const { return stopped_; }

  unsigned workers() const { return workers_; }

  const EngineStats& stats() const { return stats_; }

 private:
  void run_domains(Time end);
  /// Runs the entries of `order_` owned by `worker` (d % workers_).
  void run_owned(unsigned worker, Time end);
  /// Spin, then yield, then park on park_cv_ until `pred` holds.  Worker
  /// threads only — the main thread never parks (it is the one that
  /// would have to ring the bell).
  template <typename Pred>
  void relax_or_park(const Pred& pred);
  void worker_main(unsigned worker);
  void ensure_pool();
  void run_hook();

  Simulation& sim_;
  Time lookahead_;
  unsigned workers_;
  std::function<void()> hook_;
  bool stopped_ = false;
  EngineStats stats_;

  // Worker-pool handshake.  The main thread publishes a window by
  // storing its end, resetting checked_in_ and then bumping epoch_ with
  // a release store.  Each pool worker acquires the new epoch, runs its
  // own active domains and increments checked_in_ once; the main thread
  // runs worker 0's share and waits for workers_ - 1 check-ins.  It
  // never publishes again before every worker has checked in, so a
  // worker sees each epoch exactly once, and order_ and window_end_ns_
  // are frozen while any worker reads them.
  std::vector<std::thread> pool_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::int64_t> window_end_ns_{0};
  std::atomic<unsigned> checked_in_{0};
  std::atomic<bool> shutdown_{false};

  // Parking lot for idle workers.  After a spin/yield budget a worker
  // increments parked_ under park_mu_ and waits on park_cv_ keyed by
  // the epoch.  The publisher stores epoch_ first, then takes park_mu_
  // to read parked_, so a worker either sees the new epoch before
  // sleeping or is seen by the publisher — no lost wakeup.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::size_t parked_ = 0;

  // Active domain ids of the current window, ascending.  Written by the
  // main thread between barriers only.
  std::vector<std::size_t> order_;
};

}  // namespace mmptcp
