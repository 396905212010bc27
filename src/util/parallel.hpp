// Fork-join parallelism for the characterization sweeps.
//
// ThreadPool keeps its workers alive across calls, so a bench that
// characterizes many triad grids back-to-back pays thread creation once
// instead of per sweep; shared_thread_pool() is the process-wide
// instance every sweep dispatches through (a function-local static,
// built on first use).
#ifndef VOSIM_UTIL_PARALLEL_HPP
#define VOSIM_UTIL_PARALLEL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vosim {

/// Number of hardware threads, at least 1.
unsigned hardware_parallelism() noexcept;

/// Persistent fork-join worker pool. Workers are spawned once at
/// construction and sleep between jobs; parallel() wakes them, has the
/// calling thread participate, and joins when every claimed index has
/// run. One job runs at a time (concurrent submitters are serialized).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware default minus one, so a
  /// participating submitter saturates the machine).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resident worker threads (not counting submitters).
  unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs body(i) for i in [0, count) on up to `max_threads` threads
  /// (0 = all workers + the caller). Indices are claimed one at a time,
  /// so bodies should be coarse (a triad characterization, not a single
  /// addition). Exceptions: the first is rethrown after the job drains;
  /// once any body throws, unclaimed indices are cancelled. Reentrant
  /// calls from inside a body run inline and serially on the caller.
  void parallel(std::size_t count,
                const std::function<void(std::size_t)>& body,
                unsigned max_threads = 0);

 private:
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t next = 0;            // next unclaimed index
    bool stop = false;               // cancel unclaimed indices
    unsigned max_participants = 0;   // including the submitter
    unsigned participants = 0;
    std::exception_ptr error;        // first failure wins
  };

  void worker_loop();
  void work_on(Job& job, std::unique_lock<std::mutex>& lk);

  std::vector<std::thread> workers_;
  std::mutex m_;  // guards job_, generation_, shutdown_, busy_, Job fields
  std::condition_variable wake_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // submitter waits for busy_ == 0
  std::mutex submit_m_;              // serializes parallel() submitters
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  unsigned busy_ = 0;  // workers currently executing job bodies
};

/// The process-wide pool used by characterize_dut and parallel_for.
ThreadPool& shared_thread_pool();

/// Runs `body(index)` for index in [0, count) across up to `max_threads`
/// threads (0 = hardware default) on the shared pool. The caller is
/// responsible for making bodies independent. Exceptions thrown by
/// bodies are rethrown (first one wins) after all threads join; once any
/// body throws, not-yet-claimed indices are cancelled, so a failing
/// sweep stops promptly instead of draining the remaining work.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned max_threads = 0);

}  // namespace vosim

#endif  // VOSIM_UTIL_PARALLEL_HPP
