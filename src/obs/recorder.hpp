// Convergence flight recorder: a per-thread ring buffer of fixed-size
// samples the solvers and the game write into, so a failed solve leaves its
// last iterations behind for diagnosis instead of just a status code.
//
// Design rules, in order:
//  1. O(1) and allocation-free per sample. A ConvergenceSample is five
//     words; push() overwrites the oldest slot once the ring is full. The
//     stream tag must be a STATIC string literal — the ring stores the
//     pointer, never copies, so pushing costs no heap traffic (the ADMM
//     hot-loop allocation audit covers the recording path).
//  2. Off by default, one branch when off. Call sites gate on
//     ConvergenceRecorder::enabled() — a relaxed atomic load, exactly like
//     metrics_enabled() — so disabled runs pay one predictable branch per
//     check iteration and nothing else (perf_parallel/micro_admm_kernels
//     gates are unaffected).
//  3. Race-free without locks. local() returns a thread_local ring, so
//     sweep lanes and parallel best responses each record into their own
//     buffer; a lane's tail can be snapshotted from that lane between runs
//     with no synchronization.
//  4. Bounded memory: kDefaultCapacity samples (40 B each, ~20 KiB) per
//     recording thread, allocated lazily on the thread's first push.
//
// GEOPLACE_RECORD follows obs::parse_env_switch (obs/metrics.hpp): off; on;
// or on AND failed solves append their ring tail to the given path
// (dump_failure).
#pragma once

#include <atomic>
#include <cstddef>
#include <ostream>
#include <vector>

namespace gp::obs {

/// One recorded point of a convergence trajectory. The meaning of a/b/c is
/// per stream: "admm.residual" = (primal, dual, rho); "admm.rho" = (old,
/// new, factor); "ipm.residual" = (dual, primal, mu); "game.round" = (cost,
/// delta, 0); terminal markers carry whatever the call site finds useful.
struct ConvergenceSample {
  const char* stream = "";  ///< static string literal — stored, not copied
  long long step = 0;       ///< iteration / round / period index
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

class ConvergenceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  /// Global recording flag (relaxed load). Initialized from GEOPLACE_RECORD
  /// on first use; see file comment for the accepted values.
  static bool enabled();
  static void set_enabled(bool enabled);

  /// The auto-dump destination from GEOPLACE_RECORD (empty when the value
  /// was a plain on/off flag or unset). set_enabled() does not change it.
  static const std::string& dump_path();

  /// This thread's ring. Constructed (and its buffer allocated) on the
  /// thread's first call.
  static ConvergenceRecorder& local();

  explicit ConvergenceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Records one sample; overwrites the oldest once full. `stream` MUST be
  /// a static string literal (rule 1 in the file comment).
  void push(const char* stream, long long step, double a, double b = 0.0, double c = 0.0);

  void clear();
  std::size_t size() const { return count_ < ring_.size() ? count_ : ring_.size(); }
  std::size_t capacity() const { return ring_.size(); }
  long long total_pushed() const { return static_cast<long long>(count_); }

  /// The retained samples, oldest first (at most `max_samples` newest ones).
  std::vector<ConvergenceSample> tail(std::size_t max_samples = kDefaultCapacity) const;

  /// One {"type":"record",...} JSON line per retained sample, oldest first.
  void write_jsonl(std::ostream& out) const;

  /// Appends this thread's ring tail to dump_path() under a process-wide
  /// file lock, tagged with `reason`. No-op when no dump path is set. The
  /// solvers call this automatically for any solve that ends !solved and
  /// any game run that hits max_rounds.
  static void dump_failure(const char* reason);

 private:
  std::vector<ConvergenceSample> ring_;
  std::size_t head_ = 0;   // next slot to write
  std::size_t count_ = 0;  // total pushes since clear()
};

/// Shorthand mirroring metrics_enabled(): the gate recording call sites
/// check before touching the thread-local ring.
inline bool recording_enabled() { return ConvergenceRecorder::enabled(); }

}  // namespace gp::obs
