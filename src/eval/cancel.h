#ifndef HILOG_EVAL_CANCEL_H_
#define HILOG_EVAL_CANCEL_H_

#include <atomic>
#include <cstdint>

namespace hilog {

/// Why an evaluation stopped before reaching its fixpoint.
enum class CancelReason : uint8_t {
  kNone = 0,
  kCancelled,  // Cancel() was called (client disconnect, shutdown...).
  kDeadline,   // The armed steady-clock deadline passed.
};

/// Cooperative cancellation + deadline token.
///
/// One side (the query service, a peer thread) calls `Cancel()` or arms a
/// deadline; the evaluation loops poll `CancelRequested()` through a
/// thread-local installation (`ScopedCancelToken`, the same pattern as
/// `obs::ScopedObsContext`) so none of the eval APIs grow a token
/// parameter. All fields are atomics: the token may be shared freely
/// across threads, and once tripped the reason is latched.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms an absolute steady-clock deadline in the obs::NowNs() frame;
  /// 0 disarms.
  void SetDeadlineNs(uint64_t deadline_ns) {
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
  }

  void Cancel() { Trip(CancelReason::kCancelled); }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }
  bool tripped() const { return reason() != CancelReason::kNone; }

  /// Checks the latched flag, then the deadline against the clock; latches
  /// and returns the reason. Prefer `CancelRequested()` in loops — it
  /// amortizes the clock read.
  CancelReason Poll();

 private:
  void Trip(CancelReason reason) {
    uint8_t expected = 0;  // First trip wins; the reason never changes.
    reason_.compare_exchange_strong(expected,
                                    static_cast<uint8_t>(reason),
                                    std::memory_order_relaxed);
  }

  std::atomic<uint8_t> reason_{0};
  std::atomic<uint64_t> deadline_ns_{0};
};

namespace cancel_internal {
/// The thread's installed token; exposed only so CancelRequested() can
/// inline its no-token fast path into the evaluator loops. constinit
/// makes every access a direct TLS load, not a call through the TLS init
/// wrapper.
extern constinit thread_local CancelToken* tl_token;
}  // namespace cancel_internal

/// The token installed for the current thread, or nullptr.
inline CancelToken* CurrentCancelToken() {
  return cancel_internal::tl_token;
}

/// Installs `token` as the thread's cancel token for the scope's
/// lifetime; restores the previous token on exit, so engine calls nest.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(CancelToken* token);
  ~ScopedCancelToken();
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  CancelToken* saved_;
};

namespace cancel_internal {
/// Out-of-line tail of CancelRequested() for an installed token.
bool CancelRequestedSlow(CancelToken* token);
}  // namespace cancel_internal

/// The eval-loop check: with no token installed this inlines to one
/// thread-local load and an untaken branch — the evaluators poll it per
/// derivation, so the common (unarmed) case must cost nothing. With a
/// token, the tripped flag is read on every call and the deadline clock
/// only every 64th call (deadlines are milliseconds; loop iterations
/// are micro- to nanoseconds).
inline bool CancelRequested() {
  CancelToken* token = cancel_internal::tl_token;
  if (token == nullptr) return false;
  return cancel_internal::CancelRequestedSlow(token);
}

/// Human-readable message for a tripped reason (the `error` string eval
/// results carry): "query cancelled" / "deadline exceeded" / "".
const char* CancelReasonMessage(CancelReason reason);

}  // namespace hilog

#endif  // HILOG_EVAL_CANCEL_H_
