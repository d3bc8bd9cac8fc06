#include "src/eval/cancel.h"

#include "src/obs/metrics.h"

namespace hilog {

namespace cancel_internal {

constinit thread_local CancelToken* tl_token = nullptr;

namespace {
// Per-thread countdown between deadline clock reads (CancelRequested).
thread_local uint32_t tl_poll_countdown = 0;

constexpr uint32_t kClockStride = 64;
}  // namespace

bool CancelRequestedSlow(CancelToken* token) {
  if (token->tripped()) return true;
  if (tl_poll_countdown > 0) {
    --tl_poll_countdown;
    return false;
  }
  tl_poll_countdown = kClockStride;
  return token->Poll() != CancelReason::kNone;
}

}  // namespace cancel_internal

CancelReason CancelToken::Poll() {
  CancelReason current = reason();
  if (current != CancelReason::kNone) return current;
  const uint64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && obs::NowNs() >= deadline) {
    Trip(CancelReason::kDeadline);
  }
  return reason();
}

ScopedCancelToken::ScopedCancelToken(CancelToken* token)
    : saved_(cancel_internal::tl_token) {
  cancel_internal::tl_token = token;
  // New scope: the first check consults the clock.
  cancel_internal::tl_poll_countdown = 0;
}

ScopedCancelToken::~ScopedCancelToken() {
  cancel_internal::tl_token = saved_;
}

const char* CancelReasonMessage(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone: return "";
    case CancelReason::kCancelled: return "query cancelled";
    case CancelReason::kDeadline: return "deadline exceeded";
  }
  return "";
}

}  // namespace hilog
