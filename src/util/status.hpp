// Status / Result<T>: the pipeline's lightweight error channel.
//
// API-backed pipelines fail in ways the type system should surface —
// timeouts, rate limits, refused or truncated completions, outputs that no
// longer parse. A Status names the failure class (which decides whether a
// retry can help) and carries a human-readable message; Result<T> is the
// value-or-Status sum type threaded through the LLM client stack and the
// transformation schedules. No exceptions cross a layer boundary: a layer
// either handles a Status or passes it up.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace sca::util {

/// Failure classes, modeled on the operational taxonomy of LLM APIs.
/// `retryable()` below encodes which of them a backoff loop may cure.
enum class StatusCode {
  kOk = 0,
  kTimeout,            // request exceeded its deadline (transient)
  kRateLimited,        // provider pushed back; retry after backoff
  kUnavailable,        // circuit breaker open / backend down (transient)
  kEmptyResponse,      // empty or refusal completion ("I can't help with…")
  kTruncated,          // completion cut off mid-output
  kInvalidOutput,      // completion returned but failed validation (parse)
  kResourceExhausted,  // retry budget spent; the caller must degrade
  kDeadlineExceeded,   // request deadline budget spent; retrying cannot help
  kInvalidArgument,    // caller error; retrying the same call cannot help
  kDataLoss,           // a file (trace, dump) unreadable or corrupt
  kInternal,           // anything else
};

/// Stable lowercase name for logs and telemetry keys ("rate_limited").
[[nodiscard]] std::string_view statusCodeName(StatusCode code) noexcept;

/// True for failure classes where an identical retry can succeed.
[[nodiscard]] bool isRetryable(StatusCode code) noexcept;

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return Status(); }

  [[nodiscard]] bool isOk() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }
  [[nodiscard]] bool retryable() const noexcept { return isRetryable(code_); }

  /// "rate_limited: provider returned 429" (or "ok").
  [[nodiscard]] std::string toString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-Status. A Result constructed from a value is OK; a Result
/// constructed from a non-OK Status carries no value. value() on an error
/// Result asserts in debug builds and returns a default-constructed T in
/// release (never UB) — callers are expected to branch on ok() first.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.isOk() && "OK Result must carry a value");
  }

  [[nodiscard]] bool ok() const noexcept {
    return status_.isOk() && value_.has_value();
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] T& value() {
    assert(ok() && "value() on error Result");
    if (!value_.has_value()) value_.emplace();
    return *value_;
  }
  [[nodiscard]] const T& value() const {
    assert(ok() && "value() on error Result");
    static const T kEmpty{};
    return value_.has_value() ? *value_ : kEmpty;
  }

  [[nodiscard]] T valueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace sca::util
