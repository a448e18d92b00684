// Error taxonomy for the library.
//
// Protocol- and crypto-layer failures that callers are expected to handle are
// reported through `Result<T>`; programming errors (precondition violations)
// throw. This keeps enclave code paths explicit about which failures are
// attacker-triggerable (bad ciphertext, forged quote, truncated frame).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace gendpr::common {

enum class Errc {
  ok = 0,
  decrypt_failed,        // AEAD tag mismatch or malformed ciphertext
  attestation_rejected,  // quote/measurement verification failed
  bad_message,           // malformed or truncated wire data
  unknown_peer,          // message from an unregistered node
  state_violation,       // protocol step out of order
  capacity_exceeded,     // simulated EPC limit exceeded
  invalid_argument,      // caller-supplied parameter out of domain
  io_error,              // file read/write failure
  timeout,               // bounded wait expired (unresponsive peer)
  aborted,               // operation cancelled by a peer's abort notice
};

/// Human-readable name for an error code.
const char* errc_name(Errc code) noexcept;

struct Error {
  Errc code = Errc::ok;
  std::string message;

  std::string to_string() const {
    return std::string(errc_name(code)) + ": " + message;
  }
};

/// Minimal expected-like result. GCC 12's <expected> is not available under
/// C++20, so we carry our own: either a value or an Error.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : storage_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Error error) : storage_(std::move(error)) {}

  bool ok() const noexcept { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    require_ok();
    return std::get<T>(storage_);
  }
  T& value() & {
    require_ok();
    return std::get<T>(storage_);
  }
  T&& take() && {
    require_ok();
    return std::get<T>(std::move(storage_));
  }

  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success value");
    return std::get<Error>(storage_);
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::runtime_error("Result::value() on error: " +
                               std::get<Error>(storage_).to_string());
    }
  }

  std::variant<T, Error> storage_;
};

/// Result specialization for operations with no payload.
class Status {
 public:
  Status() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  Status(Error error) : error_(std::move(error)) {}

  static Status success() { return Status(); }

  bool ok() const noexcept { return error_.code == Errc::ok; }
  explicit operator bool() const noexcept { return ok(); }
  const Error& error() const noexcept { return error_; }

 private:
  Error error_;
};

inline Error make_error(Errc code, std::string message) {
  return Error{code, std::move(message)};
}

}  // namespace gendpr::common
