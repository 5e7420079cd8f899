#pragma once

// Typed error taxonomy for the solver stack's library boundaries.
//
// FAIRCACHE_CHECK / CheckError remain the contract-violation mechanism (a
// caller bug: wrong sizes, broken invariants). Status / Result<T> cover the
// *expected* failures a production caller must handle without a try/catch:
// hostile or malformed input, infeasible instances, and runs cut short by a
// deadline, a cancellation request, or a work-unit cap (util/deadline.h).
//
// Conventions:
//   * each operation has one entry point that returns Status / Result<T>
//     and never throws for these failure classes (confl::try_solve_confl,
//     steiner::try_steiner_mst_approx, core::try_build_chunk_instance,
//     core::OnlineFairCaching::try_insert_chunk,
//     core::ApproxFairCaching::solve, graph::Graph::try_add_edge);
//   * a trusted caller that treats failure as a bug writes
//     `try_…(…).value()`: on an error result value() throws CheckError
//     carrying the status code and message. Bind the value, not a
//     reference: value() on a temporary returns a T&& into it;
//   * the only throwing forms left are the ones an interface or the
//     graph generators need (CachingAlgorithm::run, Graph::add_edge), each
//     a one-line `.value()` over its Result-returning twin.

#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace faircache::util {

enum class StatusCode {
  kOk = 0,
  // The input violates the documented domain (malformed graph, producer out
  // of range, negative capacity, size overflow, ...). Retrying is useless.
  kInvalidInput,
  // The input is well-formed but no feasible answer exists (disconnected
  // network, unreachable terminals, over-capacity demand).
  kInfeasible,
  // A RunBudget wall-clock deadline expired before the run completed.
  kDeadlineExceeded,
  // A CancelToken was triggered before the run completed.
  kCancelled,
  // A resource cap was hit: work-unit budget, round budget, memory guard.
  kResourceExhausted,
};

// Short stable identifier ("ok", "deadline-exceeded", ...) for logs/tables.
const char* status_code_name(StatusCode code);

// A status code plus a human-readable message. Cheap to copy when OK (the
// common case carries no string).
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_input(std::string message) {
    return Status(StatusCode::kInvalidInput, std::move(message));
  }
  static Status infeasible(std::string message) {
    return Status(StatusCode::kInfeasible, std::move(message));
  }
  static Status deadline_exceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status resource_exhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "deadline-exceeded: phase 1 budget expired" (or "ok").
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // messages are advisory
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Either a value or a non-OK Status. A Result is never both and never
// neither: constructing one from an OK status is a contract violation.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Result(Status status) : data_(std::move(status)) {
    FAIRCACHE_CHECK(!std::get<Status>(data_).ok(),
                    "Result constructed from an OK status without a value");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  // Status of the result; Status() when a value is present.
  Status status() const {
    return ok() ? Status() : std::get<Status>(data_);
  }
  StatusCode code() const {
    return ok() ? StatusCode::kOk : std::get<Status>(data_).code();
  }

  // On an error result these throw CheckError naming the held status
  // ("... — invalid-input: edge endpoint out of range").
  const T& value() const& {
    require_value();
    return std::get<T>(data_);
  }
  T& value() & {
    require_value();
    return std::get<T>(data_);
  }
  T&& value() && {
    require_value();
    return std::get<T>(std::move(data_));
  }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  void require_value() const {
    if (!ok()) {
      check_failed("Result::value() on an error result", __FILE__, __LINE__,
                   std::get<Status>(data_).to_string());
    }
  }

  std::variant<T, Status> data_;
};

}  // namespace faircache::util
