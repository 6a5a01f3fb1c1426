#pragma once

#include <stdexcept>
#include <string>

namespace ftio::util {

/// Thrown when an FTIO API is called with arguments that violate its
/// preconditions (empty signals, non-positive sampling frequencies, ...).
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when a trace file or encoded buffer cannot be decoded.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a filesystem operation fails part-way (short write, failed
/// fsync/close/rename, ENOSPC). Distinct from ParseError: the bytes were
/// fine, the device was not.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Precondition check helper: throws InvalidArgument with `message` when
/// `condition` is false. Used at public API boundaries only; internal
/// invariants use assert(). The literal overload builds the message only
/// on failure, so a check inside a loop costs one branch per pass.
inline void expect(bool condition, const char* message) {
  if (!condition) throw InvalidArgument(message);
}
inline void expect(bool condition, const std::string& message) {
  if (!condition) throw InvalidArgument(message);
}

}  // namespace ftio::util
