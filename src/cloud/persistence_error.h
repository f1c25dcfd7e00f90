#pragma once
// cloud::PersistenceError — the typed failure for corrupt or
// unloadable on-disk state (the journal, its segments and the snapshots
// older builds wrote).
// Distinct from generic std::runtime_error so operators can tell "the
// stored state is damaged — restore from backup" apart from transient
// runtime failures, and so tests can assert that hostile bytes surface
// as exactly this, never as UB or a silent partial load.

#include <stdexcept>
#include <string>

namespace medsen::cloud {

struct PersistenceError : std::runtime_error {
  explicit PersistenceError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Run a decoder, converting any low-level throw (ByteReader underflow,
/// hostile counts, code deserialization, a store refusing what it
/// decoded) into the typed PersistenceError, so corrupt bytes never
/// surface as an untyped internal error.
template <typename Fn>
auto decode_guard(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const PersistenceError&) {
    throw;
  } catch (const std::exception& e) {
    throw PersistenceError(std::string(what) + ": " + e.what());
  }
}

}  // namespace medsen::cloud
