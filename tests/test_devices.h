#pragma once
// Enrolls test dongles the way a deployment does: the server holds the
// epoch-0 master key and the device id, never a per-device key, and the
// device holds the key diversified from that master. Epoch 0 matches the
// default `key_epoch` of Controller::enable_session_crypto.

#include <cstdint>
#include <vector>

#include "cloud/server.h"
#include "crypto/cmac.h"

namespace medsen::testkit {

/// The epoch-0 master key every test server installs.
inline std::vector<std::uint8_t> master_key() {
  return std::vector<std::uint8_t>(16, 0x6D);
}

/// The long-term key a device personalized under master_key() holds.
inline std::vector<std::uint8_t> device_key(std::uint64_t device_id) {
  return crypto::diversify_device_key(master_key(), device_id, 0);
}

/// Enroll `device_id` on `server`, installing master_key() as epoch 0 on
/// first use, and return the device's long-term key.
inline std::vector<std::uint8_t> enroll(cloud::CloudServer& server,
                                        std::uint64_t device_id) {
  if (!server.devices().has_epoch(0))
    server.rotate_master_key(0, master_key());
  server.enroll_device(device_id);
  return device_key(device_id);
}

}  // namespace medsen::testkit
