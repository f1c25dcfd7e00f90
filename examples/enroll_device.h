#pragma once
// Enrolls an example dongle the way a deployment does: the cloud holds
// the epoch master key and the device id, never a per-device key, and
// the dongle is personalized with the key diversified from that master.

#include <cstdint>
#include <vector>

#include "cloud/server.h"
#include "crypto/cmac.h"

namespace medsen::examples {

/// Enroll `device_id` on `server`, installing `master` as epoch 0 on
/// first use, and return the key the dongle is personalized with.
inline std::vector<std::uint8_t> enroll_device(
    cloud::CloudServer& server, std::uint64_t device_id,
    const std::vector<std::uint8_t>& master) {
  if (!server.devices().has_epoch(0)) server.rotate_master_key(0, master);
  server.enroll_device(device_id);
  return crypto::diversify_device_key(master, device_id, 0);
}

}  // namespace medsen::examples
