#include "cloud/dispatch.h"

#include "crypto/cmac.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace medsen::cloud {
namespace {

const std::vector<std::uint8_t> kMaster(16, 0x11);

TEST(DeviceRegistry, ProvisionLookupRevoke) {
  DeviceRegistry registry;
  registry.set_master_key(0, kMaster);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.lookup(7).has_value());

  registry.enroll(7);
  ASSERT_TRUE(registry.lookup(7).has_value());
  EXPECT_EQ(*registry.lookup(7), crypto::diversify_device_key(kMaster, 7, 0));
  EXPECT_EQ(registry.size(), 1u);

  // A new master epoch re-keys the device without re-enrolling it.
  const std::vector<std::uint8_t> next(16, 0x22);
  registry.set_master_key(1, next);
  EXPECT_EQ(*registry.lookup(7), crypto::diversify_device_key(next, 7, 1));
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_TRUE(registry.revoke(7));
  EXPECT_FALSE(registry.revoke(7));
  EXPECT_FALSE(registry.lookup(7).has_value());
}

TEST(DeviceRegistry, ConcurrentProvisionAndLookup) {
  DeviceRegistry registry;
  registry.set_master_key(0, kMaster);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < 50; ++i) {
        const auto id = static_cast<std::uint64_t>(t * 50 + i);
        registry.enroll(id);
        EXPECT_TRUE(registry.lookup(id).has_value());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.size(), 200u);
}

TEST(AdmissionGate, UnboundedAdmitsEverything) {
  AdmissionGate gate(0);
  auto a = gate.try_enter();
  auto b = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(gate.shed_total(), 0u);
}

TEST(AdmissionGate, ShedsPastTheLimitAndRecovers) {
  AdmissionGate gate(2);
  auto a = gate.try_enter();
  auto b = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(gate.in_flight(), 2u);

  auto c = gate.try_enter();
  EXPECT_FALSE(c.admitted());
  EXPECT_EQ(gate.shed_total(), 1u);

  a.release();
  EXPECT_EQ(gate.in_flight(), 1u);
  auto d = gate.try_enter();
  EXPECT_TRUE(d.admitted());
}

TEST(AdmissionGate, TicketReleaseIsIdempotentAndMoveSafe) {
  AdmissionGate gate(1);
  auto a = gate.try_enter();
  EXPECT_TRUE(a.admitted());
  auto moved = std::move(a);
  EXPECT_TRUE(moved.admitted());
  EXPECT_FALSE(a.admitted());  // NOLINT(bugprone-use-after-move): on purpose
  moved.release();
  moved.release();  // double release must not underflow
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, TicketReleasesOnScopeExit) {
  AdmissionGate gate(1);
  {
    auto a = gate.try_enter();
    EXPECT_TRUE(a.admitted());
    EXPECT_EQ(gate.in_flight(), 1u);
  }
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(ServiceResult, SuccessAndFailureFactories) {
  auto ok = ServiceResult::success(net::MessageType::kAnalysisResult,
                                   {1, 2, 3});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.response_type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(ok.response_payload, (std::vector<std::uint8_t>{1, 2, 3}));

  auto bad = ServiceResult::failure(net::ErrorCode::kQualityRejected,
                                    "saturated", 3);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, net::ErrorCode::kQualityRejected);
  EXPECT_EQ(bad.error_subcode, 3u);
  EXPECT_EQ(bad.detail, "saturated");
}

}  // namespace
}  // namespace medsen::cloud
