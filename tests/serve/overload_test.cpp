/// \file overload_test.cpp
/// \brief Admission control under pressure: a full queue and a tenant at
/// its in-flight cap must shed with explicit REJECTED overload replies —
/// never hang, never crash — and the queue counters must reconcile exactly.
///
/// The first two cases submit before Server::start(): `create` is answered
/// inline, and an admitted op waits in the queue because no worker runs
/// yet, so the queue is full for as long as the case needs it to be.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

namespace decycle::serve {
namespace {

TEST(ServeOverload, FullQueueShedsWithExplicitRejection) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(options);
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=8")));

  // No worker runs yet: the first admitted op fills the single queue slot.
  std::promise<std::string> queued_promise;
  std::future<std::string> queued_reply = queued_promise.get_future();
  server.submit("checkpoint tenant=a", [&queued_promise](std::string reply) {
    queued_promise.set_value(std::move(reply));
  });
  EXPECT_EQ(server.queue_depth(), 1u);

  // Every further request is shed inline — no hang, no crash, a typed
  // REJECTED overload reply, and per-reply accounting.
  constexpr std::size_t kShed = 4;
  for (std::size_t i = 0; i < kShed; ++i) {
    const std::string reply = server.call("checkpoint tenant=a");
    ASSERT_TRUE(is_rejected(reply)) << reply;
    EXPECT_NE(reply.find("overload"), std::string::npos);
    EXPECT_NE(reply.find("queue_full"), std::string::npos);
    EXPECT_NE(reply.find("queue_depth=1"), std::string::npos);
  }
  EXPECT_EQ(server.stats().queue().shed_total, kShed);
  EXPECT_EQ(server.stats().tenant("a").shed, kShed);

  // Start the worker: the admitted op completes, nothing was lost.
  server.start();
  const std::string served = queued_reply.get();
  EXPECT_EQ(served.rfind("OK checkpoint ", 0), 0u) << served;
  EXPECT_EQ(server.queue_depth(), 0u);

  // Counters reconcile: everything admitted was served, everything over
  // the line was shed.
  const QueueSnapshot queue = server.stats().queue();
  EXPECT_EQ(queue.shed_total, kShed);
  EXPECT_GE(queue.peak_depth, 1u);
  server.stop();
}

TEST(ServeOverload, TenantInFlightCapShedsTheHotTenantOnly) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  options.tenant_inflight_cap = 1;
  Server server(options);
  ASSERT_TRUE(is_ok(server.call("create tenant=hot n=8")));
  ASSERT_TRUE(is_ok(server.call("create tenant=cold n=8")));

  // No worker runs yet: the first hot request occupies the tenant's one
  // in-flight slot.
  std::promise<std::string> first_promise;
  std::future<std::string> first_reply = first_promise.get_future();
  server.submit("checkpoint tenant=hot", [&first_promise](std::string reply) {
    first_promise.set_value(std::move(reply));
  });

  // Second hot request is shed by the per-tenant cap, not the queue bound.
  const std::string shed = server.call("checkpoint tenant=hot");
  ASSERT_TRUE(is_rejected(shed)) << shed;
  EXPECT_NE(shed.find("tenant_inflight_cap"), std::string::npos);

  // The cold tenant still gets in: one tenant's burst cannot starve others.
  std::promise<std::string> cold_promise;
  std::future<std::string> cold_reply = cold_promise.get_future();
  server.submit("checkpoint tenant=cold", [&cold_promise](std::string reply) {
    cold_promise.set_value(std::move(reply));
  });

  server.start();
  EXPECT_TRUE(is_ok(first_reply.get()));
  EXPECT_TRUE(is_ok(cold_reply.get()));
  EXPECT_EQ(server.stats().tenant("hot").shed, 1u);
  EXPECT_EQ(server.stats().tenant("cold").shed, 0u);
  server.stop();
}

TEST(ServeOverload, StopDrainsAdmittedWorkUnderPressure) {
  // Concurrent submitters race server.stop(): every admitted op must get
  // its reply (drain, not drop), every unadmitted one a typed refusal.
  // This is the suite TSan runs to pin the queue synchronization.
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  Server server(options);
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=16 family=cycle k=5 seed=1")));

  std::vector<std::thread> clients;
  std::vector<std::size_t> served(4, 0);
  for (std::size_t c = 0; c < served.size(); ++c) {
    clients.emplace_back([&server, &served, c] {
      for (std::size_t i = 0; i < 32; ++i) {
        const std::string reply =
            server.call("query tenant=a algo=edge_checker k=5 seed=" + std::to_string(i));
        // Every submission resolves to exactly one of the three reply
        // classes — a hang here would time the test out.
        if (is_ok(reply) || is_rejected(reply) || is_error(reply)) ++served[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::size_t count : served) EXPECT_EQ(count, 32u);

  // Control verbs (the create) answer inline and are not queue-accounted;
  // every queued query was either served or shed — nothing vanished.
  const QueueSnapshot queue = server.stats().queue();
  EXPECT_EQ(queue.admitted + queue.shed_total, 4u * 32u);
  server.stop();
}

}  // namespace
}  // namespace decycle::serve
