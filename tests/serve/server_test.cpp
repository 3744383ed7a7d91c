/// \file server_test.cpp
/// \brief Server verbs end to end: tenant lifecycle, typed error replies,
/// verdict-cache byte identity, and mutation invalidation.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <string>

namespace decycle::serve {
namespace {

ServerOptions small_options() {
  ServerOptions options;
  options.workers = 2;
  return options;
}

TEST(ServeServer, CreateInsertQueryCheckpointRoundTrip) {
  Server server(small_options());
  server.start();

  const std::string created = server.call("create tenant=a n=16 family=cycle k=5 seed=3");
  ASSERT_TRUE(is_ok(created)) << created;
  EXPECT_NE(created.find("n=16"), std::string::npos);
  EXPECT_NE(created.find("hash="), std::string::npos);

  const std::string queried = server.call("query tenant=a algo=edge_checker k=5 seed=1");
  ASSERT_TRUE(is_ok(queried)) << queried;
  EXPECT_NE(queried.find("accepted="), std::string::npos);

  // A C16 cycle has no chord 0-8; inserting one is legal and reported.
  const std::string inserted = server.call("insert tenant=a edges=0-8");
  ASSERT_TRUE(is_ok(inserted)) << inserted;
  EXPECT_NE(inserted.find("applied=1"), std::string::npos);
  EXPECT_NE(inserted.find("closures=1"), std::string::npos);

  const std::string checkpointed = server.call("checkpoint tenant=a");
  ASSERT_TRUE(is_ok(checkpointed)) << checkpointed;
  EXPECT_NE(checkpointed.find("m=17"), std::string::npos);

  server.stop();
}

TEST(ServeServer, CreateRefusesCycleLengthsTheFamiliesCannotBuild) {
  // Unless the family check refuses them, planted k=0 divides by zero in
  // the worker and layered k=1 spins forever; each must be a bad_request,
  // and the server must keep serving.
  Server server(small_options());
  server.start();
  for (const char* payload : {"create tenant=p n=16 family=planted k=0 seed=1",
                              "create tenant=l n=16 family=layered k=1 seed=1",
                              "create tenant=z n=16 family=noisy k=0 seed=1"}) {
    const std::string reply = server.call(payload);
    EXPECT_EQ(reply.rfind("ERROR bad_request family '", 0), 0u) << reply;
    EXPECT_NE(reply.find("needs k in 3..64"), std::string::npos) << reply;
    EXPECT_EQ(reply.find(".cpp:"), std::string::npos) << reply;
  }
  const std::string stats = server.call("stats");
  EXPECT_TRUE(is_ok(stats)) << stats;
  server.stop();
}

TEST(ServeServer, EdgeCheckerAcceptsAnEdgelessTenant) {
  Server server(small_options());
  server.start();
  for (const char* create : {"create tenant=e n=16", "create tenant=one n=1"}) {
    ASSERT_TRUE(is_ok(server.call(create)));
  }
  for (const char* query : {"query tenant=e algo=edge_checker k=3",
                            "query tenant=one algo=edge_checker k=3"}) {
    const std::string reply = server.call(query);
    EXPECT_EQ(reply.rfind("OK query accepted=1 ", 0), 0u) << reply;
    EXPECT_NE(reply.find("witness=-"), std::string::npos) << reply;
  }
  server.stop();
}

TEST(ServeServer, UnknownTenantNamesStoredOnes) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=alpha n=8")));
  ASSERT_TRUE(is_ok(server.call("create tenant=beta n=8")));
  const std::string reply = server.call("query tenant=gamma algo=tester k=5");
  ASSERT_TRUE(is_error(reply)) << reply;
  EXPECT_NE(reply.find("unknown_tenant"), std::string::npos);
  EXPECT_NE(reply.find("alpha"), std::string::npos);
  EXPECT_NE(reply.find("beta"), std::string::npos);
  server.stop();
}

TEST(ServeServer, DuplicateCreateIsTyped) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=8")));
  const std::string reply = server.call("create tenant=a n=8");
  ASSERT_TRUE(is_error(reply)) << reply;
  EXPECT_NE(reply.find("tenant_exists"), std::string::npos);
  server.stop();
}

TEST(ServeServer, BadInsertsAreTypedAndRolledBack) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=8")));

  // Endpoint out of range.
  const std::string out_of_range = server.call("insert tenant=a edges=0-99");
  ASSERT_TRUE(is_error(out_of_range)) << out_of_range;
  EXPECT_NE(out_of_range.find("bad_insert"), std::string::npos);
  EXPECT_NE(out_of_range.find("n=8"), std::string::npos);

  // Duplicate within the tenant's stream.
  ASSERT_TRUE(is_ok(server.call("insert tenant=a edges=0-1")));
  const std::string duplicate = server.call("insert tenant=a edges=2-3,1-0");
  ASSERT_TRUE(is_error(duplicate)) << duplicate;
  EXPECT_NE(duplicate.find("bad_insert"), std::string::npos);
  EXPECT_NE(duplicate.find("already present"), std::string::npos);

  // The failed batch rolled back: 2-3 is still insertable.
  const std::string retry = server.call("insert tenant=a edges=2-3");
  ASSERT_TRUE(is_ok(retry)) << retry;

  // Exactly two edges landed.
  const std::string checkpointed = server.call("checkpoint tenant=a");
  EXPECT_NE(checkpointed.find("m=2"), std::string::npos) << checkpointed;
  server.stop();
}

TEST(ServeServer, VerdictCacheHitsAreByteIdentical) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=32 family=cycle k=5 seed=1")));

  const std::string payload = "query tenant=a algo=tester k=5 eps=0.25 seed=7";
  const std::string first = server.call(payload);
  ASSERT_TRUE(is_ok(first)) << first;
  const Server::CacheStats before = server.verdict_cache_stats();
  const std::string second = server.call(payload);
  const Server::CacheStats after = server.verdict_cache_stats();
  EXPECT_EQ(first, second);
  EXPECT_GT(after.hits, before.hits);
  server.stop();
}

TEST(ServeServer, MutationInvalidatesTheVerdictCache) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=32 family=cycle k=5 seed=1")));
  const std::string payload = "query tenant=a algo=edge_checker k=5 seed=7";
  ASSERT_TRUE(is_ok(server.call(payload)));
  ASSERT_TRUE(is_ok(server.call("insert tenant=a edges=0-2")));
  const Server::CacheStats before = server.verdict_cache_stats();
  ASSERT_TRUE(is_ok(server.call(payload)));
  const Server::CacheStats after = server.verdict_cache_stats();
  // The graph changed, so the same payload must be a fresh cache key.
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_GT(after.misses, before.misses);
  server.stop();
}

TEST(ServeServer, QueryModelCapabilityIsTyped) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=8")));
  // tester's capability mask excludes the clique model.
  const std::string reply = server.call("query tenant=a algo=tester k=5 model=clique");
  ASSERT_TRUE(is_error(reply)) << reply;
  EXPECT_NE(reply.find("capability"), std::string::npos);
  server.stop();
}

TEST(ServeServer, StatsReplyCarriesTenantAndGlobalRecords) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=16 family=cycle k=5 seed=1")));
  ASSERT_TRUE(is_ok(server.call("query tenant=a algo=edge_checker k=5")));
  const std::string reply = server.call("stats");
  ASSERT_TRUE(is_ok(reply)) << reply;
  EXPECT_NE(reply.find("\"record\":\"tenant\""), std::string::npos);
  EXPECT_NE(reply.find("\"record\":\"global\""), std::string::npos);
  EXPECT_NE(reply.find("\"tenants\":1"), std::string::npos);
  EXPECT_NE(reply.find("\"verdict_misses\":1"), std::string::npos);
  server.stop();
}

TEST(ServeServer, ShutdownDrainsAndRefusesNewWork) {
  Server server(small_options());
  server.start();
  ASSERT_TRUE(is_ok(server.call("create tenant=a n=8")));
  EXPECT_EQ(server.call("shutdown"), "OK shutdown");
  EXPECT_TRUE(server.shutdown_requested());
  const std::string reply = server.call("checkpoint tenant=a");
  ASSERT_TRUE(is_error(reply)) << reply;
  EXPECT_NE(reply.find("shutting_down"), std::string::npos);
  server.stop();
}

TEST(ServeServer, StallIsAnUnknownVerb) {
  Server server(small_options());
  server.start();
  EXPECT_EQ(server.call("stall id=1"),
            "ERROR bad_request unknown verb 'stall'; verbs: create, insert, query, checkpoint, "
            "stats, shutdown");
  server.stop();
}

TEST(ServeServer, ParseErrorsComeBackInline) {
  Server server(small_options());
  server.start();
  const std::string reply = server.call("warp tenant=a");
  ASSERT_TRUE(is_error(reply)) << reply;
  EXPECT_NE(reply.find("bad_request"), std::string::npos);
  EXPECT_NE(reply.find("verbs:"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace decycle::serve
