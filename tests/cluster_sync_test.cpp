// The cluster's synchronous helpers: runOnThread() and finish() run one
// Clouds thread to completion, and report a thread that can never complete
// as Errc::internal instead of hanging; the stuck thread is unwound when
// the cluster is torn down.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace clouds {
namespace {

using obj::Value;
using obj::ValueList;

ClusterConfig smallConfig() {
  ClusterConfig cfg;
  cfg.compute_servers = 1;
  cfg.data_servers = 1;
  cfg.workstations = 0;
  return cfg;
}

bool isDrained(const Error& e) {
  return e.code == Errc::internal && e.message.find("blocked forever") != std::string::npos;
}

TEST(ClusterSync, RunOnThreadReturnsTheBodysResult) {
  Cluster c(smallConfig());
  const sim::TimePoint t0 = c.sim().now();
  auto r = c.runOnThread(0, "probe", [](obj::CloudsThread& t) -> Result<std::int64_t> {
    t.process->delay(sim::msec(3));
    return std::int64_t{42};
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_GE(c.sim().now() - t0, sim::msec(3));

  auto failed = c.runOnThread(0, "fails", [](obj::CloudsThread&) -> Result<void> {
    return makeError(Errc::not_found, "nothing here");
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, Errc::not_found);
}

TEST(ClusterSync, RunOnThreadThatBlocksForeverReportsTheDrain) {
  auto c = std::make_unique<Cluster>(smallConfig());
  obj::samples::registerAll(c->classes());
  auto r = c->runOnThread(0, "hang", [](obj::CloudsThread& t) -> Result<std::int64_t> {
    std::vector<std::int64_t> local(64, 1);  // unwound at teardown
    t.process->block();                      // nothing ever wakes it
    return local.front();
  });
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(isDrained(r.error())) << r.error().toString();

  // The stuck thread does not wedge the cluster.
  ASSERT_TRUE(c->create("counter", "K").ok());
  ASSERT_TRUE(c->call("K", "add", {2}).ok());
  EXPECT_EQ(c->call("K", "value").value(), Value{2});
  c.reset();  // kills and unwinds the blocked thread
}

TEST(ClusterSync, FinishOfAThreadThatBlocksForeverReportsTheDrain) {
  auto c = std::make_unique<Cluster>(smallConfig());
  obj::ClassDef hang;
  hang.name = "hang";
  hang.entry("forever", [](obj::ObjectContext& ctx, const ValueList&) -> Result<Value> {
    ctx.process().block();  // nothing ever wakes it
    return Value{};
  });
  c->classes().registerClass(std::move(hang));
  ASSERT_TRUE(c->create("hang", "H").ok());

  auto handle = c->start("H", "forever");
  auto r = c->finish(handle);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(isDrained(r.error())) << r.error().toString();
  EXPECT_FALSE(handle->done);

  auto called = c->call("H", "forever");  // call() is start() + finish()
  ASSERT_FALSE(called.ok());
  EXPECT_TRUE(isDrained(called.error())) << called.error().toString();
  c.reset();  // kills and unwinds both blocked invocations
}

}  // namespace
}  // namespace clouds
