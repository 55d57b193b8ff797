// TraceWriter: Chrome-trace shape, sim-time microsecond stamps, and the
// byte-stability the 1-vs-N-thread trace diff depends on.
#include <gtest/gtest.h>

#include "expctl/json.hpp"
#include "obs/trace_writer.hpp"

namespace ec = drowsy::expctl;
namespace obs = drowsy::obs;

TEST(TraceWriter, EmitsProcessAndTrackMetadataInRegistrationOrder) {
  obs::TraceWriter w("scenario / policy / seed 1");
  const std::uint32_t h0 = w.add_track("H0");
  const std::uint32_t h1 = w.add_track("H1");
  EXPECT_EQ(h0, 0u);
  EXPECT_EQ(h1, 1u);

  const ec::Json doc = ec::Json::parse(w.dump());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").elements();
  // process_name first, then thread_name + thread_sort_index per track.
  ASSERT_GE(events.size(), 5u);
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "scenario / policy / seed 1");
  EXPECT_EQ(events[1].at("name").as_string(), "thread_name");
  EXPECT_EQ(events[1].at("args").at("name").as_string(), "H0");
  EXPECT_EQ(events[1].at("tid").as_int(), 0);
  EXPECT_EQ(events[3].at("name").as_string(), "thread_name");
  EXPECT_EQ(events[3].at("args").at("name").as_string(), "H1");
}

TEST(TraceWriter, SimTimeMillisecondsBecomeExactMicroseconds) {
  obs::TraceWriter w("p");
  const std::uint32_t t = w.add_track("t");
  w.add_slice(t, "S3", 1500, 4500);
  w.add_instant(t, "wol", 2000);

  const ec::Json doc = ec::Json::parse(w.dump());
  const auto& events = doc.at("traceEvents").elements();
  const ec::Json* slice = nullptr;
  const ec::Json* instant = nullptr;
  for (const ec::Json& e : events) {
    if (e.at("ph").as_string() == "X") slice = &e;
    if (e.at("ph").as_string() == "i") instant = &e;
  }
  ASSERT_NE(slice, nullptr);
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(slice->at("ts").as_int(), 1500000);
  EXPECT_EQ(slice->at("dur").as_int(), 3000000);
  EXPECT_EQ(slice->at("name").as_string(), "S3");
  EXPECT_EQ(instant->at("ts").as_int(), 2000000);
  EXPECT_EQ(instant->at("s").as_string(), "t");
}

TEST(TraceWriter, ArgsAreEmbeddedVerbatim) {
  obs::TraceWriter w("p");
  const std::uint32_t t = w.add_track("t");
  ec::Json args = ec::Json::object();
  args.set("latency_ms", ec::Json(123.5));
  args.set("woke_host", ec::Json(true));
  w.add_instant(t, "sla-violation", 10, std::move(args));

  const ec::Json doc = ec::Json::parse(w.dump());
  for (const ec::Json& e : doc.at("traceEvents").elements()) {
    if (e.at("ph").as_string() != "i") continue;
    EXPECT_DOUBLE_EQ(e.at("args").at("latency_ms").as_double(), 123.5);
    EXPECT_TRUE(e.at("args").at("woke_host").as_bool());
    return;
  }
  FAIL() << "instant event not found";
}

TEST(TraceWriter, IdenticalInputsDumpIdenticalBytes) {
  const auto build = [] {
    obs::TraceWriter w("same");
    const std::uint32_t a = w.add_track("a");
    const std::uint32_t b = w.add_track("b");
    w.add_slice(a, "S0", 0, 100);
    w.add_instant(b, "wol", 50);
    return w.dump();
  };
  EXPECT_EQ(build(), build());
}
