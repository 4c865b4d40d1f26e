// Tests for the SPDISTAL_* knob table: one parse rule for every knob.
#include <gtest/gtest.h>

#include <string>

#include "common/knobs.h"

namespace spdistal::knobs {
namespace {

// Parses `raw` for `k`, expecting it to be rejected with a message that
// names the knob.
void expect_rejected(Knob k, const char* raw) {
  std::string error;
  const Value v = parse(k, raw, &error);
  EXPECT_FALSE(v.set) << name(k) << "=" << raw;
  EXPECT_NE(error.find(name(k)), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << "one line: " << error;
}

TEST(Knobs, UnsetAndEmptyMeanDefaultWithoutError) {
  for (int i = 0; i < kNumKnobs; ++i) {
    const Knob k = static_cast<Knob>(i);
    std::string error;
    EXPECT_FALSE(parse(k, nullptr, &error).set) << name(k);
    EXPECT_FALSE(parse(k, "", &error).set) << name(k);
    EXPECT_TRUE(error.empty()) << error;
  }
  // SPDISTAL_OBS= and SPDISTAL_VERIFY= (empty) both fall back to the
  // default, like unset.
  EXPECT_FALSE(parse(Knob::Obs, "").set);
  EXPECT_FALSE(parse(Knob::Verify, "").set);
}

TEST(Knobs, ValidValuesParse) {
  Value v = parse(Knob::ExecThreads, "4");
  EXPECT_TRUE(v.set);
  EXPECT_EQ(v.integer, 4);
  EXPECT_EQ(parse(Knob::ExecThreads, "64").integer, 64);
  v = parse(Knob::Obs, "0");
  EXPECT_TRUE(v.set);
  EXPECT_EQ(v.integer, 0);
  EXPECT_EQ(parse(Knob::Verify, "1").integer, 1);
  EXPECT_EQ(parse(Knob::TraceRing, "0").integer, 0);
  EXPECT_EQ(parse(Knob::VerifySample, "7").integer, 7);
  EXPECT_EQ(parse(Knob::PlanStoreMax, "9223372036854775807").integer,
            INT64_MAX);
  v = parse(Knob::PlanFuzz, "0.15");
  EXPECT_TRUE(v.set);
  EXPECT_DOUBLE_EQ(v.real, 0.15);
  v = parse(Knob::Trace, "out dir/trace.json");
  EXPECT_TRUE(v.set);
  EXPECT_EQ(v.path, "out dir/trace.json");
}

TEST(Knobs, MalformedValuesFallBackToDefault) {
  expect_rejected(Knob::ExecThreads, "four");
  expect_rejected(Knob::ExecThreads, "4x");
  expect_rejected(Knob::ExecThreads, " 4");
  expect_rejected(Knob::ExecThreads, "2.5");
  expect_rejected(Knob::Obs, "yes");
  expect_rejected(Knob::Obs, "10");
  expect_rejected(Knob::Verify, "true");
  expect_rejected(Knob::TraceRing, "lots");
  expect_rejected(Knob::PlanFuzz, "0.1.2");
  expect_rejected(Knob::PlanFuzz, "nan");
}

TEST(Knobs, NegativeValuesFallBackToDefault) {
  expect_rejected(Knob::ExecThreads, "-4");
  expect_rejected(Knob::TraceRing, "-1");
  expect_rejected(Knob::VerifySample, "-3");
  expect_rejected(Knob::PlanStoreMax, "-10");
  expect_rejected(Knob::PlanFuzz, "-0.1");
}

TEST(Knobs, OutOfRangeAndHugeValuesFallBackToDefault) {
  expect_rejected(Knob::ExecThreads, "0");
  expect_rejected(Knob::ExecThreads, "65");
  expect_rejected(Knob::ExecThreads, "99999999999999999999999");
  expect_rejected(Knob::VerifySample, "0");
  expect_rejected(Knob::TraceRing, "99999999999999999999999");
  expect_rejected(Knob::PlanStoreMax, "9223372036854775808");
  expect_rejected(Knob::PlanFuzz, "1.5");
  expect_rejected(Knob::PlanFuzz, "1e400");
}

TEST(Knobs, NamesAreTheEnvironmentVariables) {
  EXPECT_STREQ(name(Knob::ExecThreads), "SPDISTAL_EXEC_THREADS");
  EXPECT_STREQ(name(Knob::PlanFuzz), "SPDISTAL_PLAN_FUZZ");
  for (int i = 0; i < kNumKnobs; ++i) {
    EXPECT_EQ(std::string(name(static_cast<Knob>(i))).rfind("SPDISTAL_", 0),
              0u);
  }
}

}  // namespace
}  // namespace spdistal::knobs
