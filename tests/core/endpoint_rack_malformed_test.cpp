#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/endpoint.hpp"
#include "util/error.hpp"

namespace ps::core {
namespace {

struct MalformedCase {
  const char* name;
  const char* text;
};

// The batched rack-aggregate frames are the only messages whose grammar
// carries *counts* (jobs, per-block line counts), so a torn or hostile
// frame can lie about how much follows. Every case here must be rejected
// before the parser walks past the end of the frame. Companion files:
// endpoint_malformed_test.cpp (v1 grammar), endpoint_v3_malformed_test.cpp
// (two-domain grammar).
const std::vector<MalformedCase>& malformed_rack_samples() {
  static const std::vector<MalformedCase> cases = {
      {"empty", ""},
      {"wrong_header",
       "powerstack-rack-sample v2\nrack r0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"flat_sample_header",
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"missing_rack_line",
       "powerstack-rack-sample v1\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"rack_name_with_space",
       "powerstack-rack-sample v1\nrack r 0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"empty_rack_name",
       "powerstack-rack-sample v1\nrack \nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"zero_jobs",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 0\n"},
      {"jobs_count_exceeds_blocks",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 2\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"jobs_count_below_blocks",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob b\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      // The torn-frame family: the block's declared line count walks past
      // the bytes that actually arrived.
      {"torn_block_short_one_line",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\n"},
      {"torn_block_count_overruns_frame",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 7\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      // Hostile counts: a huge or zero count must fail fast, not allocate
      // or walk the buffer.
      {"hostile_huge_block_count",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\n"
       "sample 4294967295\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      // A job count no frame could hold must fail as a protocol error,
      // not size an allocation.
      {"hostile_huge_job_count",
       "powerstack-rack-sample v1\nrack r0\nround 1\n"
       "jobs 18446744073709551615\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"zero_block_count",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 0\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"block_count_short_splits_message",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 3\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      // Job-order discipline: the aggregate must be name-ordered and
      // duplicate-free, or the root's name-keyed round order would not
      // match the aggregate's.
      {"duplicate_job_names",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 2\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"out_of_order_job_names",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 2\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob b\nmin_cap 152\n"
       "observed 180\nneeded 170\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      // The round header must agree with the newest embedded sequence.
      {"round_below_max_sequence",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 2\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"round_above_max_sequence",
       "powerstack-rack-sample v1\nrack r0\nround 3\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 2\njob a\nmin_cap 152\n"
       "observed 180\nneeded 170\n"},
      {"corrupt_embedded_sample",
       "powerstack-rack-sample v1\nrack r0\nround 1\njobs 1\nsample 6\n"
       "powerstack-sample v1\nsequence 1\njob a\nmin_cap nan\n"
       "observed 180\nneeded 170\n"},
  };
  return cases;
}

const std::vector<MalformedCase>& malformed_rack_policies() {
  static const std::vector<MalformedCase> cases = {
      {"wrong_header",
       "powerstack-rack-policy v2\nrack r0\nround 1\nrack_budget 180\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"missing_rack_budget",
       "powerstack-rack-policy v1\nrack r0\nround 1\njobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"zero_rack_budget",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 0\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"nan_rack_budget",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget nan\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"negative_rack_budget",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget -180\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      // The grant's self-consistency check: the advertised rack budget
      // must equal the sum of the caps it carries.
      {"rack_budget_disagrees_with_caps",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 200\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"torn_policy_block",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 180\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\n"},
      {"hostile_huge_policy_count",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 180\n"
       "jobs 1\npolicy 18446744073709551615\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"hostile_huge_policy_job_count",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 180\n"
       "jobs 18446744073709551615\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"duplicate_policy_job",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 360\n"
       "jobs 2\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"round_mismatch",
       "powerstack-rack-policy v1\nrack r0\nround 2\nrack_budget 180\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\n"},
      {"trailing_garbage",
       "powerstack-rack-policy v1\nrack r0\nround 1\nrack_budget 180\n"
       "jobs 1\npolicy 4\n"
       "powerstack-policy v1\nsequence 1\njob a\ncaps 180\ngarbage\n"},
  };
  return cases;
}

TEST(EndpointRackMalformedTest, RackSampleParserRejectsEveryCase) {
  for (const MalformedCase& test : malformed_rack_samples()) {
    EXPECT_THROW(static_cast<void>(parse_rack_sample_message(test.text)),
                 ps::Error)
        << "case '" << test.name << "' parsed without error";
  }
}

TEST(EndpointRackMalformedTest, RackPolicyParserRejectsEveryCase) {
  for (const MalformedCase& test : malformed_rack_policies()) {
    EXPECT_THROW(static_cast<void>(parse_rack_policy_message(test.text)),
                 ps::Error)
        << "case '" << test.name << "' parsed without error";
  }
}

TEST(EndpointRackMalformedTest, RackSampleRoundTripsBitForBit) {
  RackSampleMessage message;
  message.rack = "rack7";
  SampleMessage a;
  a.sequence = 11;
  a.job_name = "a-wasteful";
  a.min_settable_cap_watts = 152.0 + 1.0 / 3.0;
  a.host_observed_watts = {214.0001220703125, 0.1 + 0.2};
  a.host_needed_watts = {193.09999999999999, 7.0 / 9.0};
  SampleMessage b;
  b.sequence = 12;
  b.job_name = "b-hungry";
  b.min_settable_cap_watts = 152.0;
  b.host_observed_watts = {230.0};
  b.host_needed_watts = {250.0 / 3.0};
  b.gpu_min_cap_watts = 100.0 + 1.0 / 7.0;
  b.gpu_tdp_watts = 300.0;
  b.host_gpu_observed_watts = {120.5};
  b.host_gpu_needed_watts = {250.0 / 3.0};
  message.samples = {a, b};
  message.round = 12;  // max embedded sequence

  const std::string wire = serialize(message, WireFidelity::kExact);
  EXPECT_EQ(wire_message_kind(wire), WireMessageKind::kRackSample);
  EXPECT_EQ(parse_rack_sample_message(wire), message);  // exact doubles
}

TEST(EndpointRackMalformedTest, RackPolicyRoundTripsBitForBit) {
  RackPolicyMessage message;
  message.rack = "rack7";
  PolicyMessage a;
  a.sequence = 11;
  a.job_name = "a-wasteful";
  a.host_caps_watts = {180.0 + 1.0 / 7.0, 152.0};
  a.budget_epoch = 3;
  a.fence_epoch = 2;
  PolicyMessage b;
  b.sequence = 12;
  b.job_name = "b-hungry";
  b.host_caps_watts = {206.375};
  b.host_gpu_caps_watts = {100.0 + 2.0 / 3.0};
  b.budget_epoch = 3;
  message.policies = {a, b};
  message.round = 12;
  for (const PolicyMessage& policy : message.policies) {
    for (const double cap : policy.host_caps_watts) {
      message.rack_budget_watts += cap;
    }
    for (const double cap : policy.host_gpu_caps_watts) {
      message.rack_budget_watts += cap;
    }
  }

  const std::string wire = serialize(message, WireFidelity::kExact);
  EXPECT_EQ(wire_message_kind(wire), WireMessageKind::kRackPolicy);
  EXPECT_EQ(parse_rack_policy_message(wire), message);
}

TEST(EndpointRackMalformedTest, DisplayFidelityStaysSelfConsistent) {
  // kDisplay rounds each cap to 3 decimals; the serialized rack_budget
  // must still agree with the serialized caps within the parser's
  // rounding tolerance, or a display-fidelity frame could never parse.
  RackPolicyMessage message;
  message.rack = "r0";
  PolicyMessage policy;
  policy.sequence = 1;
  policy.job_name = "a";
  policy.host_caps_watts = {100.0 / 3.0, 200.0 / 7.0, 50.0 / 9.0};
  message.policies = {policy};
  message.round = 1;
  for (const double cap : policy.host_caps_watts) {
    message.rack_budget_watts += cap;
  }
  const RackPolicyMessage parsed =
      parse_rack_policy_message(serialize(message));
  EXPECT_EQ(parsed.rack, "r0");
  ASSERT_EQ(parsed.policies.size(), 1u);
  EXPECT_NEAR(parsed.rack_budget_watts, message.rack_budget_watts, 2e-3);
}

}  // namespace
}  // namespace ps::core
