// Pins what Fsm::IntegrateAll produces. Each case renders its
// GlobalSchema — the lowered schema, the ground sources, the rules, the
// last round's integrated schema, the round count and the summed stats —
// and compares the FNV-1a digest of that text with the digest recorded
// when the case was added. How the FSM bookkeeps a round may change what
// integration costs, never this text.
//
// The inputs: E8's workforce federations (bench_accumulation) at
// N = 2, 3, 4, 5 and 8 under both strategies of Fig. 2, the attribute-
// rename federations, and four generated 32-class counterpart pairs built
// with the e2ebench connect world's generator options.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/string_util.h"
#include "federation/fsm.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

std::string Render(const GlobalSchema& global) {
  std::string out = global.schema.ToString();
  for (const auto& [name, sources] : global.ground_sources) {
    out += StrCat("ground ", name, " <-");
    for (const ClassRef& source : sources) {
      out += StrCat(" ", source.ToString());
    }
    out += "\n";
  }
  for (const Rule& rule : global.rules) {
    out += StrCat("rule ", rule.ToString(), "\n");
  }
  out += global.last_round.ToString();
  out += StrCat("rounds ", global.rounds, "\n",
                global.total_stats.ToString(), "\n");
  return out;
}

std::string Digest(const std::string& text) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(HashString(text)));
  return hex;
}

/// The digest of IntegrateAll's render over `fixture`'s schemas and
/// assertions.
std::string IntegrateDigest(const FederationFixture& fixture,
                            Fsm::Strategy strategy) {
  Fsm fsm;
  for (size_t i = 0; i < fixture.schemas.size(); ++i) {
    const Schema& schema = fixture.schemas[i];
    EXPECT_OK(fsm.RegisterAgent(ValueOrDie(FsmAgent::Create(
        StrCat("agent", i), "ooint", schema.name() + "db", schema))));
  }
  EXPECT_OK(fsm.DeclareAssertions(fixture.assertion_text));
  Result<GlobalSchema> global = fsm.IntegrateAll(strategy);
  EXPECT_OK(global);
  if (!global.ok()) return "";
  return Digest(Render(global.value()));
}

const char* StrategyName(Fsm::Strategy strategy) {
  return strategy == Fsm::Strategy::kAccumulation ? "accumulation"
                                                  : "balanced";
}

struct GoldenCase {
  size_t n;
  Fsm::Strategy strategy;
  const char* digest;
};

constexpr Fsm::Strategy kAcc = Fsm::Strategy::kAccumulation;
constexpr Fsm::Strategy kBal = Fsm::Strategy::kBalanced;

TEST(IntegrateAllGoldenTest, WorkforceFederations) {
  const GoldenCase cases[] = {
      {2, kAcc, "79926db2f5e8e20b"}, {2, kBal, "79926db2f5e8e20b"},
      {3, kAcc, "d3ad419dc4944c1a"}, {3, kBal, "d3ad419dc4944c1a"},
      {4, kAcc, "92fae0fce18f7dbd"}, {4, kBal, "8bd3d5ce3822c25f"},
      {5, kAcc, "83138b142159558b"}, {5, kBal, "02bde8197d20a947"},
      {8, kAcc, "aeb335ef288ae115"}, {8, kBal, "eb6a0e4252abd667"},
  };
  for (const GoldenCase& c : cases) {
    const FederationFixture fixture =
        ValueOrDie(MakeWorkforceFederation(c.n));
    EXPECT_EQ(IntegrateDigest(fixture, c.strategy), c.digest)
        << "workforce N=" << c.n << " " << StrategyName(c.strategy);
  }
}

TEST(IntegrateAllGoldenTest, RenameFederations) {
  const GoldenCase cases[] = {
      {3, kAcc, "901ccc2f85cef54b"}, {3, kBal, "901ccc2f85cef54b"},
      {4, kAcc, "ae8f5d9ee5ebe0de"}, {4, kBal, "3f0f249986af0a62"},
  };
  for (const GoldenCase& c : cases) {
    const FederationFixture fixture = ValueOrDie(MakeRenameFederation(c.n));
    EXPECT_EQ(IntegrateDigest(fixture, c.strategy), c.digest)
        << "rename N=" << c.n << " " << StrategyName(c.strategy);
  }
}

TEST(IntegrateAllGoldenTest, GeneratedCounterpartPairs) {
  // n is the generator seed here; every pair has 32 classes per side.
  const GoldenCase cases[] = {
      {1, kAcc, "5816aac2c25dd114"}, {2, kAcc, "122f4bbaf0905f88"},
      {3, kAcc, "c7ea5310f6555a5f"}, {4, kAcc, "838b6f9c00ccacb6"},
  };
  for (const GoldenCase& c : cases) {
    const FederationFixture fixture =
        ValueOrDie(MakeCounterpartFederation(32, c.n));
    EXPECT_EQ(IntegrateDigest(fixture, c.strategy), c.digest)
        << "counterpart pair seed " << c.n;
  }
}

}  // namespace
}  // namespace ooint
