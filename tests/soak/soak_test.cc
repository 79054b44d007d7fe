// Soak-layer tests: schedule generation determinism, artifact round-trip,
// the ddmin shrinker's minimality guarantee (against a mock runner), and
// the gate's reason to exist — a deliberately planted regression (the
// pre-PR-4 stale-ack bank, resurrected behind ServerConfig::
// bank_stale_reports) must be *caught* by the live invariant checks and
// *shrunk* to the single link rule that triggers it.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/link_fault.h"
#include "soak/soak.h"

namespace cwc::soak {
namespace {

TEST(SoakSchedule, GenerationIsDeterministic) {
  const SoakProfile profile;
  const SoakSchedule a = generate_schedule(123, profile);
  const SoakSchedule b = generate_schedule(123, profile);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.kill_server, b.kill_server);
  EXPECT_EQ(a.churn, b.churn);

  // Different seeds explore different schedules (a fixed pair, so the
  // assertion itself is deterministic).
  const SoakSchedule c = generate_schedule(124, profile);
  EXPECT_NE(a.to_text(), c.to_text());
}

TEST(SoakSchedule, GeneratedRulesParseInTheirGrammars) {
  // Every generated event must round-trip through the grammar it claims:
  // link rules through parse_link_spec, the rest through parse_fault_spec.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const SoakSchedule schedule = generate_schedule(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_NO_THROW({
      const std::string points = schedule.point_spec();
      const std::string links = schedule.link_spec();
      if (!points.empty()) fault::parse_fault_spec(points);
      if (!links.empty()) fault::parse_link_spec(links);
    });
  }
}

TEST(SoakSchedule, TextRoundTrip) {
  SoakSchedule schedule;
  schedule.seed = 987654321;
  schedule.kill_server = true;
  schedule.churn = 2;
  schedule.events = {"socket_write:reset@every=100@limit=3",
                     "link:phone=2:partition@t=1s,dur=500ms,dir=from",
                     "link:*:slow@rate=100kbps"};
  const SoakSchedule parsed = SoakSchedule::parse(schedule.to_text());
  EXPECT_EQ(parsed.seed, schedule.seed);
  EXPECT_EQ(parsed.kill_server, schedule.kill_server);
  EXPECT_EQ(parsed.churn, schedule.churn);
  EXPECT_EQ(parsed.events, schedule.events);

  // Artifact form: comments and blank lines are ignored.
  const SoakSchedule commented =
      SoakSchedule::parse("# a reproducer\n\nseed=7\nevent=link:*:burst@p=0.2\n");
  EXPECT_EQ(commented.seed, 7u);
  ASSERT_EQ(commented.events.size(), 1u);

  EXPECT_THROW(SoakSchedule::parse("seed=1\nbogus_line\n"), std::invalid_argument);
  EXPECT_THROW(SoakSchedule::parse("unknown_key=1\n"), std::invalid_argument);
}

TEST(SoakSchedule, SpecSplitsByGrammar) {
  SoakSchedule schedule;
  schedule.events = {"socket_write:drop@n=1", "link:phone=1:partition@t=0,dur=1s",
                     "report_handling:drop@every=5@limit=2", "link:*:slow@latency=50ms"};
  EXPECT_EQ(schedule.point_spec(), "socket_write:drop@n=1;report_handling:drop@every=5@limit=2");
  EXPECT_EQ(schedule.link_spec(),
            "link:phone=1:partition@t=0,dur=1s;link:*:slow@latency=50ms");
}

TEST(SoakInvariant, ExitCodesAreStable) {
  // CI keys off these numbers; they are part of the tool contract.
  EXPECT_EQ(exit_code(Invariant::kNone), 0);
  EXPECT_EQ(exit_code(Invariant::kByteMismatch), 10);
  EXPECT_EQ(exit_code(Invariant::kLostPiece), 11);
  EXPECT_EQ(exit_code(Invariant::kNonConvergence), 12);
  EXPECT_EQ(exit_code(Invariant::kQuarantineStarvation), 13);
  EXPECT_EQ(exit_code(Invariant::kMakespanExceeded), 14);
  EXPECT_STREQ(invariant_name(Invariant::kByteMismatch), "byte_mismatch");
  EXPECT_STREQ(invariant_name(Invariant::kQuarantineStarvation), "quarantine_starvation");
}

/// Mock runner: the schedule "fails" iff every event in `required` is
/// still present (a conjunction — the classic ddmin test case).
SoakVerdict conjunction_runner(const SoakSchedule& schedule,
                               const std::vector<std::string>& required, int& calls) {
  ++calls;
  for (const auto& needed : required) {
    if (std::find(schedule.events.begin(), schedule.events.end(), needed) ==
        schedule.events.end()) {
      return {};
    }
  }
  SoakVerdict verdict;
  verdict.violated = Invariant::kByteMismatch;
  verdict.detail = "mock";
  return verdict;
}

TEST(SoakShrink, FindsMinimalConjunction) {
  SoakSchedule failing;
  failing.seed = 5;
  failing.kill_server = true;  // irrelevant to the mock failure: must shrink away
  failing.churn = 2;           // likewise
  failing.events = {"a", "bad1", "b", "c", "bad2", "d", "e", "f"};
  const std::vector<std::string> required = {"bad1", "bad2"};

  int calls = 0;
  const ShrinkResult result = shrink(
      failing, Invariant::kByteMismatch,
      [&](const SoakSchedule& candidate) {
        return conjunction_runner(candidate, required, calls);
      });

  // 1-minimal: exactly the conjunction, nothing else, knobs cleared.
  EXPECT_EQ(result.schedule.events, required);
  EXPECT_FALSE(result.schedule.kill_server);
  EXPECT_EQ(result.schedule.churn, 0);
  EXPECT_EQ(result.probes, calls);
  EXPECT_LE(result.probes, 64);
  // The seed survives minimization: the reproducer replays identically.
  EXPECT_EQ(result.schedule.seed, failing.seed);
}

TEST(SoakShrink, SingleCulpritShrinksToOneEvent) {
  SoakSchedule failing;
  failing.events = {"x", "y", "culprit", "z"};
  int calls = 0;
  const ShrinkResult result = shrink(
      failing, Invariant::kLostPiece,
      [&](const SoakSchedule& candidate) {
        return conjunction_runner(candidate, {"culprit"}, calls).violated ==
                       Invariant::kByteMismatch
                   ? SoakVerdict{Invariant::kLostPiece, "mock"}
                   : SoakVerdict{};
      });
  ASSERT_EQ(result.schedule.events.size(), 1u);
  EXPECT_EQ(result.schedule.events[0], "culprit");
}

TEST(SoakShrink, RespectsProbeBudget) {
  SoakSchedule failing;
  for (int i = 0; i < 32; ++i) failing.events.push_back("e" + std::to_string(i));
  int calls = 0;
  const ShrinkResult result = shrink(
      failing, Invariant::kByteMismatch,
      [&](const SoakSchedule& candidate) {
        return conjunction_runner(candidate, {"e0", "e31"}, calls);
      },
      /*max_probes=*/5);
  EXPECT_LE(result.probes, 5);
  // Whatever it returned must still contain the conjunction (soundness:
  // shrink never returns a passing schedule).
  int check = 0;
  EXPECT_TRUE(static_cast<bool>(
      conjunction_runner(result.schedule, {"e0", "e31"}, check).violated ==
      Invariant::kByteMismatch));
}

TEST(SoakArtifact, WriteParseRoundTrip) {
  SoakSchedule schedule;
  schedule.seed = 31337;
  schedule.events = {"link:phone=1:slow@t=0,dur=5s,latency=800ms,dir=from"};
  SoakVerdict verdict;
  verdict.violated = Invariant::kByteMismatch;
  verdict.detail = "storm job 0 diverged";

  const std::string path = write_artifact(schedule, verdict, ::testing::TempDir());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  // Verdict metadata is present as comments; the schedule parses back.
  EXPECT_NE(text.str().find("byte_mismatch"), std::string::npos);
  EXPECT_NE(text.str().find("exit_code=10"), std::string::npos);
  const SoakSchedule parsed = SoakSchedule::parse(text.str());
  EXPECT_EQ(parsed.seed, schedule.seed);
  EXPECT_EQ(parsed.events, schedule.events);
  std::remove(path.c_str());
}

// The acceptance gate for the whole soak layer: resurrect the pre-PR-4
// stale-ack bug (ServerConfig::bank_stale_reports banks a report for a
// piece that is no longer in flight — the replay after an assignment
// re-delivery gets banked *twice*), then prove the live runner catches it
// as a byte mismatch and the shrinker reduces a decorated schedule to the
// single slow-uplink rule that makes replays happen.
//
// Trigger chain. Each piece (~0.9 s on phone 1, ~1.2 s on phone 2 at
// 1 ms/KB) outlasts assign_retry_ms, so the server re-delivers assignments
// while the agents compute, and each agent replays its cached report once
// per re-delivery right behind the original. A replay is a stale
// (piece, attempt): dropped normally, banked again with the knob on — but
// only into a job that is not yet done. Fault-free, phone 1 finishes first
// and its two replays (re-deliveries at 250 and 750 ms) land while phone 2
// still computes, so the reference banks phone 1's partial three times.
// 600 ms of uplink latency on phone 1 holds its report in flight until
// after phone 2 reports, so it is phone 2's replays that land in the open
// job instead: a different doubled partial, a different aggregate, a byte
// mismatch. Without the trigger every storm banks exactly what the
// reference banked, so ddmin can drop the decorations. The margins: the
// re-delivery instants (0.25, 0.75, 1.75 s) leave phone 1's piece room to
// stretch ~90% under host load before it sees a third replay, phone 2
// trails phone 1 by ~0.3 s, and the server dispatches in
// phone-id order, so phone 1 gets the same byte range in every leg. The
// keep-alive period sits far above the latency: the agent's sends
// serialize behind 600 ms sleeps, and acks that fall a full period behind
// ack a *stale* ping, which never resets the miss count — the phone would
// read as lost and the requeue path would mask the bug with correct
// results.
TEST(SoakPlantedRegression, StaleBankCaughtAndShrunkToMinimalReproducer) {
  constexpr const char* kTrigger = "link:phone=1:slow@t=0,dur=20s,latency=600ms,dir=from";
  SoakSchedule schedule;
  schedule.seed = 99;
  schedule.events = {
      "keepalive_send:drop@every=5@limit=4",  // benign decoration
      kTrigger,
      "link:phone=2:burst@t=6s,dur=200ms,p=0.05",  // benign decoration
  };

  RunOptions options;
  options.phones = 2;
  options.timeout_s = 25.0;
  options.makespan_envelope = 25.0;
  options.jobs = "prime-count:2048";
  options.keepalive_period_ms = 3000.0;
  options.assign_retry_ms = 250.0;
  options.bank_stale_reports = true;

  // Caught: the planted bank double-banks a replayed report.
  const SoakVerdict verdict = run_live(schedule, options);
  ASSERT_EQ(verdict.violated, Invariant::kByteMismatch) << verdict.detail;

  // Control: the identical storm on a correct server passes — the
  // violation is the plant, not the schedule.
  RunOptions correct = options;
  correct.bank_stale_reports = false;
  const SoakVerdict control = run_live(schedule, correct);
  EXPECT_FALSE(control.violated != Invariant::kNone) << control.detail;

  // Shrunk: ddmin strips the decorations down to the trigger rule alone.
  const ShrinkResult minimal = shrink(
      schedule, Invariant::kByteMismatch,
      [&](const SoakSchedule& candidate) { return run_live(candidate, options); },
      /*max_probes=*/12);
  ASSERT_EQ(minimal.schedule.events.size(), 1u);
  EXPECT_EQ(minimal.schedule.events[0], kTrigger);

  // The minimized schedule is a complete reproducer artifact.
  const std::string path = write_artifact(minimal.schedule, verdict, ::testing::TempDir());
  const SoakSchedule replayed = SoakSchedule::parse([&] {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }());
  EXPECT_EQ(replayed.events, minimal.schedule.events);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cwc::soak
