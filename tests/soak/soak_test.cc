// Soak-layer tests: schedule generation determinism, artifact round-trip,
// the ddmin shrinker's minimality guarantee (against a mock runner), and
// the gate's reason to exist — a deliberately planted regression (the
// pre-PR-4 stale-ack bank, resurrected behind ServerConfig::
// bank_stale_reports) must be *caught* by the live invariant checks and
// *shrunk* to the single link rule that triggers it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/link_fault.h"
#include "net/journal.h"
#include "obs/metrics.h"
#include "soak/soak.h"

namespace cwc::soak {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Parses one schedule event in the grammar its prefix claims.
void parse_event(const std::string& event) {
  if (event.rfind("link:", 0) == 0) {
    fault::parse_link_spec(event);
  } else {
    fault::parse_fault_spec(event);
  }
}

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

TEST(SoakSchedule, GeneratedTextIsPinned) {
  // generate_schedule(1..200).to_text(), concatenated, as the explorer
  // produced it before the live-only keys existed: a seed names the same
  // reproducer across versions, and keys at their defaults stay off the
  // text.
  std::string text;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) text += generate_schedule(seed).to_text();
  EXPECT_EQ(text.size(), 36789u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()), text.size())),
            0xc9cdfafau);
  EXPECT_EQ(generate_schedule(1).to_text(),
            "seed=1\nkill_server=0\nchurn=0\n"
            "event=keepalive_send:drop@every=6@limit=9\n"
            "event=link:*:slow@t=0.426271s,dur=0.948014s,rate=100kbps\n"
            "event=link:phone=2:burst@t=3.5996s,dur=1.81392s,p=0.4\n"
            "event=link:*:slow@t=0.382646s,dur=1.08749s,rate=200kbps,latency=137ms\n");
}

TEST(SoakSchedule, TextRoundTrip) {
  SoakSchedule schedule;
  schedule.seed = 987654321;
  schedule.kill_server = true;
  schedule.churn = 2;
  schedule.speculation = true;
  schedule.pods = 4;
  schedule.cache_mb = 0.1;  // not exact in binary: the text must still round-trip
  schedule.events = {"socket_write:reset@every=100@limit=3",
                     "link:phone=2:partition@t=1s,dur=500ms,dir=from",
                     "link:*:slow@rate=100kbps"};
  const SoakSchedule parsed = SoakSchedule::parse(schedule.to_text());
  EXPECT_EQ(parsed.seed, schedule.seed);
  EXPECT_EQ(parsed.kill_server, schedule.kill_server);
  EXPECT_EQ(parsed.churn, schedule.churn);
  EXPECT_TRUE(parsed.speculation);
  EXPECT_EQ(parsed.pods, 4);
  EXPECT_EQ(parsed.cache_mb, 0.1);
  EXPECT_EQ(parsed.events, schedule.events);
  EXPECT_FALSE(SoakSchedule::parse("speculation=off\n").speculation);

  // Artifact form: comments and blank lines are ignored.
  const SoakSchedule commented =
      SoakSchedule::parse("# a reproducer\n\nseed=7\nevent=link:*:burst@p=0.2\n");
  EXPECT_EQ(commented.seed, 7u);
  ASSERT_EQ(commented.events.size(), 1u);

  EXPECT_THROW(SoakSchedule::parse("seed=1\nbogus_line\n"), std::invalid_argument);
  EXPECT_THROW(SoakSchedule::parse("unknown_key=1\n"), std::invalid_argument);
}

TEST(SoakSchedule, LiveKnobsRejectBadValues) {
  for (const char* line : {"pods=-1", "pods=x", "pods=4x", "pods=", "pods=+4", "cache_mb=-0.5",
                           "cache_mb=abc", "cache_mb=nan", "cache_mb=inf", "cache_mb=8MB",
                           "speculation=yes", "speculation=1"}) {
    EXPECT_THROW(SoakSchedule::parse(std::string(line) + "\n"), std::invalid_argument) << line;
  }
}

TEST(SoakSchedule, CommittedSchedulesParse) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(CWC_SOAK_SCHEDULE_DIR)) {
    if (entry.path().extension() != ".repro") continue;
    names.push_back(entry.path().filename().string());
    SCOPED_TRACE(entry.path().string());
    const SoakSchedule schedule = SoakSchedule::parse(read_file(entry.path().string()));
    EXPECT_EQ(schedule.seed, 20260806u);
    EXPECT_FALSE(schedule.events.empty());
    for (const auto& event : schedule.events) EXPECT_NO_THROW(parse_event(event)) << event;
    EXPECT_EQ(SoakSchedule::parse(schedule.to_text()).to_text(), schedule.to_text());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"chaos_cache.repro", "chaos_pods.repro",
                                             "chaos_storm.repro"}));
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
// 1 ms/KB) outlasts assign_retry_ms (750 ms), so the server re-delivers
// each assignment once while the agents compute, and each agent replays
// its cached report right behind the original. A replay is a stale
// (piece, attempt): dropped normally, banked again with the knob on — but
// only into a job that is not yet done. Fault-free, phone 1 finishes first
// and its replay lands while phone 2 still computes, so the reference
// banks phone 1's partial twice. 600 ms of uplink latency on phone 1 holds
// its report in flight until after phone 2 reports, so it is phone 2's
// replay that lands in the open job instead: a different doubled partial,
// a different aggregate, a byte mismatch. Without the trigger every storm
// banks exactly what the reference banked, so ddmin can drop the
// decorations. The margins: the retry interval doubles, so the next
// re-delivery comes at 2.25 s and phone 1's piece may stretch 2.5x under
// host load before it sees a second replay (under ASan, CPU steal on a
// shared VM stretched fault-free legs 2.1x, past the 1.75 s third
// re-delivery of a 250 ms retry); phone 2 trails phone 1 by ~0.3 s; and
// the server dispatches in phone-id order while every phone keeps the
// placeholder bandwidth (no probes), so phone 1 gets the same byte range
// in every leg on any host (a probe-measured bandwidth moved it under
// ASan, and the reference then banked a different partial). The
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
  options.assign_retry_ms = 750.0;
  options.probe_chunks = 0;
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

// The committed chaos schedules on the live stack: every leg (storm, server
// kill and journal recovery) byte-matches the reference, and each file
// really exercises its path: a speculative backup races the 10x-slow phone
// 1, and the cache storm re-fetches the chunks it corrupted.
TEST(SoakReplay, ChaosSchedulesHoldAndExerciseTheirPaths) {
  const struct {
    const char* file;
    const char* counter;  ///< must rise during the replay
  } replays[] = {{"chaos_storm.repro", "spec.launched"},
                 {"chaos_pods.repro", "spec.launched"},
                 {"chaos_cache.repro", "net.agent.chunk_refetches"}};
  for (const auto& replay : replays) {
    SCOPED_TRACE(replay.file);
    const SoakSchedule schedule = SoakSchedule::parse(
        read_file(std::string(CWC_SOAK_SCHEDULE_DIR) + "/" + replay.file));
    RunOptions options;
    options.timeout_s = 120.0;
    const double before = obs::counter(replay.counter).value();
    const SoakVerdict verdict = run_live(schedule, options);
    EXPECT_EQ(verdict.violated, Invariant::kNone) << verdict.detail;
    EXPECT_GT(obs::counter(replay.counter).value(), before) << replay.counter << " never rose";
  }
}

TEST(SoakReplay, FailedRecoveryLeavesNoJournalBehind) {
  // A job no registry knows, already in the journal the killed server
  // appends to: recover_from() throws on it.
  const std::string journal = recovery_journal_path();
  net::Journal(journal).record_submit(999, "no-such-task", net::Blob{1, 2, 3});
  SoakSchedule schedule;
  schedule.kill_server = true;
  RunOptions options;
  options.phones = 2;
  options.jobs = "prime-count:32";
  const SoakVerdict verdict = run_live(schedule, options);
  EXPECT_EQ(verdict.violated, Invariant::kNonConvergence) << verdict.detail;
  EXPECT_FALSE(std::filesystem::exists(journal));
  EXPECT_FALSE(std::filesystem::exists(journal + ".2"));
}

}  // namespace
}  // namespace cwc::soak
