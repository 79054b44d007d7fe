// Journal + crash-recovery tests: unit tests of the record/replay format
// and an end-to-end crash drill (server 1 makes partial progress and
// "crashes"; server 2 recovers the journal, finishes only the remainder,
// and the combined result is exact).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/fault.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/journal.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "tasks/generators.h"
#include "tasks/primes.h"

namespace cwc::net {
namespace {

std::string temp_journal(const char* tag) {
  return std::string("/tmp/cwc_journal_") + tag + "_" + std::to_string(::getpid()) + ".log";
}

TEST(Journal, RecordReplayRoundTrip) {
  const std::string path = temp_journal("roundtrip");
  {
    Journal journal(path, /*truncate=*/true);
    journal.record_submit(7, "prime-count", {1, 2, 3, 4, 5, 6, 7, 8});
    journal.record_progress(7, {{0, 4}}, {0xAA});
    journal.record_progress(7, {{6, 8}}, {0xBB});
    journal.record_submit(9, "photo-blur", {9, 9});
    journal.record_atomic_done(9, {0xCC});
  }
  const auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 2u);

  const auto& breakable = jobs.at(7);
  EXPECT_EQ(breakable.task_name, "prime-count");
  EXPECT_EQ(breakable.input.size(), 8u);
  EXPECT_EQ(breakable.partials.size(), 2u);
  EXPECT_FALSE(breakable.done(false));
  const auto remaining = breakable.remaining_ranges();
  ASSERT_EQ(remaining.size(), 1u);  // only [4, 6) is uncovered
  EXPECT_EQ(remaining[0], (std::pair<std::uint64_t, std::uint64_t>{4, 6}));
  EXPECT_EQ(breakable.remaining_bytes(), 2u);

  const auto& atomic = jobs.at(9);
  ASSERT_TRUE(atomic.atomic_result.has_value());
  EXPECT_TRUE(atomic.done(true));
  std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalRecord) {
  const std::string path = temp_journal("torn");
  {
    Journal journal(path, /*truncate=*/true);
    journal.record_submit(1, "prime-count", {1, 2, 3});
    journal.record_progress(1, {{0, 3}}, {0x11});
  }
  // Simulate a crash mid-write: append a frame header that promises more
  // bytes than exist.
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    const unsigned char torn[] = {0xFF, 0x00, 0x00, 0x00, 0x01, 0x02};
    std::fwrite(torn, 1, sizeof torn, f);
    std::fclose(f);
  }
  const auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs.at(1).done(false));
  std::remove(path.c_str());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, TruncatedTailRecoversLongestValidPrefixAtEveryOffset) {
  const std::string path = temp_journal("every_offset");
  // Three records, remembering the file size after each one (appends go
  // straight to the fd, so sizes are visible immediately).
  Journal journal(path, /*truncate=*/true);
  journal.record_submit(1, "prime-count", {1, 2, 3});
  const std::size_t after_submit = read_file(path).size();
  journal.record_progress(1, {{0, 3}}, {0x11});
  const std::size_t after_progress = read_file(path).size();
  journal.record_submit(2, "photo-blur", {9});
  const auto full = read_file(path);

  const std::string cut_path = temp_journal("every_offset_cut");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(cut_path, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut)});
    std::map<JobId, Journal::RecoveredJob> jobs;
    ASSERT_NO_THROW(jobs = Journal::replay(cut_path)) << "cut at byte " << cut;
    // Exactly the records that fit whole before the cut survive.
    if (cut < after_submit) {
      EXPECT_TRUE(jobs.empty()) << "cut at byte " << cut;
    } else if (cut < after_progress) {
      ASSERT_EQ(jobs.size(), 1u) << "cut at byte " << cut;
      EXPECT_TRUE(jobs.at(1).partials.empty()) << "cut at byte " << cut;
    } else if (cut < full.size()) {
      ASSERT_EQ(jobs.size(), 1u) << "cut at byte " << cut;
      EXPECT_EQ(jobs.at(1).partials.size(), 1u) << "cut at byte " << cut;
      EXPECT_TRUE(jobs.at(1).done(false)) << "cut at byte " << cut;
    } else {
      EXPECT_EQ(jobs.size(), 2u);
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Journal, CorruptedMidFileRecordStopsAtValidPrefix) {
  const std::string path = temp_journal("midfile");
  Journal journal(path, /*truncate=*/true);
  journal.record_submit(1, "prime-count", {1, 2, 3});
  const std::size_t after_submit = read_file(path).size();
  journal.record_progress(1, {{0, 3}}, {0x11});
  journal.record_submit(2, "photo-blur", {9});
  const auto pristine = read_file(path);

  // Flip a byte inside record 2's payload: its CRC no longer matches, so
  // replay keeps record 1 only — even though record 3 after it is intact.
  auto payload_corrupt = pristine;
  payload_corrupt[after_submit + 8 + 2] ^= 0xFF;
  write_file(path, payload_corrupt);
  auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.at(1).task_name, "prime-count");
  EXPECT_TRUE(jobs.at(1).partials.empty());

  // Same when the corruption hits the CRC field itself.
  auto crc_corrupt = pristine;
  crc_corrupt[after_submit + 5] ^= 0x01;
  write_file(path, crc_corrupt);
  jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs.at(1).partials.empty());
  std::remove(path.c_str());
}

TEST(Journal, InjectedTornWriteRecoversPriorRecords) {
  // End-to-end through the kJournalAppend fault point: the second append
  // tears mid-record (a prefix reaches disk, then the write "fails");
  // replay must come back with exactly the first record.
  const std::string path = temp_journal("torn_inject");
  fault::FaultInjector& injector = fault::FaultInjector::global();
  injector.reset();
  injector.add_rules(fault::parse_fault_spec("journal_append:partial@n=2"));
  injector.arm(1);
  {
    Journal journal(path, /*truncate=*/true);
    journal.record_submit(1, "prime-count", {1, 2, 3, 4});
    EXPECT_THROW(journal.record_progress(1, {{0, 4}}, {0x22}), std::runtime_error);
  }
  injector.reset();

  const auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.at(1).input.size(), 4u);
  EXPECT_TRUE(jobs.at(1).partials.empty());
  EXPECT_FALSE(jobs.at(1).done(false));
  std::remove(path.c_str());
}

TEST(Journal, OldFormatFileFailsLoudly) {
  // A pre-CRC (v1) journal fails every CRC check; silently treating it as
  // fully corrupt would drop recoverable work with no signal. Both replay
  // and append-mode open must refuse such a file instead.
  const std::string path = temp_journal("v1_format");
  // v1 framing: [u32 length][payload], no file header, no CRC.
  write_file(path, {5, 0, 0, 0, 1, 7, 0, 0, 0, 0x61, 0x62, 0x63});
  EXPECT_THROW(Journal::replay(path), std::runtime_error);
  EXPECT_THROW(Journal(path, /*truncate=*/false), std::runtime_error);
  // Truncating re-stamps the file as v2.
  {
    Journal journal(path, /*truncate=*/true);
    journal.record_submit(1, "prime-count", {1, 2});
  }
  EXPECT_EQ(Journal::replay(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(Journal, GoldenV2RecordBytes) {
  // The exact bytes of a one-record v2 journal. Journals written by older
  // builds must keep replaying, so the file header, the [u32 length]
  // [u32 crc32] record header and the payload layout are pinned here.
  const std::string path = temp_journal("golden");
  {
    Journal journal(path, /*truncate=*/true);
    journal.record_submit(7, "prime-count", {1, 2, 3, 4, 5, 6, 7, 8});
  }
  // clang-format off
  const std::vector<std::uint8_t> golden = {
      'C', 'W', 'C', 'J', 'N', 'L', 'v', 2,              // file header
      0x20, 0x00, 0x00, 0x00, 0x8d, 0x8b, 0x05, 0x0a,    // length 32, crc 0x0a058b8d
      1, 7, 0, 0, 0,                                     // kSubmit, job 7
      11, 0, 0, 0, 'p', 'r', 'i', 'm', 'e', '-', 'c', 'o', 'u', 'n', 't',
      8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  // clang-format on
  EXPECT_EQ(read_file(path), golden);
  write_file(path, golden);
  const auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.at(7).task_name, "prime-count");
  EXPECT_EQ(jobs.at(7).input, (Blob{1, 2, 3, 4, 5, 6, 7, 8}));
  std::remove(path.c_str());
}

TEST(Journal, EmptyAndHeaderOnlyFilesReplayEmpty) {
  const std::string path = temp_journal("header_only");
  // Zero-byte file (crash before the header write landed).
  write_file(path, {});
  EXPECT_TRUE(Journal::replay(path).empty());
  // Freshly created journal: header stamped, no records yet.
  { Journal journal(path, /*truncate=*/true); }
  EXPECT_TRUE(Journal::replay(path).empty());
  // Reopening an empty-but-valid journal for append must succeed.
  { Journal journal(path, /*truncate=*/false); }
  EXPECT_TRUE(Journal::replay(path).empty());
  std::remove(path.c_str());
}

TEST(Journal, OversizedRecordRejectedAtAppend) {
  // Replay refuses records beyond the cap (a torn write can fabricate an
  // arbitrary length), so append must refuse them too — otherwise the
  // record is durably written in a form recovery silently stops at.
  const std::string path = temp_journal("oversized");
  constexpr std::size_t kCap = 256u * 1024 * 1024;  // journal.cc kMaxRecordBytes
  {
    Journal journal(path, /*truncate=*/true);
    EXPECT_THROW(journal.record_submit(1, "prime-count", Blob(kCap, 0)),
                 std::runtime_error);
    // Nothing of the rejected record reached the file; later appends stay
    // reachable to replay.
    journal.record_submit(2, "prime-count", {1, 2, 3});
  }
  const auto jobs = Journal::replay(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.count(2), 1u);
  std::remove(path.c_str());
}

TEST(Journal, OverlappingRangesNormalize) {
  Journal::RecoveredJob job;
  job.input.resize(100);
  job.completed_ranges = {{10, 40}, {30, 60}, {0, 5}};
  const auto remaining = job.remaining_ranges();
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0], (std::pair<std::uint64_t, std::uint64_t>{5, 10}));
  EXPECT_EQ(remaining[1], (std::pair<std::uint64_t, std::uint64_t>{60, 100}));
  EXPECT_EQ(job.remaining_bytes(), 45u);
}

TEST(Journal, MissingFileThrows) {
  EXPECT_THROW(Journal::replay("/tmp/definitely_missing_cwc_journal"), std::runtime_error);
}

TEST(JournalRecovery, CrashedBatchResumesExactly) {
  const std::string path = temp_journal("crash");
  std::remove(path.c_str());

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  Rng rng(11);
  const auto input = tasks::make_integer_input(rng, 192.0);
  tasks::PrimeCountFactory factory;
  const std::uint64_t expected =
      tasks::PrimeCountFactory::decode(tasks::run_to_completion(factory, input));

  ServerConfig config;
  config.keepalive_period = 50.0;
  config.scheduling_period = 50.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 16 * 1024;
  config.journal_path = path;

  // Phase 1: a slow phone makes partial progress, then the server "crashes"
  // (run() times out and the server object is destroyed).
  {
    CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                     &registry, config);
    server.submit("prime-count", input);
    PhoneAgentConfig slow;
    slow.id = 0;
    slow.cpu_mhz = 900.0;
    slow.emulated_compute_ms_per_kb = 30.0;  // ~6 s for the whole input
    slow.step_bytes = 8 * 1024;              // several pieces visible
    PhoneAgent agent(server.port(), slow, &registry);
    agent.start();
    EXPECT_FALSE(server.run(1, 2500.0));  // crash before completion
  }

  // The journal must show a submitted job with real progress but not done.
  const auto snapshot = Journal::replay(path);
  ASSERT_EQ(snapshot.size(), 1u);
  const auto& job_state = snapshot.begin()->second;
  EXPECT_FALSE(job_state.done(false));

  // Phase 2: a fresh server recovers and a fast phone finishes only the
  // remainder; the merged result must be exact.
  ServerConfig config2 = config;
  config2.journal_path.clear();  // the second run may journal elsewhere
  CwcServer recovered(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                      &registry, config2);
  const auto mapping = recovered.recover_from(path);
  ASSERT_EQ(mapping.size(), 1u);
  const JobId new_id = mapping.begin()->second;

  PhoneAgentConfig fast;
  fast.id = 1;
  fast.cpu_mhz = 1500.0;
  fast.emulated_compute_ms_per_kb = 1.0;
  PhoneAgent finisher(recovered.port(), fast, &registry);
  finisher.start();
  ASSERT_TRUE(recovered.run(1, seconds(30.0)));
  EXPECT_EQ(tasks::PrimeCountFactory::decode(recovered.result(new_id)), expected);
  finisher.join();
  std::remove(path.c_str());
}

TEST(JournalRecovery, ServerEpochsDistinctAcrossRuns) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  CwcServer a(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(), &registry);
  CwcServer b(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(), &registry);
  EXPECT_NE(a.epoch(), 0u);
  EXPECT_NE(b.epoch(), 0u);
  EXPECT_NE(a.epoch(), b.epoch());
}

TEST(JournalRecovery, SurvivingAgentDoesNotReplayAcrossServerRestart) {
  // The agent's (piece, attempt) replay cache is keyed by ids that are
  // process-local to one server run. An agent that outlives the server and
  // reconnects to its recovered successor must not answer the new run's
  // colliding ids (piece ids restart at 0) with the old run's cached
  // partials — the registration ack's epoch nonce forces a flush.
  const std::string path = temp_journal("epoch");
  std::remove(path.c_str());

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  tasks::PrimeCountFactory factory;
  // Several small jobs: each ships to the single phone as one whole piece,
  // so by the crash some jobs are complete (their (piece, attempt) ids sit
  // in the agent's cache) and some are not (recovered from the journal).
  Rng rng(29);
  constexpr int kJobs = 8;
  std::vector<tasks::Bytes> inputs;
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < kJobs; ++i) {
    inputs.push_back(tasks::make_integer_input(rng, 48.0));
    expected.push_back(
        tasks::PrimeCountFactory::decode(tasks::run_to_completion(factory, inputs.back())));
  }

  ServerConfig config;
  config.keepalive_period = 50.0;
  config.scheduling_period = 50.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 16 * 1024;
  config.journal_path = path;

  // One agent that outlives both server runs: generous reconnect budget,
  // short backoff so it finds the restarted server quickly.
  PhoneAgentConfig phone;
  phone.id = 0;
  phone.cpu_mhz = 1000.0;
  phone.emulated_compute_ms_per_kb = 20.0;  // ~1 s per job: run 1 cannot finish all 8
  phone.max_reconnects = 200;
  phone.reconnect_backoff = 50.0;
  phone.reconnect_backoff_max = 200.0;
  phone.rpc_timeout = 2000.0;

  std::uint16_t port = 0;
  std::vector<JobId> submitted;
  std::optional<PhoneAgent> agent;
  {
    CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                     &registry, config);
    port = server.port();
    for (const auto& input : inputs) submitted.push_back(server.submit("prime-count", input));
    agent.emplace(port, phone, &registry);
    agent->start();
    EXPECT_FALSE(server.run(1, 2500.0));  // crash before completion
    EXPECT_GT(agent->pieces_completed(), 0u);  // the replay cache is warm
  }

  // Restart on the same port (SO_REUSEADDR) so the surviving agent's
  // reconnect loop finds the successor, then finish from the journal.
  ServerConfig config2 = config;
  config2.journal_path.clear();
  config2.port = port;
  CwcServer recovered(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                      &registry, config2);
  const auto mapping = recovered.recover_from(path);
  ASSERT_EQ(mapping.size(), static_cast<std::size_t>(kJobs));
  ASSERT_TRUE(recovered.run(1, seconds(60.0)));
  // Every job — already-done and recovered alike — must aggregate to its
  // own expected count: a stale replay would bank another job's bytes.
  for (int i = 0; i < kJobs; ++i) {
    const JobId new_id = mapping.at(submitted[static_cast<std::size_t>(i)]);
    EXPECT_EQ(tasks::PrimeCountFactory::decode(recovered.result(new_id)), expected[i])
        << "job " << i;
  }
  // And none of those bytes came from the previous run's cache.
  EXPECT_EQ(agent->reports_replayed(), 0u);
  agent->stop();
  agent->join();
  std::remove(path.c_str());
}

TEST(JournalRecovery, CompletedJobsNeedNoPhones) {
  const std::string path = temp_journal("done");
  std::remove(path.c_str());
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();

  // Fabricate a journal of one fully-completed breakable job.
  tasks::PrimeCountFactory factory;
  const tasks::Bytes input = [] {
    Rng rng(3);
    return tasks::make_integer_input(rng, 16.0);
  }();
  const Blob partial = tasks::run_to_completion(factory, input);
  {
    Journal journal(path, true);
    journal.record_submit(0, "prime-count", input);
    journal.record_progress(0, {{0, input.size()}}, partial);
  }

  ServerConfig config;
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, config);
  const auto mapping = server.recover_from(path);
  ASSERT_EQ(mapping.size(), 1u);
  const JobId id = mapping.at(0);
  EXPECT_TRUE(server.job_done(id));
  EXPECT_EQ(tasks::PrimeCountFactory::decode(server.result(id)),
            tasks::PrimeCountFactory::decode(factory.aggregate({partial})));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cwc::net
