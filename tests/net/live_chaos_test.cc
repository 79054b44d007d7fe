// Chaos tests for the live path: a real CwcServer and >= 4 real
// PhoneAgents over loopback TCP while a seeded fault schedule tears
// frames, resets connections, and drops keep-alives, assignment frames,
// and completion reports. Every job must still finish with results
// byte-identical to the fault-free computation — the retry timers, the
// reconnect backoff, and the agents' idempotent replay cache recovering
// every injected loss. (The committed soak schedules in
// tests/soak/schedules replay longer storms with speculation, pod packing,
// chunk caches and a server kill; these tests keep CI runtime low with a
// single storm.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "obs/fault_obs.h"
#include "obs/metrics.h"
#include "tasks/generators.h"
#include "tasks/primes.h"
#include "tasks/wordcount.h"

namespace cwc::net {
namespace {

/// Arms the process-global injector for one test and guarantees it is
/// reset afterwards even on assertion failure (other suites share the
/// binary and must never inherit an armed storm).
class LiveChaosTest : public ::testing::Test {
 protected:
  void arm(const char* spec, std::uint64_t seed) {
    fault::FaultInjector& injector = fault::FaultInjector::global();
    injector.reset();
    injector.add_rules(fault::parse_fault_spec(spec));
    obs::arm_fault_telemetry();
    injector.arm(seed);
  }
  void TearDown() override { fault::FaultInjector::global().reset(); }
};

ServerConfig chaos_config() {
  ServerConfig config;
  config.keepalive_period = 150.0;
  config.keepalive_misses = 3;
  config.scheduling_period = 100.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 8 * 1024;
  config.assign_retry_period = 300.0;
  config.assign_max_retries = 8;
  config.rpc_timeout = 3000.0;
  return config;
}

PhoneAgentConfig chaos_agent(PhoneId id) {
  PhoneAgentConfig config;
  config.id = id;
  config.max_reconnects = 100;
  config.reconnect_backoff = 50.0;
  config.reconnect_backoff_max = 400.0;
  config.reconnect_jitter = 0.2;
  config.backoff_seed = 1000 + static_cast<std::uint64_t>(id);
  config.rpc_timeout = 2000.0;
  config.cpu_mhz = 800.0 + 150.0 * static_cast<double>(id);
  config.emulated_compute_ms_per_kb = 1.0;
  config.step_bytes = 8 * 1024;
  return config;
}

TEST_F(LiveChaosTest, SeededStormLosesNoWork) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();

  // Fault-free expectations first (integer-sum aggregation, so the values
  // are independent of how chaos fragments the pieces).
  Rng rng(31);
  const auto primes_input = tasks::make_integer_input(rng, 128.0);
  const auto text_input = tasks::make_text_input(rng, 96.0);
  tasks::PrimeCountFactory primes_factory;
  tasks::WordCountFactory words_factory("error");
  const auto expected_primes =
      tasks::PrimeCountFactory::decode(tasks::run_to_completion(primes_factory, primes_input));
  const auto expected_words =
      tasks::WordCountFactory::decode(tasks::run_to_completion(words_factory, text_input));

  // Resets + torn frames (partial writes) + dropped keep-alives,
  // assignments, and reports. Every rule is bounded, so the storm's tail
  // is calm and completion is guaranteed *if* nothing was lost for good.
  arm("socket_write:partial@every=40@limit=5;"
      "socket_write:reset@n=25@limit=1;"
      "socket_connect:drop@n=7;"
      "keepalive_send:drop@every=3@limit=9;"
      "assign_piece:drop@n=2,5@limit=2;"
      "report_handling:drop@n=3@limit=1",
      99);

  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, chaos_config());
  const JobId primes_job = server.submit("prime-count", primes_input);
  const JobId words_job = server.submit("word-count:error", text_input);

  std::vector<std::unique_ptr<PhoneAgent>> agents;
  for (PhoneId id = 0; id < 4; ++id) {
    agents.push_back(std::make_unique<PhoneAgent>(server.port(), chaos_agent(id), &registry));
    agents.back()->start();
  }
  ASSERT_TRUE(server.run(4, seconds(90.0)));
  agents.clear();  // stop + join before reading results

  EXPECT_GE(fault::FaultInjector::global().total_fires(), 5u);
  EXPECT_EQ(tasks::PrimeCountFactory::decode(server.result(primes_job)), expected_primes);
  EXPECT_EQ(tasks::WordCountFactory::decode(server.result(words_job)), expected_words);
}

TEST_F(LiveChaosTest, DroppedAssignmentRecoveredByRetryTimer) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  Rng rng(32);
  const auto input = tasks::make_integer_input(rng, 48.0);
  tasks::PrimeCountFactory factory;
  const auto expected =
      tasks::PrimeCountFactory::decode(tasks::run_to_completion(factory, input));

  const double retries_before = obs::counter("net.server.assign_retries").value();
  arm("assign_piece:drop@n=1", 5);

  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, chaos_config());
  const JobId job = server.submit("prime-count", input);
  PhoneAgent agent(server.port(), chaos_agent(0), &registry);
  agent.start();
  ASSERT_TRUE(server.run(1, seconds(60.0)));
  // The agent may be mid-reconnect when the batch finishes and miss the
  // orderly shutdown frame; stop it instead of waiting out its budget.
  agent.stop();
  agent.join();

  // The very first assignment frame vanished; only the retry timer's
  // verbatim re-send (same piece_seq, same (piece, attempt)) can have
  // delivered the work.
  EXPECT_EQ(fault::FaultInjector::global().fires(fault::FaultPoint::kAssignPiece), 1u);
  EXPECT_GE(obs::counter("net.server.assign_retries").value(), retries_before + 1.0);
  EXPECT_EQ(tasks::PrimeCountFactory::decode(server.result(job)), expected);
}

TEST_F(LiveChaosTest, DroppedReportAnsweredFromAgentReplayCache) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  Rng rng(33);
  const auto input = tasks::make_integer_input(rng, 48.0);
  tasks::PrimeCountFactory factory;
  const auto expected =
      tasks::PrimeCountFactory::decode(tasks::run_to_completion(factory, input));

  arm("report_handling:drop@n=1", 5);

  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, chaos_config());
  const JobId job = server.submit("prime-count", input);
  PhoneAgent agent(server.port(), chaos_agent(0), &registry);
  agent.start();
  ASSERT_TRUE(server.run(1, seconds(60.0)));
  agent.stop();  // see DroppedAssignmentRecoveredByRetryTimer
  agent.join();
  const std::size_t replayed = agent.reports_replayed();

  // The server discarded the first completion report; the retry timer
  // re-delivered the assignment and the agent answered from its
  // (piece, attempt) cache instead of executing — and banking — twice.
  EXPECT_EQ(fault::FaultInjector::global().fires(fault::FaultPoint::kReportHandling), 1u);
  EXPECT_GE(replayed, 1u);
  EXPECT_EQ(tasks::PrimeCountFactory::decode(server.result(job)), expected);
}

}  // namespace
}  // namespace cwc::net
