#include "soak/soak.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "common/strings.h"

namespace cwc::soak {
namespace {

bool is_link_rule(const std::string& event) { return event.rfind("link:", 0) == 0; }

std::string join_events(const std::vector<std::string>& events, bool link) {
  std::string spec;
  for (const auto& event : events) {
    if (is_link_rule(event) != link) continue;
    if (!spec.empty()) spec += ';';
    spec += event;
  }
  return spec;
}

/// Formats a double with %g so generated specs stay short ("0.25", "1500").
std::string num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

/// Parses the whole of `value` as a finite, non-negative T.
template <typename T>
T parse_non_negative(const std::string& key, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc{} || ptr != end ||
      !(parsed >= T{0} && parsed <= std::numeric_limits<T>::max())) {
    throw std::invalid_argument("soak schedule: " + key + " wants a non-negative number, got '" +
                                value + "'");
  }
  return parsed;
}

/// Picks a link-rule target: a concrete phone most of the time, the
/// wildcard occasionally (wildcard partitions are the harshest schedules).
std::string link_target(Rng& rng, int phones) {
  if (rng.chance(0.2)) return "*";
  return "phone=" + std::to_string(rng.uniform_int(1, phones));
}

std::string random_point_rule(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return "socket_write:reset@every=" + std::to_string(rng.uniform_int(60, 140)) +
             "@limit=" + std::to_string(rng.uniform_int(2, 5));
    case 1:
      return "socket_write:partial@every=" + std::to_string(rng.uniform_int(40, 90)) +
             "@limit=" + std::to_string(rng.uniform_int(2, 6));
    case 2:
      return "keepalive_send:drop@every=" + std::to_string(rng.uniform_int(3, 6)) +
             "@limit=" + std::to_string(rng.uniform_int(4, 12));
    case 3:
      return "assign_piece:drop@every=" + std::to_string(rng.uniform_int(4, 9)) +
             "@limit=" + std::to_string(rng.uniform_int(2, 8));
    default:
      return "report_handling:drop@every=" + std::to_string(rng.uniform_int(4, 9)) +
             "@limit=" + std::to_string(rng.uniform_int(2, 8));
  }
}

std::string random_link_rule(Rng& rng, const SoakProfile& profile) {
  const std::string target = link_target(rng, profile.phones);
  // Windows start in the first half of the horizon so their effects land
  // while work is still in flight, and always carry a bounded duration.
  const double start_s = rng.uniform(0.0, profile.horizon_s * 0.5);
  const double dur_s = rng.uniform(0.3, 2.0);
  const std::string window = "@t=" + num(start_s) + "s,dur=" + num(dur_s) + "s";
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      static constexpr const char* kDirs[] = {"both", "to", "from"};
      return "link:" + target + ":partition" + window +
             ",dir=" + kDirs[rng.uniform_int(0, 2)];
    }
    case 1: {
      std::string rule = "link:" + target + ":slow" + window;
      const bool cap_rate = rng.chance(0.7);
      if (cap_rate) {
        static constexpr int kRates[] = {50, 100, 200, 400};
        rule += ",rate=" + std::to_string(kRates[rng.uniform_int(0, 3)]) + "kbps";
      }
      if (!cap_rate || rng.chance(0.5)) {
        rule += ",latency=" + std::to_string(rng.uniform_int(20, 200)) + "ms";
      }
      return rule;
    }
    case 2:
      return "link:" + target + ":flap" + window +
             ",period=" + std::to_string(rng.uniform_int(400, 3000)) +
             "ms,duty=" + num(0.3 + 0.1 * static_cast<double>(rng.uniform_int(0, 5)));
    default:
      return "link:" + target + ":burst" + window +
             ",p=" + num(0.05 + 0.05 * static_cast<double>(rng.uniform_int(0, 7)));
  }
}

}  // namespace

const char* invariant_name(Invariant invariant) {
  switch (invariant) {
    case Invariant::kNone: return "none";
    case Invariant::kByteMismatch: return "byte_mismatch";
    case Invariant::kLostPiece: return "lost_piece";
    case Invariant::kNonConvergence: return "non_convergence";
    case Invariant::kQuarantineStarvation: return "quarantine_starvation";
    case Invariant::kMakespanExceeded: return "makespan_exceeded";
  }
  return "?";
}

std::string SoakSchedule::point_spec() const { return join_events(events, /*link=*/false); }

std::string SoakSchedule::link_spec() const { return join_events(events, /*link=*/true); }

std::string SoakSchedule::to_text() const {
  std::string text;
  text += "seed=" + std::to_string(seed) + "\n";
  text += "kill_server=" + std::string(kill_server ? "1" : "0") + "\n";
  text += "churn=" + std::to_string(churn) + "\n";
  if (speculation) text += "speculation=on\n";
  if (pods != 0) text += "pods=" + std::to_string(pods) + "\n";
  if (cache_mb != 0.0) {
    char buffer[32];
    // Shortest form that parses back to the same double.
    const auto written = std::to_chars(buffer, buffer + sizeof(buffer), cache_mb);
    text += "cache_mb=" + std::string(buffer, written.ptr) + "\n";
  }
  for (const auto& event : events) text += "event=" + event + "\n";
  return text;
}

SoakSchedule SoakSchedule::parse(const std::string& text) {
  SoakSchedule schedule;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed{trim(line)};
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("soak schedule: expected key=value, got '" + trimmed + "'");
    }
    const std::string key = trimmed.substr(0, eq);
    const std::string value = trimmed.substr(eq + 1);
    if (key == "seed") {
      schedule.seed = std::stoull(value);
    } else if (key == "kill_server") {
      schedule.kill_server = value == "1" || value == "true";
    } else if (key == "churn") {
      schedule.churn = std::stoi(value);
    } else if (key == "speculation") {
      if (value != "on" && value != "off") {
        throw std::invalid_argument("soak schedule: speculation wants on or off, got '" +
                                    value + "'");
      }
      schedule.speculation = value == "on";
    } else if (key == "pods") {
      schedule.pods = parse_non_negative<int>(key, value);
    } else if (key == "cache_mb") {
      schedule.cache_mb = parse_non_negative<double>(key, value);
    } else if (key == "event") {
      schedule.events.push_back(value);
    } else {
      throw std::invalid_argument("soak schedule: unknown key '" + key + "'");
    }
  }
  return schedule;
}

SoakSchedule generate_schedule(std::uint64_t seed, const SoakProfile& profile) {
  SoakSchedule schedule;
  schedule.seed = seed;
  Rng rng(seed);
  const auto point_rules = rng.uniform_int(0, profile.max_point_rules);
  for (std::int64_t i = 0; i < point_rules; ++i) {
    schedule.events.push_back(random_point_rule(rng));
  }
  const auto link_rules = rng.uniform_int(0, profile.max_link_rules);
  for (std::int64_t i = 0; i < link_rules; ++i) {
    schedule.events.push_back(random_link_rule(rng, profile));
  }
  schedule.kill_server = profile.allow_kill && rng.chance(1.0 / 3.0);
  schedule.churn = profile.max_churn > 0
                       ? static_cast<int>(rng.uniform_int(0, profile.max_churn))
                       : 0;
  return schedule;
}

ShrinkResult shrink(const SoakSchedule& failing, Invariant target, const RunFn& run,
                    int max_probes) {
  ShrinkResult result;
  result.schedule = failing;

  const auto still_fails = [&](const SoakSchedule& candidate) {
    if (result.probes >= max_probes) return false;
    ++result.probes;
    return run(candidate).violated == target;
  };

  // ddmin over the event list: partition into n chunks, try dropping each
  // chunk; on success restart at coarse granularity, otherwise refine
  // until chunks are single events (1-minimality).
  std::size_t n = 2;
  while (result.schedule.events.size() >= 2 && result.probes < max_probes) {
    const auto& events = result.schedule.events;
    const std::size_t chunks = std::min(n, events.size());
    const std::size_t chunk_len = (events.size() + chunks - 1) / chunks;
    bool reduced = false;
    for (std::size_t c = 0; c < chunks && !reduced; ++c) {
      SoakSchedule candidate = result.schedule;
      const std::size_t begin = c * chunk_len;
      const std::size_t end = std::min(events.size(), begin + chunk_len);
      if (begin >= end) continue;
      candidate.events.erase(candidate.events.begin() + static_cast<std::ptrdiff_t>(begin),
                             candidate.events.begin() + static_cast<std::ptrdiff_t>(end));
      if (still_fails(candidate)) {
        result.schedule = std::move(candidate);
        n = 2;  // restart coarse on the smaller list
        reduced = true;
      }
    }
    if (!reduced) {
      if (chunks >= events.size()) break;  // already at single events
      n = std::min(events.size(), n * 2);
    }
  }
  // A single remaining event may itself be redundant (the failure could be
  // kill/churn-driven): probe the empty list once.
  if (result.schedule.events.size() == 1 && result.probes < max_probes) {
    SoakSchedule candidate = result.schedule;
    candidate.events.clear();
    if (still_fails(candidate)) result.schedule = std::move(candidate);
  }

  // The scalar knobs shrink independently: a reproducer without a server
  // kill or churn is strictly simpler.
  if (result.schedule.kill_server && result.probes < max_probes) {
    SoakSchedule candidate = result.schedule;
    candidate.kill_server = false;
    if (still_fails(candidate)) result.schedule = std::move(candidate);
  }
  if (result.schedule.churn > 0 && result.probes < max_probes) {
    SoakSchedule candidate = result.schedule;
    candidate.churn = 0;
    if (still_fails(candidate)) result.schedule = std::move(candidate);
  }
  return result;
}

std::string write_artifact(const SoakSchedule& schedule, const SoakVerdict& verdict,
                           const std::string& dir) {
  const std::string path = dir + "/soak-seed" + std::to_string(schedule.seed) + ".repro";
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("soak: cannot write artifact " + path);
  out << "# cwc_soak minimized reproducer\n";
  out << "# violated=" << invariant_name(verdict.violated)
      << " exit_code=" << exit_code(verdict.violated) << "\n";
  if (!verdict.detail.empty()) out << "# detail: " << verdict.detail << "\n";
  out << "# replay: cwc_soak --schedule=" << path << "\n";
  out << schedule.to_text();
  return path;
}

}  // namespace cwc::soak
