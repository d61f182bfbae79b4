#include "check/corpus.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace rise::check {

namespace {

constexpr const char* kHeader = "# rise-corpus v1";

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Formats a double so it round-trips (objective values are counters or
/// small ratios; shortest-representation printing is enough here).
std::string fmt_value(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

std::string corpus_line(const CorpusEntry& entry) {
  std::ostringstream os;
  os << "graph=" << entry.scenario.spec.graph
     << " schedule=" << entry.scenario.spec.schedule
     << " algo=" << entry.scenario.spec.algorithm
     << " delay=" << entry.scenario.spec.delay
     << " seed=" << entry.scenario.spec.seed
     << " family="
     << (entry.scenario.family.empty() ? "-" : entry.scenario.family)
     << " objective=" << (entry.objective.empty() ? "-" : entry.objective)
     << " value=" << fmt_value(entry.value)
     << " digest=" << hex64(entry.digest);
  return os.str();
}

CorpusEntry parse_corpus_line(const std::string& line) {
  CorpusEntry entry;
  std::set<std::string> seen;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    RISE_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "corpus: malformed token '" << token << "' in: " << line);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    RISE_CHECK_MSG(!value.empty(),
                   "corpus: empty value for '" << key << "' in: " << line);
    RISE_CHECK_MSG(seen.insert(key).second,
                   "corpus: repeated key '" << key << "' in: " << line);
    // Every number must span its whole token: "seed=11junk" is an error,
    // not seed 11.
    bool valid = true;
    if (key == "graph") {
      entry.scenario.spec.graph = value;
    } else if (key == "schedule") {
      entry.scenario.spec.schedule = value;
    } else if (key == "algo") {
      entry.scenario.spec.algorithm = value;
    } else if (key == "delay") {
      entry.scenario.spec.delay = value;
    } else if (key == "seed") {
      valid = parse_digits(value, entry.scenario.spec.seed);
    } else if (key == "family") {
      entry.scenario.family = value == "-" ? "" : value;
    } else if (key == "objective") {
      entry.objective = value == "-" ? "" : value;
    } else if (key == "value") {
      const char* end = value.data() + value.size();
      const auto [stop, ec] = std::from_chars(value.data(), end, entry.value);
      valid = ec == std::errc{} && stop == end && std::isfinite(entry.value);
    } else if (key == "digest") {
      valid = value.size() <= 16 && parse_digits(value, entry.digest, 16);
    } else {
      RISE_CHECK_MSG(false, "corpus: unknown key '" << key
                                                    << "' in: " << line);
    }
    RISE_CHECK_MSG(valid, "corpus: bad value '" << value << "' for '" << key
                                                << "' in: " << line);
  }
  for (const char* required :
       {"graph", "schedule", "algo", "delay", "seed", "digest"}) {
    RISE_CHECK_MSG(seen.count(required) > 0,
                   "corpus: entry missing required key '" << required
                                                          << "': " << line);
  }
  return entry;
}

std::vector<CorpusEntry> load_corpus(const std::string& path) {
  std::ifstream in(path);
  RISE_CHECK_MSG(in.good(), "corpus: cannot read " << path);
  std::vector<CorpusEntry> out;
  std::string line;
  while (std::getline(in, line)) {
    // Tolerate trailing CR from checkouts with CRLF translation.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    out.push_back(parse_corpus_line(line));
  }
  return out;
}

void append_corpus(const std::string& path, const CorpusEntry& entry) {
  const bool fresh = !std::filesystem::exists(path);
  std::ofstream out(path, std::ios::app);
  RISE_CHECK_MSG(out.good(), "corpus: cannot write " << path);
  if (fresh) out << kHeader << "\n";
  out << corpus_line(entry) << "\n";
  RISE_CHECK_MSG(out.good(), "corpus: write to " << path << " failed");
}

CorpusReplayReport replay_corpus(const std::vector<CorpusEntry>& entries) {
  CorpusReplayReport report;
  report.entries = entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CorpusEntry& entry = entries[i];
    const CheckedRun run = run_checked(entry.scenario);
    if (run.clean()) {
      ++report.clean;
    } else {
      std::ostringstream os;
      os << "entry " << i << " not clean (" << repro_command(entry.scenario)
         << "): ";
      if (!run.error.empty()) {
        os << "error: " << run.error;
      } else {
        os << run.violations.size() << " violation(s), first: "
           << run.violations.front();
      }
      report.failures.push_back(os.str());
      continue;
    }
    if (run.digest == entry.digest) {
      ++report.digest_matches;
    } else {
      std::ostringstream os;
      os << "entry " << i << " digest drift ("
         << repro_command(entry.scenario) << "): recorded "
         << hex64(entry.digest) << ", replay " << hex64(run.digest);
      report.failures.push_back(os.str());
    }
  }
  return report;
}

std::string format_corpus_replay(const CorpusReplayReport& report) {
  std::ostringstream os;
  os << "corpus replay: " << report.entries << " entr"
     << (report.entries == 1 ? "y" : "ies") << ", " << report.clean
     << " clean, " << report.digest_matches << " digest-stable";
  if (report.ok()) {
    os << " -- OK\n";
  } else {
    os << " -- " << report.failures.size() << " FAILURE(S)\n";
    for (const std::string& f : report.failures) os << "  " << f << "\n";
  }
  return os.str();
}

}  // namespace rise::check
