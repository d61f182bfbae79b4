#include "obs/profile.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::obs {

namespace {

void write_histogram(json::Writer& w, const LogHistogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum", h.sum());
  w.kv("min", h.min());
  w.kv("max", h.max());
  // Sparse: only occupied buckets, as [bucket_lo, count] pairs.
  w.key("buckets").begin_array();
  for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    w.begin_array()
        .value(LogHistogram::bucket_lo(b))
        .value(h.bucket_count(b))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

void write_stats(json::Writer& w, const SampleStats& s) {
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(s.count()));
  if (s.count() > 0) {
    w.kv("mean", s.mean());
    w.kv("stddev", s.stddev());
    w.kv("min", s.min());
    w.kv("p50", s.quantile(0.5));
    w.kv("p90", s.quantile(0.9));
    w.kv("max", s.max());
  }
  w.end_object();
}

void write_engine(json::Writer& w, const EngineProfile& e) {
  w.begin_object();
  w.kv("backend", e.backend);
  w.kv("events_popped", e.events_popped);
  w.kv("queue_high_water", e.queue_high_water);
  w.kv("ring_high_water", e.ring_high_water);
  w.kv("overflow_high_water", e.overflow_high_water);
  w.key("queue_depth");
  write_histogram(w, e.queue_depth);
  w.kv("rounds_stepped", e.rounds_stepped);
  w.key("round_active");
  write_histogram(w, e.round_active);
  w.end_object();
}

void write_counters(
    json::Writer& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  w.begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
}

// ---- helpers for the parsed-JSON readers --------------------------------
// Absent members read as their defaults; a member of the wrong JSON type, or
// one that does not fit its field, throws CheckError (see json::read).

std::uint64_t get_u64(const json::Value& v, std::string_view key) {
  std::uint64_t out = 0;
  json::read_member(v, key, out);
  return out;
}

double get_num(const json::Value& v, std::string_view key) {
  double out = 0.0;
  json::read_member(v, key, out);
  return out;
}

std::string get_str(const json::Value& v, std::string_view key) {
  std::string out;
  json::read_member(v, key, out);
  return out;
}

std::string fmt_double(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void append_row(std::ostringstream& os, const std::string& name,
                const std::string& rest) {
  os << "  " << std::left << std::setw(18) << name << ' ' << rest << '\n';
}

}  // namespace

std::uint64_t RunProfile::phase_message_sum() const {
  std::uint64_t sum = 0;
  for (const PhaseProfile& ph : phases) sum += ph.messages;
  return sum;
}

std::uint64_t RunProfile::phase_bit_sum() const {
  std::uint64_t sum = 0;
  for (const PhaseProfile& ph : phases) sum += ph.bits;
  return sum;
}

const PhaseProfile* RunProfile::find_phase(const std::string& name) const {
  for (const PhaseProfile& ph : phases) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

std::uint64_t RunProfile::counter(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

void write_profile(json::Writer& w, const RunProfile& p) {
  w.begin_object();
  w.kv("kind", "run_profile");
  w.kv("algorithm", p.algorithm);
  w.kv("graph", p.graph);
  w.kv("schedule", p.schedule);
  w.kv("delay", p.delay);
  w.kv("seed", p.seed);
  w.kv("num_nodes", p.num_nodes);
  w.kv("num_edges", p.num_edges);
  w.kv("rho_awk", p.rho_awk);
  w.kv("synchronous", p.synchronous);

  w.key("totals").begin_object();
  w.kv("messages", p.messages);
  w.kv("bits", p.bits);
  w.kv("deliveries", p.deliveries);
  w.kv("events", p.events);
  w.kv("rounds", p.rounds);
  w.kv("time_units", p.time_units);
  w.kv("awake_total", p.awake_total);
  w.kv("awake_max", p.awake_max);
  w.kv("sleep_dropped", p.sleep_dropped);
  w.end_object();

  w.key("awake_rounds");
  write_histogram(w, p.awake_rounds);

  w.key("phases").begin_array();
  for (const PhaseProfile& ph : p.phases) {
    w.begin_object();
    w.kv("name", ph.name);
    w.kv("marks", ph.marks);
    w.kv("messages", ph.messages);
    w.kv("bits", ph.bits);
    if (ph.messages > 0) {
      w.kv("first_send", ph.first_send);
      w.kv("last_send", ph.last_send);
    } else {
      w.key("first_send").null();
      w.key("last_send").null();
    }
    w.key("message_bits");
    write_histogram(w, ph.message_bits);
    w.end_object();
  }
  w.end_array();

  w.key("classes").begin_array();
  for (const ClassProfile& c : p.classes) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("nodes", c.nodes);
    w.kv("messages", c.messages);
    w.key("sent_per_node");
    write_histogram(w, c.sent_per_node);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  write_counters(w, p.counters);

  w.key("engine");
  write_engine(w, p.engine);

  w.key("timers").begin_array();
  for (const TimerProfile& t : p.timers) {
    w.begin_object();
    w.kv("name", t.name);
    w.kv("calls", t.calls);
    w.kv("wall_seconds", t.wall_seconds);
    w.kv("sim_ticks", t.sim_ticks);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string profile_to_json(const RunProfile& p) {
  std::ostringstream os;
  json::Writer w(os);
  write_profile(w, p);
  RISE_CHECK(w.complete());
  os << '\n';
  return os.str();
}

namespace {

// ---- helpers for profile_from_json (inverse of the writers above) -------

LogHistogram read_histogram(const json::Value& v) {
  RISE_CHECK_MSG(v.is_object(), "histogram is not a JSON object");
  std::uint64_t counts[LogHistogram::kBuckets] = {};
  if (const json::Value* buckets =
          v.find("buckets", json::Value::Type::kArray)) {
    for (const json::Value& pair : buckets->array) {
      RISE_CHECK_MSG(pair.is_array() && pair.size() == 2,
                     "histogram bucket is not a [lo, count] pair");
      // The serialized lo is bucket_lo(b), and bucket_of(bucket_lo(b)) == b
      // for every b, so the bucket index round-trips through its lo value.
      std::uint64_t lo = 0;
      json::read(pair.at(0), "buckets", lo);
      json::read(pair.at(1), "buckets", counts[LogHistogram::bucket_of(lo)]);
    }
  }
  return LogHistogram::restore(counts, get_u64(v, "count"), get_u64(v, "sum"),
                               get_u64(v, "min"), get_u64(v, "max"));
}

EngineProfile read_engine(const json::Value& v) {
  EngineProfile e;
  json::read_member(v, "backend", e.backend);
  json::read_member(v, "events_popped", e.events_popped);
  json::read_member(v, "queue_high_water", e.queue_high_water);
  json::read_member(v, "ring_high_water", e.ring_high_water);
  json::read_member(v, "overflow_high_water", e.overflow_high_water);
  if (const json::Value* h = v.find("queue_depth")) {
    e.queue_depth = read_histogram(*h);
  }
  json::read_member(v, "rounds_stepped", e.rounds_stepped);
  if (const json::Value* h = v.find("round_active")) {
    e.round_active = read_histogram(*h);
  }
  return e;
}

}  // namespace

RunProfile profile_from_json(const json::Value& doc) {
  RISE_CHECK_MSG(doc.is_object() && get_str(doc, "kind") == "run_profile",
                 "not a run_profile document");
  RunProfile p;
  json::read_member(doc, "algorithm", p.algorithm);
  json::read_member(doc, "graph", p.graph);
  json::read_member(doc, "schedule", p.schedule);
  json::read_member(doc, "delay", p.delay);
  json::read_member(doc, "seed", p.seed);
  json::read_member(doc, "num_nodes", p.num_nodes);
  json::read_member(doc, "num_edges", p.num_edges);
  json::read_member(doc, "rho_awk", p.rho_awk);
  json::read_member(doc, "synchronous", p.synchronous);

  const json::Value& totals = doc.at("totals");
  RISE_CHECK_MSG(totals.is_object(), "run_profile totals is not an object");
  json::read_member(totals, "messages", p.messages);
  json::read_member(totals, "bits", p.bits);
  json::read_member(totals, "deliveries", p.deliveries);
  json::read_member(totals, "events", p.events);
  json::read_member(totals, "rounds", p.rounds);
  json::read_member(totals, "time_units", p.time_units);
  json::read_member(totals, "awake_total", p.awake_total);
  json::read_member(totals, "awake_max", p.awake_max);
  json::read_member(totals, "sleep_dropped", p.sleep_dropped);

  if (const json::Value* h = doc.find("awake_rounds")) {
    p.awake_rounds = read_histogram(*h);
  }

  using Type = json::Value::Type;
  if (const json::Value* phases = doc.find("phases", Type::kArray)) {
    for (const json::Value& v : phases->array) {
      PhaseProfile ph;
      json::read_member(v, "name", ph.name);
      json::read_member(v, "marks", ph.marks);
      json::read_member(v, "messages", ph.messages);
      json::read_member(v, "bits", ph.bits);
      const json::Value* first = v.find("first_send");
      if (first != nullptr && !first->is_null()) {
        json::read(*first, "first_send", ph.first_send);
        json::read_member(v, "last_send", ph.last_send);
      }
      ph.message_bits = read_histogram(v.at("message_bits"));
      p.phases.push_back(std::move(ph));
    }
  }

  if (const json::Value* classes = doc.find("classes", Type::kArray)) {
    for (const json::Value& v : classes->array) {
      ClassProfile c;
      json::read_member(v, "name", c.name);
      json::read_member(v, "nodes", c.nodes);
      json::read_member(v, "messages", c.messages);
      c.sent_per_node = read_histogram(v.at("sent_per_node"));
      p.classes.push_back(std::move(c));
    }
  }

  if (const json::Value* counters = doc.find("counters", Type::kObject)) {
    for (const auto& [name, v] : counters->object) {
      json::read(v, name, p.counters.emplace_back(name, 0).second);
    }
  }

  if (const json::Value* engine = doc.find("engine", Type::kObject)) {
    p.engine = read_engine(*engine);
  }

  if (const json::Value* timers = doc.find("timers", Type::kArray)) {
    for (const json::Value& v : timers->array) {
      TimerProfile t;
      json::read_member(v, "name", t.name);
      json::read_member(v, "calls", t.calls);
      json::read_member(v, "wall_seconds", t.wall_seconds);
      json::read_member(v, "sim_ticks", t.sim_ticks);
      p.timers.push_back(std::move(t));
    }
  }
  return p;
}

void ProfileAggregate::merge(const RunProfile& p) {
  ++trials;
  messages += p.messages;
  bits += p.bits;
  events += p.events;
  awake_total += p.awake_total;
  awake_max = std::max(awake_max, p.awake_max);
  sleep_dropped += p.sleep_dropped;
  awake_rounds.merge(p.awake_rounds);
  messages_per_trial.add(static_cast<double>(p.messages));
  time_units.add(p.time_units);
  awake_max_per_trial.add(static_cast<double>(p.awake_max));

  for (const PhaseProfile& ph : p.phases) {
    auto it = std::lower_bound(
        phases.begin(), phases.end(), ph.name,
        [](const PhaseAggregate& a, const std::string& n) { return a.name < n; });
    if (it == phases.end() || it->name != ph.name) {
      PhaseAggregate fresh;
      fresh.name = ph.name;
      it = phases.insert(it, std::move(fresh));
    }
    it->marks += ph.marks;
    it->messages += ph.messages;
    it->bits += ph.bits;
    it->message_bits.merge(ph.message_bits);
    it->messages_per_trial.add(static_cast<double>(ph.messages));
  }

  for (const auto& [name, v] : p.counters) {
    auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const std::pair<std::string, std::uint64_t>& a,
           const std::string& n) { return a.first < n; });
    if (it == counters.end() || it->first != name) {
      counters.insert(it, {name, v});
    } else {
      it->second += v;
    }
  }

  if (engine.backend.empty()) {
    engine.backend = p.engine.backend;
  } else if (!p.engine.backend.empty() &&
             engine.backend != p.engine.backend) {
    engine.backend = "mixed";
  }
  engine.events_popped += p.engine.events_popped;
  engine.queue_high_water =
      std::max(engine.queue_high_water, p.engine.queue_high_water);
  engine.ring_high_water =
      std::max(engine.ring_high_water, p.engine.ring_high_water);
  engine.overflow_high_water =
      std::max(engine.overflow_high_water, p.engine.overflow_high_water);
  engine.queue_depth.merge(p.engine.queue_depth);
  engine.rounds_stepped += p.engine.rounds_stepped;
  engine.round_active.merge(p.engine.round_active);
}

void write_aggregate(json::Writer& w, const ProfileAggregate& a) {
  w.begin_object();
  w.kv("kind", "profile_aggregate");
  w.kv("trials", static_cast<std::uint64_t>(a.trials));

  w.key("totals").begin_object();
  w.kv("messages", a.messages);
  w.kv("bits", a.bits);
  w.kv("events", a.events);
  w.kv("awake_total", a.awake_total);
  w.kv("awake_max", a.awake_max);
  w.kv("sleep_dropped", a.sleep_dropped);
  w.end_object();

  w.key("awake_rounds");
  write_histogram(w, a.awake_rounds);

  w.key("messages_per_trial");
  write_stats(w, a.messages_per_trial);
  w.key("time_units");
  write_stats(w, a.time_units);
  w.key("awake_max_per_trial");
  write_stats(w, a.awake_max_per_trial);

  w.key("phases").begin_array();
  for (const PhaseAggregate& ph : a.phases) {
    w.begin_object();
    w.kv("name", ph.name);
    w.kv("marks", ph.marks);
    w.kv("messages", ph.messages);
    w.kv("bits", ph.bits);
    w.key("messages_per_trial");
    write_stats(w, ph.messages_per_trial);
    w.key("message_bits");
    write_histogram(w, ph.message_bits);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  write_counters(w, a.counters);

  w.key("engine");
  write_engine(w, a.engine);

  w.end_object();
}

std::string aggregate_to_json(const ProfileAggregate& a) {
  std::ostringstream os;
  json::Writer w(os);
  write_aggregate(w, a);
  RISE_CHECK(w.complete());
  os << '\n';
  return os.str();
}

namespace {

/// Shared top-N phase table: rows of (name, line), sorted by `weight` desc,
/// stable on name for equal weights.
template <typename Row>
void append_top(std::ostringstream& os, std::vector<Row> rows,
                std::size_t top_n) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.name < b.name;
  });
  std::size_t shown = std::min(rows.size(), top_n);
  for (std::size_t i = 0; i < shown; ++i) {
    append_row(os, rows[i].name, rows[i].line);
  }
  if (shown < rows.size()) {
    os << "  ... " << (rows.size() - shown) << " more\n";
  }
}

struct TextRow {
  std::string name;
  std::uint64_t weight = 0;
  std::string line;
};

}  // namespace

std::string format_profile(const RunProfile& p, std::size_t top_n) {
  std::ostringstream os;
  os << "run profile: " << p.algorithm << " on " << p.graph << " (n="
     << p.num_nodes << ", m=" << p.num_edges << ", schedule=" << p.schedule
     << ", delay=" << p.delay << ", seed=" << p.seed << ", "
     << (p.synchronous ? "sync" : "async") << ")\n";
  os << "totals: messages=" << p.messages << " bits=" << p.bits
     << " deliveries=" << p.deliveries << " events=" << p.events
     << " rounds=" << p.rounds << " time_units=" << fmt_double(p.time_units)
     << '\n';
  if (p.awake_rounds.count() > 0) {
    os << "awake_rounds: total=" << p.awake_total
       << " p50=" << p.awake_rounds.approx_quantile(0.5)
       << " p90=" << p.awake_rounds.approx_quantile(0.9)
       << " max=" << p.awake_max << " sleep_dropped=" << p.sleep_dropped
       << '\n';
  }

  os << "phases (by messages):\n";
  std::vector<TextRow> rows;
  for (const PhaseProfile& ph : p.phases) {
    if (ph.messages == 0 && ph.marks == 0) continue;
    std::ostringstream line;
    line << "messages=" << ph.messages << " bits=" << ph.bits
         << " marks=" << ph.marks;
    if (ph.messages > 0) {
      line << " span=[" << ph.first_send << "," << ph.last_send << "]";
    }
    rows.push_back({ph.name, ph.messages, line.str()});
  }
  append_top(os, std::move(rows), top_n);

  if (p.classes.size() > 1 || (!p.classes.empty() && p.classes[0].nodes > 0)) {
    os << "classes:\n";
    for (const ClassProfile& c : p.classes) {
      if (c.nodes == 0 && c.messages == 0) continue;
      std::ostringstream line;
      line << "nodes=" << c.nodes << " messages=" << c.messages
           << " sent/node p50=" << c.sent_per_node.approx_quantile(0.5)
           << " max=" << c.sent_per_node.max();
      append_row(os, c.name, line.str());
    }
  }

  if (!p.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : p.counters) {
      append_row(os, name, std::to_string(v));
    }
  }

  const EngineProfile& e = p.engine;
  os << "engine: backend=" << (e.backend.empty() ? "?" : e.backend)
     << " popped=" << e.events_popped << " queue_hw=" << e.queue_high_water
     << " ring_hw=" << e.ring_high_water
     << " overflow_hw=" << e.overflow_high_water
     << " rounds_stepped=" << e.rounds_stepped << '\n';

  if (!p.timers.empty()) {
    os << "timers:\n";
    for (const TimerProfile& t : p.timers) {
      std::ostringstream line;
      line << "calls=" << t.calls << " wall="
           << fmt_double(t.wall_seconds * 1e3, 3) << "ms";
      if (t.sim_ticks > 0) line << " sim_ticks=" << t.sim_ticks;
      append_row(os, t.name, line.str());
    }
  }
  return os.str();
}

std::string format_aggregate(const ProfileAggregate& a, std::size_t top_n) {
  return format_profile_document(json::parse(aggregate_to_json(a)), top_n);
}

namespace {

/// The write_stats block `key` of `v` when it holds at least one sample.
const json::Value* samples(const json::Value& v, std::string_view key) {
  const json::Value* s = v.find(key, json::Value::Type::kObject);
  return s != nullptr && get_u64(*s, "count") > 0 ? s : nullptr;
}

std::string fmt_stat(const json::Value& stats, std::string_view key) {
  return fmt_double(get_num(stats, key));
}

std::string format_aggregate_document(const json::Value& doc,
                                      std::size_t top_n) {
  const json::Value& totals = doc.at("totals");
  RISE_CHECK_MSG(totals.is_object(), "profile totals is not an object");
  std::ostringstream os;
  os << "profile aggregate over " << get_u64(doc, "trials") << " trials\n";
  os << "totals: messages=" << get_u64(totals, "messages")
     << " bits=" << get_u64(totals, "bits")
     << " events=" << get_u64(totals, "events") << '\n';
  if (const json::Value* s = samples(doc, "messages_per_trial")) {
    os << "messages/trial: mean=" << fmt_stat(*s, "mean")
       << " p50=" << fmt_stat(*s, "p50") << " p90=" << fmt_stat(*s, "p90")
       << " max=" << fmt_stat(*s, "max") << '\n';
  }
  if (const json::Value* s = samples(doc, "time_units")) {
    os << "time_units: mean=" << fmt_stat(*s, "mean")
       << " p50=" << fmt_stat(*s, "p50") << " max=" << fmt_stat(*s, "max")
       << '\n';
  }
  const json::Value* awake = doc.find("awake_rounds");
  const LogHistogram awake_rounds =
      awake != nullptr ? read_histogram(*awake) : LogHistogram{};
  if (awake_rounds.count() > 0) {
    os << "awake_rounds: total=" << get_u64(totals, "awake_total")
       << " p50=" << awake_rounds.approx_quantile(0.5)
       << " p90=" << awake_rounds.approx_quantile(0.9)
       << " max=" << get_u64(totals, "awake_max")
       << " sleep_dropped=" << get_u64(totals, "sleep_dropped")
       << " max/trial p50=" << fmt_stat(doc.at("awake_max_per_trial"), "p50")
       << '\n';
  }

  os << "phases (by messages):\n";
  std::vector<TextRow> rows;
  if (const json::Value* phases =
          doc.find("phases", json::Value::Type::kArray)) {
    for (const json::Value& ph : phases->array) {
      const std::uint64_t messages = get_u64(ph, "messages");
      const std::uint64_t marks = get_u64(ph, "marks");
      if (messages == 0 && marks == 0) continue;
      std::ostringstream line;
      line << "messages=" << messages << " bits=" << get_u64(ph, "bits")
           << " marks=" << marks;
      if (const json::Value* s = samples(ph, "messages_per_trial")) {
        line << " per-trial p50=" << fmt_stat(*s, "p50")
             << " p90=" << fmt_stat(*s, "p90");
      }
      rows.push_back({get_str(ph, "name"), messages, line.str()});
    }
  }
  append_top(os, std::move(rows), top_n);

  const json::Value* counters =
      doc.find("counters", json::Value::Type::kObject);
  if (counters != nullptr && counters->size() > 0) {
    os << "counters:\n";
    for (const auto& [name, v] : counters->object) {
      std::uint64_t count = 0;
      json::read(v, name, count);
      append_row(os, name, std::to_string(count));
    }
  }

  const json::Value* engine = doc.find("engine", json::Value::Type::kObject);
  const EngineProfile e = engine != nullptr ? read_engine(*engine)
                                            : EngineProfile{};
  os << "engine: backend=" << (e.backend.empty() ? "?" : e.backend)
     << " popped=" << e.events_popped << " queue_hw=" << e.queue_high_water
     << " rounds_stepped=" << e.rounds_stepped << '\n';
  return os.str();
}

}  // namespace

std::string format_profile_document(const json::Value& doc,
                                    std::size_t top_n) {
  RISE_CHECK_MSG(doc.is_object(), "profile document is not a JSON object");
  const std::string kind = get_str(doc, "kind");
  if (kind == "run_profile") {
    return format_profile(profile_from_json(doc), top_n);
  }
  RISE_CHECK_MSG(kind == "profile_aggregate",
                 "not a profile document (kind=" << kind << ")");
  return format_aggregate_document(doc, top_n);
}

}  // namespace rise::obs
