#include "obs/profile.hpp"

#include <algorithm>
#include <concepts>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::obs {

namespace {

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

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

// ---- helpers for the parsed-JSON readers --------------------------------
// Absent members read as their defaults; a member of the wrong JSON type, or
// one that does not fit its field, throws CheckError (see json::read).

std::uint64_t get_u64(const json::Value& v, std::string_view key) {
  std::uint64_t out = 0;
  json::read_member(v, key, out);
  return out;
}

std::string get_str(const json::Value& v, std::string_view key) {
  std::string out;
  json::read_member(v, key, out);
  return out;
}

/// Inverse of write_histogram.
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

// ---- field lists ----------------------------------------------------------
// Each run_profile record names its JSON members once, in document order, as
// f(key, member). write_profile and profile_from_json both walk these lists;
// the member's type picks how FieldWriter writes it and FieldReader reads it
// back. The reader treats every member as optional unless the list wraps it
// in Required.

/// T is R or const R: one list serves the writer and the reader.
template <typename T, typename R>
concept Of = std::same_as<std::remove_const_t<T>, R>;

/// A member the reader requires: absent is a CheckError.
template <typename T>
struct Required {
  T& member;
};

/// A member written as null unless `present`; a null reads as the default.
template <typename T>
struct NullUnless {
  T& member;
  bool present;
};

/// RunProfile's totals, which its document nests in a "totals" object.
template <typename Run>
struct Totals {
  Run& p;
};

template <typename Run, typename F>
void for_each_field(Totals<Run> t, F&& f) {
  f("messages", t.p.messages);
  f("bits", t.p.bits);
  f("deliveries", t.p.deliveries);
  f("events", t.p.events);
  f("rounds", t.p.rounds);
  f("time_units", t.p.time_units);
  f("awake_total", t.p.awake_total);
  f("awake_max", t.p.awake_max);
  f("sleep_dropped", t.p.sleep_dropped);
}

template <Of<PhaseProfile> Phase, typename F>
void for_each_field(Phase& ph, F&& f) {
  f("name", ph.name);
  f("marks", ph.marks);
  f("messages", ph.messages);
  f("bits", ph.bits);
  f("first_send", NullUnless{ph.first_send, ph.messages > 0});
  f("last_send", NullUnless{ph.last_send, ph.messages > 0});
  f("message_bits", Required{ph.message_bits});
}

template <Of<ClassProfile> Class, typename F>
void for_each_field(Class& c, F&& f) {
  f("name", c.name);
  f("nodes", c.nodes);
  f("messages", c.messages);
  f("sent_per_node", Required{c.sent_per_node});
}

template <Of<EngineProfile> Engine, typename F>
void for_each_field(Engine& e, F&& f) {
  f("backend", e.backend);
  f("events_popped", e.events_popped);
  f("queue_high_water", e.queue_high_water);
  f("ring_high_water", e.ring_high_water);
  f("overflow_high_water", e.overflow_high_water);
  f("queue_depth", e.queue_depth);
  f("rounds_stepped", e.rounds_stepped);
  f("round_active", e.round_active);
}

template <Of<TimerProfile> Timer, typename F>
void for_each_field(Timer& t, F&& f) {
  f("name", t.name);
  f("calls", t.calls);
  f("wall_seconds", t.wall_seconds);
  f("sim_ticks", t.sim_ticks);
}

template <Of<RunProfile> Run, typename F>
void for_each_field(Run& p, F&& f) {
  f("algorithm", p.algorithm);
  f("graph", p.graph);
  f("schedule", p.schedule);
  f("delay", p.delay);
  f("seed", p.seed);
  f("num_nodes", p.num_nodes);
  f("num_edges", p.num_edges);
  f("rho_awk", p.rho_awk);
  f("synchronous", p.synchronous);
  Totals<Run> totals{p};
  f("totals", Required{totals});
  f("awake_rounds", p.awake_rounds);
  f("phases", p.phases);
  f("classes", p.classes);
  f("counters", p.counters);
  f("engine", p.engine);
  f("timers", p.timers);
}

struct AnyField {
  template <typename T>
  void operator()(const char*, T&&) const {}
};

/// A type with a field list: written as a JSON object, read from one.
template <typename T>
concept Record = requires(T& r) { for_each_field(r, AnyField{}); };

/// Writes one listed member as `"key": value`.
struct FieldWriter {
  json::Writer& w;

  template <typename T>
  void operator()(const char* key, const T& member) const {
    w.key(key);
    value(member);
  }

  template <typename T>
  void value(const T& v) const {
    w.value(v);
  }
  void value(const LogHistogram& h) const { write_histogram(w, h); }
  void value(const Counters& counters) const {
    w.begin_object();
    for (const auto& [name, v] : counters) w.kv(name, v);
    w.end_object();
  }
  void value(const SampleStats& s) const {
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
  template <Record R>
  void value(const R& r) const {
    w.begin_object();
    for_each_field(r, *this);
    w.end_object();
  }
  template <Record R>
  void value(const std::vector<R>& rs) const {
    w.begin_array();
    for (const R& r : rs) value(r);
    w.end_array();
  }
  template <typename T>
  void value(Required<T> r) const {
    value(r.member);
  }
  template <typename T>
  void value(NullUnless<T> n) const {
    if (n.present) {
      value(n.member);
    } else {
      w.null();
    }
  }
};

/// Reads one listed member of `obj` back: the inverse of FieldWriter.
struct FieldReader {
  const json::Value& obj;

  template <typename T>
  void operator()(const char* key, T& out) const {
    json::read_member(obj, key, out);
  }
  void operator()(const char* key, LogHistogram& h) const {
    if (const json::Value* v = obj.find(key)) h = read_histogram(*v);
  }
  void operator()(const char* key, Counters& c) const {
    if (const json::Value* v = obj.find(key, json::Value::Type::kObject)) {
      for (const auto& [name, count] : v->object) {
        json::read(count, name, c.emplace_back(name, 0).second);
      }
    }
  }
  template <Record R>
  void operator()(const char* key, R& r) const {
    if (const json::Value* v = obj.find(key, json::Value::Type::kObject)) {
      for_each_field(r, FieldReader{*v});
    }
  }
  template <Record R>
  void operator()(const char* key, std::vector<R>& rs) const {
    if (const json::Value* v = obj.find(key, json::Value::Type::kArray)) {
      for (const json::Value& item : v->array) {
        for_each_field(rs.emplace_back(), FieldReader{item});
      }
    }
  }
  template <typename T>
  void operator()(const char* key, Required<T> r) const {
    static_cast<void>(obj.at(key));  // CheckError when absent
    (*this)(key, r.member);
  }
  template <typename T>
  void operator()(const char* key, NullUnless<T> n) const {
    const json::Value* v = obj.find(key);
    if (v != nullptr && !v->is_null()) json::read(*v, key, n.member);
  }
};

std::string fmt_double(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void append_row(std::ostringstream& os, const std::string& name,
                const std::string& rest) {
  os << "  " << std::left << std::setw(18) << name << ' ' << rest << '\n';
}

void append_counters(std::ostringstream& os, const Counters& counters) {
  if (counters.empty()) return;
  os << "counters:\n";
  for (const auto& [name, v] : counters) {
    append_row(os, name, std::to_string(v));
  }
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
  for_each_field(p, FieldWriter{w});
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

RunProfile profile_from_json(const json::Value& doc) {
  RISE_CHECK_MSG(doc.is_object() && get_str(doc, "kind") == "run_profile",
                 "not a run_profile document");
  RunProfile p;
  for_each_field(p, FieldReader{doc});
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

  const FieldWriter field{w};
  field("awake_rounds", a.awake_rounds);
  field("messages_per_trial", a.messages_per_trial);
  field("time_units", a.time_units);
  field("awake_max_per_trial", a.awake_max_per_trial);

  w.key("phases").begin_array();
  for (const PhaseAggregate& ph : a.phases) {
    w.begin_object();
    w.kv("name", ph.name);
    w.kv("marks", ph.marks);
    w.kv("messages", ph.messages);
    w.kv("bits", ph.bits);
    field("messages_per_trial", ph.messages_per_trial);
    field("message_bits", ph.message_bits);
    w.end_object();
  }
  w.end_array();

  field("counters", a.counters);
  field("engine", a.engine);

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

  append_counters(os, p.counters);

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

/// The SampleStats block `key` of `v` when it holds at least one sample.
const json::Value* samples(const json::Value& v, std::string_view key) {
  const json::Value* s = v.find(key, json::Value::Type::kObject);
  return s != nullptr && get_u64(*s, "count") > 0 ? s : nullptr;
}

std::string fmt_stat(const json::Value& stats, std::string_view key) {
  double v = 0.0;
  json::read_member(stats, key, v);
  return fmt_double(v);
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
  LogHistogram awake_rounds;
  FieldReader{doc}("awake_rounds", awake_rounds);
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

  Counters counters;
  FieldReader{doc}("counters", counters);
  append_counters(os, counters);

  EngineProfile e;
  FieldReader{doc}("engine", e);
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
