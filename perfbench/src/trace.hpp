// In-memory spans for the benchmark's traced run.
//
// A span covers one call (or one loop of `count` calls) from the benchmark
// into a layer's public functions: runner::run_campaign, app::execute_prepared,
// store::ResultStore::append, ... Spans nest by scope on the calling thread;
// each records its parent so run.py can compute self time (duration minus
// the union of its children). Everything stays in memory until the workload
// ends and the raw document is written. A disabled tracer never reads the
// clock, so the untraced run pays one branch per span site.
//
// Single-threaded by design: every span site runs on the benchmark's main
// thread (ResultSink callbacks included — run_campaign invokes them on the
// caller's thread after its pool drains).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint32_t id = 0;      ///< 1-based; 0 = no parent
  std::uint32_t parent = 0;
  double t0_ms = 0.0;        ///< since the tracer was created
  double t1_ms = 0.0;
  std::uint64_t count = 1;   ///< operations the span covers
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; a no-op when the tracer is null or disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t count = 1)
        : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      Span s;
      s.name = name;
      s.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
      s.parent = tracer_->open_.empty() ? 0 : tracer_->open_.back();
      s.count = count;
      s.t0_ms = tracer_->now_ms();
      index_ = tracer_->spans_.size();
      tracer_->spans_.push_back(std::move(s));
      tracer_->open_.push_back(tracer_->spans_[index_].id);
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      tracer_->spans_[index_].t1_ms = tracer_->now_ms();
      tracer_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the spans still open
};

}  // namespace perfbench
