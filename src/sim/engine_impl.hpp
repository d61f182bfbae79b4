// The engines' event loops, templated over the per-node dispatch strategy.
//
// Both engines run the same loops for two programming models:
//
//   * the virtual `Process` path (one heap object per node, ProcessFactory)
//     — kept for the fuzzer, tests and third-party algorithms; and
//   * the flat SoA kernel path (sim/kernel.hpp) — per-family node state in
//     parallel vectors, with on_wake/on_message/on_round resolved at compile
//     time instead of through two pointer chases per event.
//
// AsyncRunner/SyncRunner here hold the loop code exactly once, templated on
// a Handler with
//
//   handler.on_wake(ctx, cause)      // ctx.node() is the woken node
//   handler.on_message(ctx, in)
//   handler.on_round(ctx, inbox)
//
// ProcessHandler forwards each hook to the node's virtual Process, which
// reproduces the historical engines verbatim; a Kernel *is* its own handler,
// so its template hooks inline into the loop with the final context types
// below, devirtualizing every ctx call the algorithm makes. Both paths run
// the identical accounting/trace/queue code, which is why they are
// bit-identical (pinned by test_sim_kernels).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/async_engine.hpp"
#include "sim/delay_policy.hpp"
#include "sim/engine_core.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/sync_engine.hpp"
#include "sim/workspace.hpp"
#include "support/check.hpp"

namespace rise::sim::internal {

/// Dispatches engine hooks to the node's heap-allocated virtual Process.
struct ProcessHandler {
  EngineCore& core;

  template <class Ctx>
  void on_wake(Ctx& ctx, WakeCause cause) {
    core.process(ctx.node()).on_wake(ctx, cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, const Incoming& in) {
    core.process(ctx.node()).on_message(ctx, in);
  }
  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const Incoming> inbox) {
    core.process(ctx.node()).on_round(ctx, inbox);
  }
};

template <class Handler>
class AsyncRunner;

template <class Handler>
class AsyncRunnerContext final : public CoreContext {
 public:
  AsyncRunnerContext(AsyncRunner<Handler>& engine, EngineCore& core)
      : CoreContext(core), engine_(engine) {}

  void send(Port p, Message msg) override {
    engine_.send_from(node_, p, std::move(msg));
  }
  Time now() const override { return engine_.now(); }
  std::uint64_t local_round() const override { return 0; }
  void request_tick() override {
    RISE_CHECK_MSG(false, "request_tick is a synchronous-engine feature");
  }

 private:
  AsyncRunner<Handler>& engine_;
};

template <class Handler>
class AsyncRunner {
 public:
  AsyncRunner(Handler& handler, EngineCore& core, const DelayPolicy& delays,
              const WakeSchedule& schedule, const RunLimits& limits,
              EventQueue::Mode queue_mode, RunWorkspace* workspace)
      : handler_(handler),
        core_(core),
        delays_(delays),
        max_delay_(delays.max_delay()),
        // Every shipped policy with max_delay() == 1 returns exactly 1 (the
        // engine-enforced legal range is [1, max_delay]), so the per-send
        // virtual delay() call can be skipped entirely on the unit-delay
        // hot path. Fault-injection wrappers (check::LateDeliveryFault)
        // declare max_delay() >= 2 and therefore never take the fast path.
        unit_delays_(delays.max_delay() == 1),
        limits_(limits),
        ctx_(*this, core),
        workspace_(workspace),
        probe_(core.probe()) {
    const Instance& instance = core_.instance();
    if (workspace_ != nullptr) {
      channels_ = std::move(workspace_->channels);
      events_ = std::move(workspace_->events);
    }
    channels_.assign(instance.num_directed_edges(), ChannelState{});
    events_.reset(max_delay_, queue_mode);
    if (probe_ != nullptr) {
      probe_->set_backend(events_.using_buckets() ? "buckets" : "heap");
    }
    const NodeId n = instance.num_nodes();
    for (const auto& [t, u] : schedule.wakes) {
      RISE_CHECK(u < n);
      events_.push({t, next_seq_++, EventKind::kWake, u, kInvalidPort, {}});
    }
  }

  ~AsyncRunner() {
    if (workspace_ == nullptr) return;
    workspace_->channels = std::move(channels_);
    workspace_->events = std::move(events_);
  }

  RunResult run() {
    const Instance& instance = core_.instance();
    Metrics& metrics = core_.result().metrics;
    std::vector<std::uint32_t>& awake_rounds = core_.result().awake_rounds;
    TraceSink* trace = core_.trace();
    while (!events_.empty()) {
      // Consume the front event in place: copy the scalars, steal the
      // message, and drop the slot *before* dispatching (handlers send,
      // which may reallocate the queue's storage under a front() reference).
      Event& front = events_.front();
      const EventKind kind = front.kind;
      const NodeId node = front.node;
      const Port port = front.port;
      now_ = front.t;
      Incoming in{port, std::move(front.msg)};
      events_.drop_front();
      ++metrics.events;
      if (probe_ != nullptr) probe_->on_event_pop(events_.size());
      RISE_CHECK_MSG(metrics.events <= limits_.max_events,
                     "async engine exceeded max_events ("
                         << limits_.max_events << ") — runaway algorithm?");
      switch (kind) {
        case EventKind::kWake:
          // A duplicate adversary wake of an already-awake node is a no-op
          // and costs the node nothing.
          if (!core_.is_awake(node)) {
            ++awake_rounds[node];
            wake_node(node, WakeCause::kAdversary);
          }
          break;
        case EventKind::kDeliver: {
          ++awake_rounds[node];
          core_.account_delivery(node, now_);
          if (trace != nullptr) {
            trace->on_deliver(now_, instance.port_to_neighbor(node, port),
                              node, in.msg);
          }
          wake_node(node, WakeCause::kMessage);
          ctx_.attach(node);
          handler_.on_message(ctx_, in);
          break;
        }
      }
    }
    return core_.take_result();
  }

  void send_from(NodeId from, Port p, Message msg) {
    const Instance& instance = core_.instance();
    RISE_CHECK_MSG(p < instance.graph().degree(from),
                   "send on invalid port " << p << " at node " << from);
    core_.account_send(from, msg, now_);
    const NodeId to = instance.port_to_neighbor(from, p);
    if (core_.trace() != nullptr) core_.trace()->on_send(now_, from, to, msg);
    auto& chan = channels_[instance.directed_edge_id(from, p)];
    Time d = 1;
    if (!unit_delays_) {
      d = delays_.delay(from, to, chan.msg_index, now_);
      RISE_CHECK_MSG(d >= 1 && d <= max_delay_, "delay policy out of range");
    }
    ++chan.msg_index;
    Time arrive = now_ + d;
    arrive = std::max(arrive, chan.last_delivery);  // FIFO clamp
    chan.last_delivery = arrive;

    // A delivery clamped past max_time is dropped: the send was already
    // charged, so metrics.deliveries stays <= metrics.messages.
    if (limits_.max_time != kNever && arrive > limits_.max_time) return;
    const Port receiver_port = instance.reverse_port(from, p);
    events_.emplace(arrive, next_seq_++, EventKind::kDeliver, to,
                    receiver_port, std::move(msg));
    if (probe_ != nullptr) {
      probe_->on_queue_push(events_.size(), events_.ring_occupancy(),
                            events_.overflow_occupancy());
    }
  }

  Time now() const { return now_; }

 private:
  void wake_node(NodeId u, WakeCause cause) {
    if (!core_.mark_awake(u, now_, cause)) return;
    ctx_.attach(u);
    handler_.on_wake(ctx_, cause);
  }

  Handler& handler_;
  EngineCore& core_;
  const DelayPolicy& delays_;
  Time max_delay_;
  bool unit_delays_;
  RunLimits limits_;
  AsyncRunnerContext<Handler> ctx_;
  RunWorkspace* workspace_;

  std::vector<ChannelState> channels_;
  EventQueue events_;
  obs::Probe* probe_ = nullptr;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
};

template <class Handler>
class SyncRunner;

/// The context a sync node is stepped with (SyncRunner::step_chunk).
/// Sends are *recorded* into the chunk's outbox instead of applied, and
/// tick requests / naps land in the node's SyncStepRecord, so the
/// sequential reduction can apply every shared-state effect in active-set
/// order. Reads (now, local_round, rng, advice, probe, ...) touch only
/// state that is frozen or owned by the stepped node during the step.
template <class Handler>
class SyncRunnerContext final : public CoreContext {
 public:
  SyncRunnerContext(SyncRunner<Handler>& engine, EngineCore& core,
                    SyncChunkOutbox& outbox)
      : CoreContext(core), engine_(engine), outbox_(outbox) {}

  void attach_step(NodeId u, SyncStepRecord* step) {
    attach(u);
    step_ = step;
  }

  void send(Port p, Message msg) override {
    engine_.record_send(outbox_, *step_, p, std::move(msg));
  }
  Time now() const override { return engine_.round(); }
  std::uint64_t local_round() const override {
    return engine_.local_round(node_);
  }
  void request_tick() override { step_->tick = true; }
  void sleep_until(Time round) override {
    engine_.record_sleep(node_, round, *step_);
  }

 private:
  SyncRunner<Handler>& engine_;
  SyncChunkOutbox& outbox_;
  SyncStepRecord* step_ = nullptr;
};

template <class Handler>
class SyncRunner {
 public:
  /// `parallel` (optional) turns on round-parallel stepping: each stepped
  /// round is partitioned into `parallel.jobs` contiguous chunks of the
  /// sorted active set, chunks run on the executor, and a sequential
  /// reduction applies metrics / trace / probe effects in active-set order
  /// — so the run is bit-identical to the one-chunk serial round for any
  /// job count. See step_round below and DESIGN.md §14.
  SyncRunner(Handler& handler, EngineCore& core, const WakeSchedule& schedule,
             const SyncRunLimits& limits, RunWorkspace* workspace,
             SyncParallel parallel = {})
      : handler_(handler),
        core_(core),
        limits_(limits),
        parallel_(parallel),
        jobs_(parallel.enabled() ? parallel.jobs : 1),
        workspace_(workspace),
        probe_(core.probe()),
        replay_sends_(core.trace() != nullptr || probe_ != nullptr) {
    if (probe_ != nullptr) probe_->set_backend("sync");
    n_ = core_.instance().num_nodes();
    words_ = (static_cast<std::size_t>(n_) + 63) / 64;
    bucket_scale_ = (static_cast<std::uint64_t>(jobs_) << 32) /
                    std::max<std::size_t>(words_, 1);
    if (workspace_ != nullptr) b_ = std::move(workspace_->sync);
    b_.wake_round.assign(n_, kNever);
    b_.asleep_until.assign(n_, 0);
    // An aborted run can leave spans, candidate bits and naps behind; stale
    // `mail` slots are harmless (the inbox build overwrites what it uses).
    b_.inbox.assign(n_, InboxSpan{});
    b_.pending.assign(words_, 0);
    b_.nap_ring.resize(kNapRing);
    for (std::vector<NodeId>& slot : b_.nap_ring) slot.clear();
    b_.nap_overflow.clear();
    b_.wakes.clear();
    for (const auto& [t, u] : schedule.wakes) {
      RISE_CHECK(u < n_);
      b_.wakes.emplace_back(t, u);
    }
    // Sorted by (round, node): each round's wake-ups form one contiguous,
    // node-sorted slice that run() consumes with a cursor and the steps
    // walk with adversary_woke(). Schedules usually come sorted already.
    if (!std::is_sorted(b_.wakes.begin(), b_.wakes.end())) {
      std::sort(b_.wakes.begin(), b_.wakes.end());
    }
    b_.active.clear();
    // Never shrunk, so a workspace alternating job counts keeps them all.
    if (b_.outboxes.size() < jobs_) b_.outboxes.resize(jobs_);
  }

  ~SyncRunner() {
    if (workspace_ != nullptr) workspace_->sync = std::move(b_);
  }

  RunResult run() {
    Metrics& metrics = core_.result().metrics;
    for (round_ = 0;; ++round_) {
      RISE_CHECK_MSG(round_ <= limits_.max_rounds,
                     "sync engine exceeded max_rounds");
      // 1. Candidates: last round's receivers and tick requests are already
      // marked; add the adversary wake-ups and nap ends due now.
      const std::size_t wake_lo = wake_cursor_;
      while (wake_cursor_ < b_.wakes.size() &&
             b_.wakes[wake_cursor_].first == round_) {
        mark(b_.wakes[wake_cursor_].second);
        ++wake_cursor_;
      }
      round_wakes_begin_ = b_.wakes.data() + wake_lo;
      round_wakes_end_ = b_.wakes.data() + wake_cursor_;
      release_naps();
      collect_active();

      if (b_.active.empty()) {
        Time next = wake_cursor_ < b_.wakes.size()
                        ? b_.wakes[wake_cursor_].first
                        : kNever;
        next = std::min(next, next_nap_end());
        if (next == kNever) break;  // quiescent
        // Fast-forward idle rounds to the next scheduled wake-up or nap end.
        round_ = next - 1;
        continue;
      }

      // 2. Step every active node, then lay its sends out as next round's
      // inbox.
      step_round();
      build_inbox();
      metrics.events += b_.active.size();
      metrics.rounds = round_ + 1;
      if (probe_ != nullptr) probe_->on_sync_round(b_.active.size());
    }
    return core_.take_result();
  }

  /// SyncRunnerContext::send: validate the port and the CONGEST budget,
  /// resolve the receiver, and append the message to the outbox bucket
  /// owned by the scatter worker that will deliver it. All accounting, the
  /// max_messages check and trace events happen later, in reduce_outboxes,
  /// in active-set order.
  void record_send(SyncChunkOutbox& ob, SyncStepRecord& st, Port p,
                   Message msg) {
    const Instance& instance = core_.instance();
    const NodeId from = st.node;
    RISE_CHECK_MSG(p < instance.graph().degree(from),
                   "send on invalid port " << p << " at node " << from);
    core_.check_congest(msg);
    const NodeId to = instance.port_to_neighbor(from, p);
    const Port receiver_port = instance.reverse_port(from, p);
    const std::size_t bucket = bucket_of(to);
    ++st.sends;
    st.bits += msg.logical_bits();
    SyncSendBucket& bin = ob.buckets[bucket];
    bin.to.push_back(to);
    bin.msgs.push_back(Incoming{receiver_port, std::move(msg)});
    if (replay_sends_) {
      ob.order.push_back(
          (static_cast<std::uint64_t>(bucket) << kOrderIndexBits) |
          static_cast<std::uint64_t>(bin.size() - 1));
    }
    ++ob.sends;
  }

  Time round() const { return round_; }
  std::uint64_t local_round(NodeId u) const {
    return core_.is_awake(u) ? (round_ - b_.wake_round[u] + 1) : 0;
  }

  /// SyncRunnerContext::sleep_until: the node naps over rounds
  /// (round_, target) exclusive and is stepped again at `target`. Only the
  /// node-owned asleep_until slot is written here; the shared nap
  /// registration is deferred to the reduction via the step record.
  void record_sleep(NodeId u, Time target, SyncStepRecord& step) {
    RISE_CHECK_MSG(limits_.sleeping_model,
                   "sleep_until requires SyncRunLimits::sleeping_model");
    RISE_CHECK_MSG(target > round_,
                   "sleep_until(" << target << ") in round " << round_
                                  << " must target a strictly future round");
    RISE_CHECK_MSG(b_.asleep_until[u] <= round_,
                   "node " << u << " re-declared sleep while a nap is pending");
    b_.asleep_until[u] = target;
    step.slept = true;
    step.sleep_target = target;
  }

 private:
  /// Width of the within-bucket index field in SyncChunkOutbox::order
  /// entries; 2^40 comfortably exceeds max_messages, and the bucket id in
  /// the high bits fits any plausible job count.
  static constexpr unsigned kOrderIndexBits = 40;
  /// Rounds covered by the nap ring; naps ending later wait in the
  /// overflow heap. The sleeping families nap at most 16 rounds.
  static constexpr Time kNapRing = 64;

  using WakeIt = const std::pair<Time, NodeId>*;

  /// The first wake of the current round's (node-sorted) slice of the flat
  /// wake schedule aimed at a node >= u.
  WakeIt wakes_from(NodeId u) const {
    return std::lower_bound(round_wakes_begin_, round_wakes_end_, u,
                            [](const std::pair<Time, NodeId>& w, NodeId v) {
                              return w.second < v;
                            });
  }

  /// Was u woken by the adversary *this round*? `it` walks the wake slice
  /// along with the id-sorted active set: u never decreases between calls.
  bool adversary_woke(NodeId u, WakeIt& it) const {
    while (it != round_wakes_end_ && it->second < u) ++it;
    return it != round_wakes_end_ && it->second == u;
  }

  /// True while u is inside a declared nap: asleep_until[u] is the round
  /// the nap ends at, and a node with no pending nap has it <= round_.
  bool is_asleep(NodeId u) const { return b_.asleep_until[u] > round_; }

  /// Makes u a candidate for the next round read out by collect_active.
  void mark(NodeId u) { b_.pending[u >> 6] |= std::uint64_t{1} << (u & 63); }

  std::span<const Incoming> inbox_of(NodeId u) const {
    const InboxSpan box = b_.inbox[u];
    return {b_.mail.data() + box.begin, box.len};
  }

  std::span<SyncChunkOutbox> outboxes() { return {b_.outboxes.data(), jobs_}; }

  // ---- nap ring -----------------------------------------------------------
  //
  // After release_naps() at round r, every ring entry ends in (r, r + ring),
  // so one slot never mixes two targets; fast-forwarding never skips a
  // target because next_nap_end() bounds the jump.

  void register_nap(NodeId u, Time target) {
    if (target - round_ < kNapRing) {
      b_.nap_ring[target % kNapRing].push_back(u);
      ++naps_in_ring_;
    } else {
      b_.nap_overflow.emplace_back(target, u);
      std::push_heap(b_.nap_overflow.begin(), b_.nap_overflow.end(),
                     std::greater<>());
    }
  }

  /// Marks every node whose nap ends this round: it is stepped again
  /// (usually with an empty inbox) so it can resume its protocol.
  void release_naps() {
    std::vector<NodeId>& slot = b_.nap_ring[round_ % kNapRing];
    for (NodeId u : slot) mark(u);
    naps_in_ring_ -= slot.size();
    slot.clear();
    auto& heap = b_.nap_overflow;
    while (!heap.empty() && heap.front().first == round_) {
      mark(heap.front().second);
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
    }
  }

  Time next_nap_end() const {
    Time next = b_.nap_overflow.empty() ? kNever : b_.nap_overflow.front().first;
    if (naps_in_ring_ == 0) return next;
    for (Time t = round_ + 1; t < round_ + kNapRing; ++t) {
      if (!b_.nap_ring[t % kNapRing].empty()) return std::min(next, t);
    }
    return next;
  }

  /// Reads the candidate bitmap out in id order, clearing it, into the
  /// active set. Sleeping model: a napping candidate is skipped — a wake
  /// or stale tick aimed at it evaporates and the messages that reached it
  /// are dropped — and the survivors' deliveries are traced here, after the
  /// nap filter (the lock-step path traces them eagerly at send time).
  void collect_active() {
    const bool sleeping = limits_.sleeping_model;
    TraceSink* trace = core_.trace();
    const Instance& instance = core_.instance();
    Metrics& metrics = core_.result().metrics;
    b_.active.clear();
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = b_.pending[w];
      if (bits == 0) continue;
      b_.pending[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const auto u = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        if (sleeping) {
          if (is_asleep(u)) {
            metrics.sleep_dropped += b_.inbox[u].len;
            b_.inbox[u].len = 0;
            continue;
          }
          if (trace != nullptr) {
            for (const Incoming& in : inbox_of(u)) {
              trace->on_deliver(round_, instance.port_to_neighbor(u, in.port),
                                u, in.msg);
            }
          }
        }
        b_.active.push_back(u);
      }
    }
  }

  // ---- stepping ---------------------------------------------------------
  //
  // Every stepped round runs in three phases; the serial round is the
  // one-chunk case, and any job count gives a bit-identical run:
  //
  //   1. step (parallel): chunk c steps active[c*A/jobs, (c+1)*A/jobs).
  //      Workers touch only node-owned state (awake flag, wake_round,
  //      asleep_until, RNG stream, outputs, awake_rounds, own inbox span)
  //      and record everything shared — sends, wake causes, delivered
  //      counts, naps, tick requests, probe marks — into their outbox.
  //   2. reduce (sequential): walk outboxes in chunk order, steps in step
  //      order, replaying wake accounting, per-send accounting + CONGEST /
  //      max_messages checks + trace events, deferred probe marks (by send
  //      sequence number), nap registrations and tick requests — in
  //      active-set order, whatever the chunking.
  //   3. inbox build (parallel): build_inbox.
  //
  // A chunk failure (invalid port, CONGEST violation, sleep-contract
  // violation) is caught into its outbox and the lowest failed chunk is
  // rethrown — that chunk contains the earliest active node to fail. The
  // reduction checks max_messages afterwards, so a round that both fails
  // in a chunk and overruns max_messages reports the chunk's error.
  void step_round() {
    for (SyncChunkOutbox& ob : outboxes()) ob.reset(jobs_);
    run_chunks(&SyncRunner::step_chunk_thunk);
    for (SyncChunkOutbox& ob : outboxes()) {
      if (ob.error != nullptr) std::rethrow_exception(ob.error);
    }
    reduce_outboxes();
  }

  /// Runs fn(this, c) for every chunk c: inline for the serial round, on
  /// the executor otherwise.
  void run_chunks(void (*fn)(void*, std::size_t)) {
    if (jobs_ == 1) {
      fn(this, 0);
    } else {
      parallel_.executor->run(jobs_, fn, this);
    }
  }

  static void step_chunk_thunk(void* arg, std::size_t chunk) {
    static_cast<SyncRunner*>(arg)->step_chunk(chunk);
  }
  static void scatter_thunk(void* arg, std::size_t bucket) {
    static_cast<SyncRunner*>(arg)->scatter_bucket(bucket);
  }

  void step_chunk(std::size_t chunk) noexcept {
    SyncChunkOutbox& ob = b_.outboxes[chunk];
    const std::size_t total = b_.active.size();
    const std::size_t begin = chunk * total / jobs_;
    const std::size_t end = (chunk + 1) * total / jobs_;
    std::vector<std::uint32_t>& awake_rounds = core_.result().awake_rounds;
    obs::DeferredMarkScope defer(&ob.marks, &ob.sends);
    SyncRunnerContext<Handler> ctx(*this, core_, ob);
    WakeIt wake_it = begin < end ? wakes_from(b_.active[begin]) : nullptr;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId u = b_.active[i];
        SyncStepRecord st;
        st.node = u;
        ++awake_rounds[u];
        ctx.attach_step(u, &st);
        if (!core_.is_awake(u)) {
          st.woke = true;
          st.cause = adversary_woke(u, wake_it) ? WakeCause::kAdversary
                                                : WakeCause::kMessage;
          // local_round() must read 1 inside on_wake, so set the base first.
          b_.wake_round[u] = round_;
          core_.mark_awake_local(u, round_);
          handler_.on_wake(ctx, st.cause);
          ctx.attach_step(u, &st);
        }
        st.delivered = b_.inbox[u].len;
        handler_.on_round(ctx, inbox_of(u));
        b_.inbox[u].len = 0;
        ob.steps.push_back(st);
      }
    } catch (...) {
      ob.error = std::current_exception();
    }
  }

  void reduce_outboxes() {
    Metrics& metrics = core_.result().metrics;
    TraceSink* trace = core_.trace();
    constexpr std::uint64_t kIndexMask =
        (std::uint64_t{1} << kOrderIndexBits) - 1;
    for (SyncChunkOutbox& ob : outboxes()) {
      auto mark_it = ob.marks.begin();
      std::uint64_t s = 0;
      for (const SyncStepRecord& st : ob.steps) {
        if (st.woke) core_.account_wake(round_, st.node, st.cause);
        if (!replay_sends_) {
          // Nothing observes the individual sends: add them up per step.
          core_.account_sends(st.node, st.sends, st.bits);
          RISE_CHECK_MSG(metrics.messages <= limits_.max_messages,
                         "sync engine exceeded max_messages");
        }
        for (const std::uint64_t end = replay_sends_ ? s + st.sends : 0;
             s < end; ++s) {
          // A mark stamped with seq <= s happened before send s (after
          // send s-1), so it must land before send s's phase attribution.
          while (mark_it != ob.marks.end() && mark_it->seq <= s) {
            if (probe_ != nullptr) probe_->replay(*mark_it);
            ++mark_it;
          }
          const std::uint64_t packed = ob.order[s];
          const SyncSendBucket& bin = ob.buckets[packed >> kOrderIndexBits];
          const std::size_t i = packed & kIndexMask;
          const Message& msg = bin.msgs[i].msg;
          core_.account_send(st.node, msg, round_);
          RISE_CHECK_MSG(metrics.messages <= limits_.max_messages,
                         "sync engine exceeded max_messages");
          if (trace != nullptr) {
            trace->on_send(round_, st.node, bin.to[i], msg);
            // Sleeping model: delivery is conditional on the receiver
            // being awake next round; collect_active() traces it after the
            // nap filter.
            if (!limits_.sleeping_model) {
              trace->on_deliver(round_ + 1, st.node, bin.to[i], msg);
            }
          }
        }
        // deliveries/received_per_node/last_delivery are commutative
        // counters with no trace or probe hooks, so applying the delivery
        // after the step's sends (not between its on_wake and on_round
        // sends) yields identical totals.
        if (st.delivered != 0) {
          core_.account_delivery(st.node, round_, st.delivered);
        }
        if (st.slept) register_nap(st.node, st.sleep_target);
        if (st.tick) mark(st.node);
      }
      for (; mark_it != ob.marks.end(); ++mark_it) {
        if (probe_ != nullptr) probe_->replay(*mark_it);
      }
    }
  }

  // ---- inbox build ------------------------------------------------------
  //
  // The round's sends become next round's inbox: one contiguous `mail`
  // array grouped by receiver. Bucket b owns the receivers in bitmap words
  // [word_lo(b), word_lo(b+1)) and the mail slots from its base on; its
  // worker counts its receivers' messages (marking them as candidates),
  // turns the counts into offsets in id order, and scatters back to front.
  // Records sit in chunk order and, within a chunk, in send order, so each
  // receiver's messages arrive in active-set send order whatever the
  // chunking. The serial round is the one-bucket case.

  // Word w belongs to bucket floor(w * bucket_scale_ / 2^32), about
  // w * jobs / words: a multiply instead of a divide per recorded send.
  std::size_t bucket_of(NodeId to) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(to >> 6) * bucket_scale_) >> 32);
  }
  /// The first bitmap word of `bucket` (words_ for bucket == jobs_).
  std::size_t word_lo(std::size_t bucket) const {
    if (bucket == 0) return 0;
    const std::uint64_t w =
        ((static_cast<std::uint64_t>(bucket) << 32) + bucket_scale_ - 1) /
        bucket_scale_;
    return std::min(words_, static_cast<std::size_t>(w));
  }

  void build_inbox() {
    std::size_t total = 0;
    for (std::size_t b = 0; b < jobs_; ++b) {
      b_.outboxes[b].base = total;
      for (const SyncChunkOutbox& ob : outboxes()) total += ob.buckets[b].size();
    }
    RISE_CHECK_MSG(total <= UINT32_MAX,
                   "sync engine: more than 2^32 messages in one round");
    if (b_.mail.size() < total) b_.mail.resize(total);
    run_chunks(&SyncRunner::scatter_thunk);
  }

  void scatter_bucket(std::size_t bucket) noexcept {
    // Receivers are scattered across `inbox` and `mail`, so the loops
    // below prefetch kAhead records ahead to overlap the cache misses.
    constexpr std::size_t kAhead = 8;
    const std::span<SyncChunkOutbox> chunks = outboxes();
    for (const SyncChunkOutbox& ob : chunks) {
      const std::vector<NodeId>& to = ob.buckets[bucket].to;
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (i + kAhead < to.size()) __builtin_prefetch(&b_.inbox[to[i + kAhead]], 1);
        ++b_.inbox[to[i]].len;
        mark(to[i]);
      }
    }
    // Each span's begin is first set to its end ...
    auto end = static_cast<std::uint32_t>(chunks[bucket].base);
    for (std::size_t w = word_lo(bucket), hi = word_lo(bucket + 1); w < hi;
         ++w) {
      for (std::uint64_t bits = b_.pending[w]; bits != 0; bits &= bits - 1) {
        InboxSpan& box =
            b_.inbox[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        end += box.len;
        box.begin = end;
      }
    }
    // ... and the back-to-front fill walks it down to the first slot. It
    // pops each record it moves, so the bucket is left empty while its
    // lines are still cached.
    for (std::size_t c = chunks.size(); c-- > 0;) {
      SyncSendBucket& bin = chunks[c].buckets[bucket];
      const std::vector<NodeId>& to = bin.to;
      for (std::size_t i = to.size(); i-- > 0;) {
        if (i >= 2 * kAhead) __builtin_prefetch(&b_.inbox[to[i - 2 * kAhead]], 1);
        if (i >= kAhead) {
          __builtin_prefetch(&b_.mail[b_.inbox[to[i - kAhead]].begin - 1], 1);
        }
        b_.mail[--b_.inbox[to[i]].begin] = std::move(bin.msgs.back());
        bin.msgs.pop_back();
      }
      bin.to.clear();
    }
  }

  Handler& handler_;
  EngineCore& core_;
  SyncRunLimits limits_;
  SyncParallel parallel_;
  std::size_t jobs_;  ///< chunks and scatter buckets per round
  RunWorkspace* workspace_;
  obs::Probe* probe_ = nullptr;
  /// A trace or probe observes each send, so the parallel reduction must
  /// replay them one by one in send order; otherwise it adds up per step.
  bool replay_sends_;

  Time round_ = 0;
  NodeId n_ = 0;
  std::size_t words_ = 0;  ///< bitmap words, ceil(n / 64)
  std::uint64_t bucket_scale_ = 0;
  SyncBuffers b_;
  std::size_t wake_cursor_ = 0;
  /// The current round's slice of the wake schedule, for adversary_woke().
  const std::pair<Time, NodeId>* round_wakes_begin_ = nullptr;
  const std::pair<Time, NodeId>* round_wakes_end_ = nullptr;
  std::size_t naps_in_ring_ = 0;
};

}  // namespace rise::sim::internal
