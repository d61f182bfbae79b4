// Reusable per-worker run storage.
//
// A campaign runs thousands of engine instances back to back; constructing
// each one from scratch re-allocates the same node-indexed vectors, channel
// tables, event-queue calendar and result buffers every time. A RunWorkspace
// owns that storage between runs: engines constructed with a workspace move
// the vectors in, size them with assign()/resize() (which reuse capacity),
// and move them back out on destruction — so steady-state trials on a fixed
// topology perform near-zero heap allocations outside the algorithm itself.
//
// A workspace is single-threaded state: it must only ever be used by one
// engine at a time, on one thread (the campaign runner keeps one per worker
// thread). Reusing a workspace never changes results — a run with a dirty
// workspace is bit-identical to one with a fresh engine, which
// test_sim_workspace pins across engines, delay bounds and algorithms.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <typeinfo>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::sim {

/// Per-directed-channel state, indexed by Instance::directed_edge_id — a
/// flat array lookup where the engine previously hashed a (from, to) key.
struct ChannelState {
  std::uint64_t msg_index = 0;  // messages sent so far on this channel
  Time last_delivery = 0;       // FIFO clamp
};

/// One recorded sync send: the receiver's port and the header, with the
/// words at word_begin in its bucket's `words`.
struct SyncSend {
  Message msg;
  Port port = kInvalidPort;
  std::uint32_t word_begin = 0;
};

/// The sends of one sync round (or one parallel chunk of it) whose
/// receivers one scatter worker owns, in send order, as parallel arrays:
/// the receivers stay compact for the inbox build's counting pass, and the
/// payload words sit beside the records. The inbox build copies the records
/// into the round's flat, receiver-grouped array and the words, once, into
/// its word array; before that, a traced or probed run's reduction reads
/// them for accounting and tracing. Cache-line aligned, like
/// SyncChunkOutbox: its vectors grow on every send, and chunks' buckets
/// must not share a line.
struct alignas(64) SyncSendBucket {
  std::vector<NodeId> to;
  std::vector<SyncSend> sends;
  std::vector<std::uint64_t> words;

  std::size_t size() const { return to.size(); }

  /// Records a send to port `port` of the receiver; returns where its
  /// msg.size words go (nullptr for none).
  std::uint64_t* add(Port port, const Message& msg) {
    const auto begin = static_cast<std::uint32_t>(words.size());
    sends.push_back({msg, port, begin});
    if (msg.size == 0) return nullptr;
    RISE_CHECK_MSG(std::size_t{begin} + msg.size <= UINT32_MAX,
                   "a sync send bucket holds more than 2^32 - 1 payload words");
    words.resize(begin + msg.size);
    return words.data() + begin;
  }

  std::span<const std::uint64_t> words_of(const SyncSend& send) const {
    return {words.data() + send.word_begin, send.msg.size};
  }

  void clear() {
    to.clear();
    sends.clear();
    words.clear();
  }
};

/// Everything one stepped node did during a sync chunk, in step order. The
/// sequential reduction replays these records to apply metrics, trace
/// events, tick requests, and nap registrations in active-set order.
struct SyncStepRecord {
  NodeId node = 0;
  WakeCause cause = WakeCause::kAdversary;
  bool woke = false;
  bool tick = false;
  bool slept = false;
  Time sleep_target = 0;
  std::uint32_t delivered = 0;  ///< inbox size when stepped
  std::uint32_t sends = 0;      ///< sends this step recorded
  std::uint64_t bits = 0;       ///< logical bits of this step's sends
};

/// Per-chunk output of one sync round (the serial round is one chunk with
/// one bucket). Pooled in RunWorkspace so steady-state rounds allocate
/// nothing: every vector keeps its high-water capacity across rounds and
/// trials, and resets never shrink `buckets`. Cache-line aligned: each
/// chunk's worker bumps its outbox's fields on every send, and adjacent
/// outboxes must not share a line.
struct alignas(64) SyncChunkOutbox {
  /// Sends grouped by scatter bucket (receiver-range owner), append order =
  /// chunk-local send order restricted to that bucket.
  std::vector<SyncSendBucket> buckets;
  /// Chunk-local send order (traced or probed runs only): entry s encodes
  /// (bucket << 40) | index, so the reduction can walk sends in the exact
  /// order they happened while the records live pre-bucketed.
  std::vector<std::uint64_t> order;
  std::vector<SyncStepRecord> steps;
  std::vector<obs::DeferredMark> marks;  ///< deferred probe mutations
  std::uint64_t sends = 0;               ///< == order.size(); mark seq source
  std::exception_ptr error;              ///< first failure in this chunk
  /// First flat-inbox slot and first `mail_words` word of the receivers in
  /// the bucket with this outbox's index (set by the inbox build before its
  /// scatter).
  std::size_t base = 0;
  std::size_t word_base = 0;

  void reset(std::size_t num_buckets) {
    if (buckets.size() < num_buckets) buckets.resize(num_buckets);
    for (auto& b : buckets) b.clear();
    order.clear();
    steps.clear();
    marks.clear();
    sends = 0;
    error = nullptr;
  }
};

/// Where one receiver's messages sit in the round's flat inbox array.
struct InboxSpan {
  std::uint32_t begin = 0;
  std::uint32_t len = 0;
};

/// The synchronous engine's per-run storage; SyncRunner moves it in from
/// the workspace and hands it back, so every vector keeps its capacity.
struct SyncBuffers {
  /// The round each awake node woke in; for a node not yet awake, the
  /// round an adversary wake-up of it last came due (else kNever).
  std::vector<Time> wake_round;
  std::vector<Time> asleep_until;  ///< sleeping model (declared naps)
  /// This round's messages, one contiguous run per receiver; `inbox[u]`
  /// locates node u's run. Slots past the round's total hold stale
  /// messages that the next build overwrites.
  std::vector<Incoming> mail;
  /// This round's payload words, which the messages in `mail` point into.
  std::vector<std::uint64_t> mail_words;
  std::vector<InboxSpan> inbox;
  /// Node bitmap of next round's candidates: receivers, wakes, nap ends
  /// and tick requests set bits; the round start reads it out in id order.
  std::vector<std::uint64_t> pending;
  std::vector<NodeId> active;             ///< per-round active set
  std::vector<SyncChunkOutbox> outboxes;  ///< one per job
  TimingWheel<SyncTimer> timers;  ///< the wake schedule and pending nap ends
};

struct RunWorkspace {
  // EngineCore storage (both engines).
  std::vector<Rng> rngs;
  std::vector<std::uint8_t> awake;
  RunResult result;  ///< recycled result buffers; see recycle_result()

  // Asynchronous engine storage.
  std::vector<ChannelState> channels;
  EventQueue events;

  // Synchronous engine storage.
  SyncBuffers sync;

  // Kernel storage (sim/kernel.hpp): type-tagged slots holding the flat
  // node-state vectors of the most recently run algorithm families, most
  // recent first, so kernel runs reuse their capacity even when a few
  // families alternate on one workspace (a mixed campaign grid, a benchmark
  // rotation). A wrapping kernel (lb::NihKernel) holds a slot of its own
  // next to its inner kernel's, keyed by its own State type. At most
  // kKernelStateSlots are kept; the oldest is dropped.
  struct KernelStateSlot {
    const std::type_info* type = nullptr;
    std::shared_ptr<void> state;
  };
  static constexpr std::size_t kKernelStateSlots = 4;
  std::vector<KernelStateSlot> kernel_states;

  /// Returns a finished run's per-node vectors (wake times, outputs, metrics
  /// counters) to the workspace so the next engine reuses their capacity.
  /// Call after extracting everything you need from the result.
  void recycle_result(RunResult&& finished) { result = std::move(finished); }
};

}  // namespace rise::sim
