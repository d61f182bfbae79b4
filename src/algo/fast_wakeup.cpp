#include "algo/fast_wakeup.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Port;

/// Sends to the neighbor `to` names: over a Port, or to a neighbor's ID.
template <class Ctx, class To, class... Words>
void send_to(Ctx& ctx, To to, std::uint32_t type, std::uint64_t bits,
             const Words&... words) {
  if constexpr (std::is_same_v<To, Port>) {
    ctx.send(to, type, bits, words...);
  } else {
    static_assert(std::is_same_v<To, Label>);
    ctx.send_to_label(to, type, bits, words...);
  }
}

/// Sends the label list [root, count, labels...].
template <class Ctx, class To>
void send_labels(Ctx& ctx, To to, std::uint32_t type, Label root,
                 std::span<const Label> labels) {
  send_to(ctx, to, type, 16 + ctx.label_bits() * (1 + labels.size()), root,
          labels.size(), labels);
}

/// A list of labels under a key: a group of a grouped payload, or a held
/// neighbor list under the label of the node it came from.
struct Group {
  Label key;
  std::span<const Label> labels;
  Label via = 0;  ///< a root's level-2 list: the level-1 node it came through
};

/// The body of a grouped payload, (key, count, labels...) per group, as a
/// word source (sim/message.hpp): the engine has it write the words in
/// place.
struct GroupWords {
  std::span<const Group> groups;

  std::size_t size() const {
    std::size_t n = 0;
    for (const Group& g : groups) n += 2 + g.labels.size();
    return n;
  }
  void write(std::uint64_t* out) const {
    for (const Group& g : groups) {
      *out++ = g.key;
      *out++ = g.labels.size();
      out = std::copy(g.labels.begin(), g.labels.end(), out);
    }
  }
};

/// Sends the grouped payload [root, #groups, (key, count, labels...) ...].
template <class Ctx, class To>
void send_groups(Ctx& ctx, To to, std::uint32_t type, Label root,
                 std::span<const Group> groups) {
  const GroupWords body{groups};
  // The root, each key and each listed label count as labels.
  const std::uint64_t label_count = 1 + body.size() - groups.size();
  send_to(ctx, to, type, 16 + ctx.label_bits() * label_count, root,
          groups.size(), body);
}

/// The label list of [root, count, labels...], read in place.
std::span<const Label> parse_labels(const Incoming& in) {
  const std::span<const std::uint64_t> payload = in.words();
  RISE_CHECK(payload.size() >= 2);
  RISE_CHECK(payload.size() - 2 == payload[1]);
  return payload.subspan(2);
}

/// The body of a grouped payload [root, #groups, (key, count, labels...)
/// ...], every group's size checked before any is read.
std::span<const Label> parse_groups(const Incoming& in) {
  const std::span<const std::uint64_t> payload = in.words();
  RISE_CHECK(payload.size() >= 2);
  std::size_t i = 2;
  for (std::uint64_t g = 0; g < payload[1]; ++g) {
    RISE_CHECK(i + 2 <= payload.size());
    const std::uint64_t count = payload[i + 1];
    i += 2;
    RISE_CHECK(count <= payload.size() - i);
    i += count;
  }
  RISE_CHECK(i == payload.size());
  return payload.subspan(2);
}

/// Calls fn(key, labels) for each group of a body from parse_groups.
template <class Fn>
void for_each_group(std::span<const Label> body, Fn&& fn) {
  for (std::size_t i = 0; i < body.size();) {
    const Label key = body[i];
    const auto count = static_cast<std::size_t>(body[i + 1]);
    fn(key, body.subspan(i + 2, count));
    i += 2 + count;
  }
}

/// Per-thread scratch for the root's S2/S3 computations. Chunks of a
/// round-parallel step run nodes on several threads at once, so it is
/// thread_local rather than a kernel member.
struct Scratch {
  /// The "known" label set: label l is in it iff stamp[l] == generation.
  std::vector<std::uint32_t> stamp;
  std::uint32_t generation = 0;

  std::vector<Group> held;    ///< take_held's result
  std::vector<Group> groups;  ///< S3: level-3 labels per level-2 node
  std::vector<Label> l3s;     ///< the labels those groups point into

  /// Empties the known set; labels must lie below `bound`.
  void clear_known(std::uint64_t bound) {
    if (stamp.size() < bound) stamp.resize(bound);
    if (++generation == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      generation = 1;
    }
  }

  /// Adds l to the known set; false if it was already there.
  bool insert(Label l) {
    RISE_CHECK(l < stamp.size());
    if (stamp[l] == generation) return false;
    stamp[l] = generation;
    return true;
  }
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// FastWakeup with each node's state in one Node: a fixed-size Record plus
/// vectors for what varies in size (its level-1 memberships, the neighbor
/// lists it holds, and as a root its S2 assignment), which keep their
/// capacity across runs of a workspace. No node-based containers, and no
/// allocation per message once the vectors are warm. Synchronous engine
/// only.
class FastWakeupKernel {
 public:
  explicit FastWakeupKernel(double root_probability)
      : root_probability_(root_probability) {}

  enum class Status : std::uint8_t {
    kUnwoken,
    kActive,
    kJoined,  ///< woken by joining a tree at level 1/2; never broadcasts
    kDeactivated,
  };

  /// This node is at level 1 of `root`'s tree.
  struct Member {
    Label root;
    Port parent;
    std::uint32_t children = 0;   ///< L2 children assigned by S2
    std::uint32_t collected = 0;  ///< children's neighbor lists received
    bool forwarded = false;
  };

  /// A neighbor list held until its tree step completes: as a root, its
  /// level-1 and level-2 nodes' lists; as a level-1 node, its children's.
  struct HeldList {
    Label tree;  ///< the root label of the tree it belongs to
    Label from;  ///< the node whose neighbors these are
    Label via;   ///< see Group::via
    std::uint32_t begin;
    std::uint32_t size;
  };

  /// The fixed-size part of a node's state.
  struct Record {
    Status status = Status::kUnwoken;
    bool pending_activation = false;
    bool woke_by_message = false;
    bool is_root = false;
    bool broadcasted = false;
    bool member = false;  ///< joined some tree at level 1 or 2
    bool s2_done = false;
    bool s3_done = false;
    std::uint32_t expected_l1 = 0;
    std::uint32_t l1_received = 0;
    std::uint32_t expected_fwd = 0;
    std::uint32_t fwd_received = 0;
    std::uint64_t activation_round = 0;
    std::uint64_t deact_deadline = sim::kNever;
  };

  struct Node : Record {
    std::vector<Member> members;
    std::vector<HeldList> held;
    std::vector<Label> words;  ///< the labels of `held`, back to back
    /// As a root: the S2 assignment, L2 labels grouped by their L1 parent
    /// in L1-label order.
    std::vector<Label> l2s;

    /// Back to the unwoken state, keeping every vector's capacity.
    void reset() {
      static_cast<Record&>(*this) = Record{};
      members.clear();
      held.clear();
      words.clear();
      l2s.clear();
    }
  };
  using Nodes = std::vector<Node>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    nodes_ = &sim::acquire_kernel_state(workspace, own_);
    const std::size_t n = instance.num_nodes();
    if (nodes_->size() < n) nodes_->resize(n);
    for (std::size_t u = 0; u < n; ++u) (*nodes_)[u].reset();
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    Node& self = (*nodes_)[ctx.node()];
    if (cause == sim::WakeCause::kAdversary) {
      self.pending_activation = true;
    } else {
      self.woke_by_message = true;  // classified while processing the inbox
    }
  }

  template <class Ctx>
  void on_message(Ctx&, const Incoming&) {
    RISE_CHECK_MSG(false, "FastWakeup requires the synchronous engine");
  }

  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const Incoming> inbox) {
    Node& self = (*nodes_)[ctx.node()];
    // Deactivation deadlines fire before anything else in a round, so a
    // node deactivated by a completing tree never executes the broadcast
    // step of the same round (Sec. 3.2.1 status updates).
    if (self.deact_deadline != sim::kNever &&
        ctx.local_round() >= self.deact_deadline) {
      self.status = Status::kDeactivated;
    }
    if (self.pending_activation) {
      self.pending_activation = false;
      become_active(ctx, self);
    }

    for (const Incoming& in : inbox) handle(ctx, self, in);
    self.woke_by_message = false;

    if (self.status == Status::kActive) {
      run_active_step(ctx, self);
    }
    if (self.status == Status::kActive ||
        (self.deact_deadline != sim::kNever &&
         self.status != Status::kDeactivated)) {
      ctx.request_tick();
    }
  }

 private:
  template <class Ctx>
  void become_active(Ctx& ctx, Node& self) {
    if (self.status != Status::kUnwoken) return;
    self.status = Status::kActive;
    self.activation_round = ctx.local_round();
    ctx.probe().phase("fw.sample");
    sample(ctx, self);
  }

  template <class Ctx>
  void sample(Ctx& ctx, Node& self) {
    double p = root_probability_;
    if (p < 0.0) {
      const double n = static_cast<double>(ctx.n_upper_bound());
      p = std::sqrt(std::log(n) / n);
    }
    if (ctx.rng().chance(p)) {
      self.is_root = true;
      // Construction takes 9 rounds; deactivate when it completes.
      self.deact_deadline =
          std::min(self.deact_deadline, ctx.local_round() + 9);
      start_tree(ctx, self);
    }
  }

  template <class Ctx>
  void start_tree(Ctx& ctx, Node& self) {
    obs::NodeProbe obs_probe = ctx.probe();
    obs_probe.phase("fw.tree");
    obs_probe.node_class("root");
    obs_probe.count("fw.roots_sampled");
    self.expected_l1 = ctx.degree();
    const Label me = ctx.my_label();
    for (Port p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, kFwInvite1, 16 + ctx.label_bits(), me);
    }
    if (self.expected_l1 == 0) {
      compute_s2(ctx, self);  // degenerate isolated root
    }
  }

  template <class Ctx>
  void handle(Ctx& ctx, Node& self, const Incoming& in) {
    switch (in.msg.type) {
      case kFwInvite1: {
        const Label root = in.words()[0];
        obs::NodeProbe obs_probe = ctx.probe();
        obs_probe.phase("fw.tree");
        obs_probe.node_class("l1");
        obs_probe.count("fw.l1_joins");
        self.members.push_back({root, in.port});
        self.member = true;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/8);
        send_labels(ctx, in.port, kFwNbrList1, root, ctx.neighbor_labels());
        break;
      }
      case kFwNbrList1: {
        hold(self, ctx.my_label(), ctx.neighbor_labels()[in.port],
             parse_labels(in));
        if (++self.l1_received == self.expected_l1 && !self.s2_done) {
          compute_s2(ctx, self);
        }
        break;
      }
      case kFwS2Assign: {
        const Label root = in.words()[0];
        Member& st = member_of(self, root);
        const std::span<const Label> children = parse_labels(in);
        st.children = static_cast<std::uint32_t>(children.size());
        for (Label child : children) {
          ctx.send_to_label(child, kFwInvite2, 16 + ctx.label_bits(), root);
        }
        break;
      }
      case kFwInvite2: {
        const Label root = in.words()[0];
        obs::NodeProbe obs_probe = ctx.probe();
        obs_probe.phase("fw.tree");
        obs_probe.node_class("l2");
        obs_probe.count("fw.l2_joins");
        self.member = true;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/5);
        send_labels(ctx, in.port, kFwNbrList2, root, ctx.neighbor_labels());
        break;
      }
      case kFwNbrList2: {
        const Label root = in.words()[0];
        const Label child = ctx.neighbor_labels()[in.port];
        const std::span<const Label> list = parse_labels(in);
        hold(self, root, child, list);
        Member& st = member_of(self, root);
        if (!st.forwarded && ++st.collected == st.children) {
          st.forwarded = true;
          forward_lists(ctx, self, st);
        }
        break;
      }
      case kFwFwdLists: {
        const Label me = ctx.my_label();
        const Label l1 = ctx.neighbor_labels()[in.port];
        for_each_group(parse_groups(in),
                       [&](Label l2, std::span<const Label> list) {
                         hold(self, me, l2, list, l1);
                       });
        ++self.fwd_received;
        if (self.fwd_received == self.expected_fwd && !self.s3_done) {
          compute_s3(ctx, self);
        }
        break;
      }
      case kFwS3ToL1: {
        const Label root = in.words()[0];
        for_each_group(parse_groups(in),
                       [&](Label l2, std::span<const Label> l3_children) {
                         send_labels(ctx, l2, kFwS3ToL2, root, l3_children);
                       });
        break;
      }
      case kFwS3ToL2: {
        const Label root = in.words()[0];
        for (Label l3 : parse_labels(in)) {
          ctx.send_to_label(l3, kFwInvite3, 16 + ctx.label_bits(), root);
        }
        break;
      }
      case kFwInvite3:
      case kFwActivate: {
        if (in.msg.type == kFwInvite3) ctx.probe().count("fw.l3_invites");
        // A sleeping node joining at level 3, or receiving <activate!>,
        // becomes active (Sec. 3.2.1 status updates).
        if (self.woke_by_message && self.status == Status::kUnwoken) {
          become_active(ctx, self);
        }
        break;
      }
      default:
        RISE_CHECK_MSG(false, "FastWakeup: unknown message type "
                                  << in.msg.type);
    }
    // A node woken this round that only joined trees (level 1/2) ends up
    // Joined: awake, silent, deactivating at tree completion.
    if (self.woke_by_message && self.status == Status::kUnwoken &&
        self.member) {
      self.status = Status::kJoined;
    }
  }

  template <class Ctx>
  void schedule_tree_deactivation(Ctx& ctx, Node& self,
                                  std::uint64_t rounds_to_completion) {
    self.deact_deadline = std::min(self.deact_deadline,
                                   ctx.local_round() + rounds_to_completion);
  }

  static Member& member_of(Node& self, Label root) {
    const auto it =
        std::find_if(self.members.begin(), self.members.end(),
                     [root](const Member& m) { return m.root == root; });
    RISE_CHECK_MSG(it != self.members.end(),
                   "FastWakeup: no level-1 membership in the tree of "
                       << root);
    return *it;
  }

  static void hold(Node& self, Label tree, Label from,
                   std::span<const Label> labels, Label via = 0) {
    self.held.push_back({tree, from, via,
                         static_cast<std::uint32_t>(self.words.size()),
                         static_cast<std::uint32_t>(labels.size())});
    self.words.insert(self.words.end(), labels.begin(), labels.end());
  }

  /// Moves the lists held for `tree` into scratch().held, sorted by the
  /// label of the node they came from (the order a std::map keyed by that
  /// label iterated in), and drops them from the node. The spans point
  /// into self.words, which stays untouched until the next hold().
  static std::vector<Group>& take_held(Node& self, Label tree) {
    std::vector<Group>& out = scratch().held;
    out.clear();
    for (const HeldList& h : self.held) {
      if (h.tree != tree) continue;
      out.push_back(
          {h.from, std::span<const Label>(self.words).subspan(h.begin, h.size),
           h.via});
    }
    std::sort(out.begin(), out.end(), [](const Group& a, const Group& b) {
      return a.key < b.key;
    });
    std::erase_if(self.held,
                  [tree](const HeldList& h) { return h.tree == tree; });
    return out;
  }

  /// Level 1 to the root: every child's neighbor list, grouped under the
  /// child's label in label order.
  template <class Ctx>
  void forward_lists(Ctx& ctx, Node& self, const Member& st) {
    send_groups(ctx, st.parent, kFwFwdLists, st.root,
                take_held(self, st.root));
    if (self.held.empty()) self.words.clear();
  }

  /// Marks the root, its neighbors and (with_l2) its S2 assignment known.
  template <class Ctx>
  static Scratch& known_around_root(Ctx& ctx, const Node& self, bool with_l2) {
    Scratch& s = scratch();
    s.clear_known(ctx.n_upper_bound());
    s.insert(ctx.my_label());
    for (Label l : ctx.neighbor_labels()) s.insert(l);
    if (with_l2) {
      for (Label l : self.l2s) s.insert(l);
    }
    return s;
  }

  template <class Ctx>
  void compute_s2(Ctx& ctx, Node& self) {
    self.s2_done = true;
    Scratch& s = known_around_root(ctx, self, /*with_l2=*/false);
    // Assign each level-2 candidate to its smallest-ID level-1 neighbor,
    // and distribute S2 to all level-1 nodes (empty lists included: the
    // paper's root "sends it to its neighbors").
    for (const Group& l1 : take_held(self, ctx.my_label())) {
      const std::size_t first = self.l2s.size();
      for (Label w : l1.labels) {
        if (s.insert(w)) self.l2s.push_back(w);
      }
      if (self.l2s.size() > first) ++self.expected_fwd;
      const auto children = std::span<const Label>(self.l2s).subspan(first);
      send_labels(ctx, l1.key, kFwS2Assign, ctx.my_label(), children);
    }
    if (self.held.empty()) self.words.clear();
    if (self.expected_fwd == 0) compute_s3(ctx, self);
  }

  template <class Ctx>
  void compute_s3(Ctx& ctx, Node& self) {
    self.s3_done = true;
    Scratch& s = known_around_root(ctx, self, /*with_l2=*/true);
    // Each new level-3 label goes to the first level-2 node, in label
    // order, that lists it. l3s gets room for every listed label first, so
    // the groups' spans into it stay valid while it fills.
    const std::vector<Group>& l2_lists = take_held(self, ctx.my_label());
    std::size_t listed = 0;
    for (const Group& l2 : l2_lists) listed += l2.labels.size();
    s.l3s.clear();
    s.l3s.reserve(listed);
    s.groups.clear();
    for (const Group& l2 : l2_lists) {
      const std::size_t first = s.l3s.size();
      for (Label w : l2.labels) {
        if (s.insert(w)) s.l3s.push_back(w);
      }
      if (s.l3s.size() > first) {
        s.groups.push_back(
            {l2.key, std::span<const Label>(s.l3s).subspan(first), l2.via});
      }
    }
    if (self.held.empty()) self.words.clear();
    // One message per level-1 node (in label order), with its level-2
    // children's groups in label order.
    std::sort(s.groups.begin(), s.groups.end(),
              [](const Group& a, const Group& b) {
                return a.via != b.via ? a.via < b.via : a.key < b.key;
              });
    const std::span<const Group> groups(s.groups);
    for (std::size_t i = 0; i < groups.size();) {
      std::size_t end = i + 1;
      while (end < groups.size() && groups[end].via == groups[i].via) ++end;
      send_groups(ctx, groups[i].via, kFwS3ToL1, ctx.my_label(),
                  groups.subspan(i, end - i));
      i = end;
    }
  }

  template <class Ctx>
  void run_active_step(Ctx& ctx, Node& self) {
    const std::uint64_t active_round =
        ctx.local_round() - self.activation_round + 1;
    if (!self.is_root && active_round == 10 && !self.broadcasted) {
      self.broadcasted = true;
      obs::NodeProbe obs_probe = ctx.probe();
      obs_probe.phase("fw.activate");
      obs_probe.count("fw.activate_broadcasts");
      ctx.broadcast(kFwActivate, 8);
      self.deact_deadline =
          std::min(self.deact_deadline, ctx.local_round() + 1);
    }
  }

  double root_probability_;
  Nodes own_;
  Nodes* nodes_ = nullptr;
};

}  // namespace

sim::KernelRunner fast_wakeup_kernel(double root_probability) {
  return sim::make_kernel(FastWakeupKernel(root_probability));
}

}  // namespace rise::algo
