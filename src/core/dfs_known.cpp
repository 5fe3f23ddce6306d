#include "core/dfs_known.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "sim/soa_engine.h"
#include "util/assert.h"

namespace radiocast {

namespace {

constexpr message_kind kAnnounce = 1;  // "I have just been visited"
constexpr message_kind kToken = 2;     // a = receiving node's label

// The DFS baseline's traits (sim/soa_engine.h). The known neighbor lists
// are shared configuration; which of its own neighbors a node has seen
// visited is a per-run table on the traits object, indexed by the same
// CSR slots (so Traits::state stays POD). on_step only reads the table;
// on_receive, init and on_restart write it.
struct dfs_known_soa_traits {
  const std::vector<std::size_t>* row = nullptr;  // shared config
  const std::vector<node_id>* adj = nullptr;      // (set by bind)
  std::vector<std::uint8_t> unvisited;  // per CSR slot; sized by bind

  struct state {
    node_id label = 0;
    node_id parent = -1;
    std::int64_t pending_announce = -1;
    std::int64_t act_at = -1;
    bool informed = false;
    bool visited = false;
    bool holder = false;
    bool halted = false;
  };

  void init(state* s, node_id label) {
    *s = state{};
    s->label = label;
    s->informed = s->visited = (label == 0);
    const auto v = static_cast<std::size_t>(label);
    RC_REQUIRE_MSG(v + 1 < row->size(),
                   "dfs-known labels must be nodes of the protocol's graph");
    std::fill(unvisited.begin() + static_cast<std::ptrdiff_t>((*row)[v]),
              unvisited.begin() + static_cast<std::ptrdiff_t>((*row)[v + 1]),
              std::uint8_t{1});
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (s->label == 0 && ctx.step == 0) {
      // The source opens with its announcement and becomes the holder.
      s->holder = true;
      s->act_at = 1;
      return message{kAnnounce, 0, 0, 0, 0, 0};
    }
    if (s->pending_announce == ctx.step) {
      s->pending_announce = -1;
      s->holder = true;
      s->act_at = ctx.step + 1;
      return message{kAnnounce, s->label, 0, 0, 0, 0};
    }
    if (s->holder && s->act_at == ctx.step) {
      s->holder = false;
      const node_id next = lowest_unvisited(s->label);
      if (next >= 0) {
        return message{kToken, s->label, next, 0, 0, 0};
      }
      s->halted = true;
      if (s->label == 0) return std::nullopt;  // traversal complete
      return message{kToken, s->label, s->parent, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx, const message& msg) {
    s->informed = true;
    switch (msg.kind) {
      case kAnnounce:
        mark_visited(s->label, msg.from);
        break;
      case kToken:
        mark_visited(s->label, msg.from);  // the sender was visited
        if (static_cast<node_id>(msg.a) != s->label) break;
        if (!s->visited) {
          s->visited = true;
          s->parent = msg.from;
          s->pending_announce = ctx.step + 1;  // announce, then act
        } else {
          s->holder = true;  // a child returned the token
          s->act_at = ctx.step + 1;
        }
        break;
      default:
        break;
    }
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state& s) const { return s.halted; }

  // Amnesia reboot: the neighbor lists are configuration (known topology);
  // the visitation record and token state are volatile.
  void on_restart(state* s, const node_context&) { init(s, s->label); }

 private:
  void mark_visited(node_id self, node_id who) {
    const auto v = static_cast<std::size_t>(self);
    const auto first = adj->begin() + static_cast<std::ptrdiff_t>((*row)[v]);
    const auto last =
        adj->begin() + static_cast<std::ptrdiff_t>((*row)[v + 1]);
    const auto it = std::lower_bound(first, last, who);
    if (it != last && *it == who) {
      unvisited[static_cast<std::size_t>(it - adj->begin())] = 0;
    }
  }

  node_id lowest_unvisited(node_id self) const {
    const auto v = static_cast<std::size_t>(self);
    for (std::size_t i = (*row)[v]; i < (*row)[v + 1]; ++i) {
      if (unvisited[i] != 0) return (*adj)[i];
    }
    return -1;
  }
};

}  // namespace

dfs_known_protocol::dfs_known_protocol(const graph& g) {
  RC_REQUIRE_MSG(!g.is_directed(),
                 "the DFS baseline runs on undirected networks");
  row_.reserve(static_cast<std::size_t>(g.node_count()) + 1);
  row_.push_back(0);
  for (node_id v = 0; v < g.node_count(); ++v) {
    const auto nbrs = g.out_neighbors(v);
    adj_.insert(adj_.end(), nbrs.begin(), nbrs.end());
    std::sort(adj_.end() - static_cast<std::ptrdiff_t>(nbrs.size()),
              adj_.end());
    row_.push_back(adj_.size());
  }
}

std::unique_ptr<const bound_protocol> dfs_known_protocol::bind(
    node_id r) const {
  dfs_known_soa_traits traits;
  traits.row = &row_;
  traits.adj = &adj_;
  traits.unvisited.assign(adj_.size(), 1);
  return bind_traits(std::move(traits), r);
}

}  // namespace radiocast
