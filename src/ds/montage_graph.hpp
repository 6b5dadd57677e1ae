// Montage general graph (paper §6.3): vertices and edges are payloads; the
// connectivity structure is entirely transient. To avoid persistent pointer
// chains, edge payloads *name* their endpoint vertices (by id), and vertex
// payloads know nothing about their edges — removing or adding an edge never
// touches a vertex payload.
//
// Concurrency: one lock per vertex slot; edge operations lock both endpoints
// in id order; RemoveVertex snapshots the neighbourhood, locks it in sorted
// order and revalidates (retrying if it changed), so lock acquisition is
// globally ordered and deadlock-free.
//
// Recovery (paper §6.4): vertices are distributed cyclically among threads;
// each thread scans a shard of the recovered blocks and passes edges to
// their endpoint owners through per-thread buffers, after which every thread
// applies its buffers without locks.
#pragma once

#include <algorithm>
#include <cassert>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "montage/recoverable.hpp"
#include "util/padded.hpp"

namespace montage::ds {

template <typename VAttr = uint64_t, typename EAttr = uint64_t>
class MontageGraph : public Recoverable {
 public:
  static constexpr uint32_t kVertexTag = 0x4756;  // 'GV'
  static constexpr uint32_t kEdgeTag = 0x4745;    // 'GE'

  class VertexPayload : public PBlk {
   public:
    VertexPayload() = default;
    VertexPayload(uint64_t id, const VAttr& a) {
      m_id = id;
      m_attr = a;
    }
    GENERATE_FIELD(uint64_t, id, VertexPayload);
    GENERATE_FIELD(VAttr, attr, VertexPayload);
  };

  class EdgePayload : public PBlk {
   public:
    EdgePayload() = default;
    EdgePayload(uint64_t s, uint64_t d, const EAttr& a) {
      m_src = s;
      m_dst = d;
      m_attr = a;
    }
    GENERATE_FIELD(uint64_t, src, EdgePayload);
    GENERATE_FIELD(uint64_t, dst, EdgePayload);
    GENERATE_FIELD(EAttr, attr, EdgePayload);
  };

  MontageGraph(EpochSys* esys, std::size_t capacity)
      : Recoverable(esys), slots_(capacity) {}

  ~MontageGraph() override {
    for (auto& s : slots_) delete s.v;
  }

  std::size_t capacity() const { return slots_.size(); }

  bool add_vertex(uint64_t id, const VAttr& attr = VAttr{}) {
    Slot& s = slot(id);
    std::lock_guard lk(s.m);
    if (s.v != nullptr) return false;
    BEGIN_OP_AUTOEND();
    auto* p = esys_->pnew<VertexPayload>(BlkTag{kVertexTag}, id, attr);
    s.v = new Vertex{p, {}};
    nvertices_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool has_vertex(uint64_t id) {
    Slot& s = slot(id);
    std::lock_guard lk(s.m);
    return s.v != nullptr;
  }

  std::optional<VAttr> vertex_attr(uint64_t id) {
    Slot& s = slot(id);
    std::lock_guard lk(s.m);
    if (s.v == nullptr) return std::nullopt;
    return std::optional<VAttr>(s.v->payload->get_attr());
  }

  /// Update a vertex attribute (may clone the payload across epochs; only
  /// the transient vertex object's pointer needs swinging — edges name
  /// vertices by id, so no other pointer exists; paper §6.3).
  bool set_vertex_attr(uint64_t id, const VAttr& attr) {
    Slot& s = slot(id);
    std::lock_guard lk(s.m);
    if (s.v == nullptr) return false;
    BEGIN_OP_AUTOEND();
    s.v->payload = s.v->payload->set_attr(attr);
    return true;
  }

  /// Update an edge attribute; both adjacency entries swing to the clone.
  bool set_edge_attr(uint64_t a, uint64_t b, const EAttr& attr) {
    if (a == b) return false;
    Slot& sa = slot(a);
    Slot& sb = slot(b);
    std::scoped_lock lk(first_of(a, b).m, second_of(a, b).m);
    if (sa.v == nullptr || sb.v == nullptr) return false;
    auto it = sa.v->adj.find(b);
    if (it == sa.v->adj.end()) return false;
    BEGIN_OP_AUTOEND();
    EdgePayload* updated = it->second->set_attr(attr);
    it->second = updated;
    sb.v->adj[a] = updated;
    return true;
  }

  bool add_edge(uint64_t a, uint64_t b, const EAttr& attr = EAttr{}) {
    if (a == b) return false;
    Slot& sa = slot(a);
    Slot& sb = slot(b);
    std::scoped_lock lk(first_of(a, b).m, second_of(a, b).m);
    if (sa.v == nullptr || sb.v == nullptr) return false;
    if (sa.v->adj.contains(b)) return false;
    BEGIN_OP_AUTOEND();
    auto* p = esys_->pnew<EdgePayload>(BlkTag{kEdgeTag}, a, b, attr);
    sa.v->adj.emplace(b, p);
    sb.v->adj.emplace(a, p);
    nedges_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool remove_edge(uint64_t a, uint64_t b) {
    if (a == b) return false;
    Slot& sa = slot(a);
    Slot& sb = slot(b);
    std::scoped_lock lk(first_of(a, b).m, second_of(a, b).m);
    if (sa.v == nullptr || sb.v == nullptr) return false;
    auto it = sa.v->adj.find(b);
    if (it == sa.v->adj.end()) return false;
    BEGIN_OP_AUTOEND();
    esys_->pdelete(it->second);
    sa.v->adj.erase(it);
    sb.v->adj.erase(a);
    nedges_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  bool has_edge(uint64_t a, uint64_t b) {
    if (a == b) return false;
    std::scoped_lock lk(first_of(a, b).m, second_of(a, b).m);
    Slot& sa = slot(a);
    return sa.v != nullptr && sa.v->adj.contains(b);
  }

  std::optional<EAttr> edge_attr(uint64_t a, uint64_t b) {
    if (a == b) return std::nullopt;
    std::scoped_lock lk(first_of(a, b).m, second_of(a, b).m);
    Slot& sa = slot(a);
    if (sa.v == nullptr) return std::nullopt;
    auto it = sa.v->adj.find(b);
    if (it == sa.v->adj.end()) return std::nullopt;
    return std::optional<EAttr>(it->second->get_attr());
  }

  std::optional<std::size_t> degree(uint64_t id) {
    Slot& s = slot(id);
    std::lock_guard lk(s.m);
    if (s.v == nullptr) return std::nullopt;
    return s.v->adj.size();
  }

  /// Remove a vertex and every adjacent edge. Lock order: snapshot the
  /// neighbourhood, lock {v} ∪ neighbours in ascending id, revalidate.
  bool remove_vertex(uint64_t id) {
    while (true) {
      std::vector<uint64_t> nbrs;
      {
        Slot& s = slot(id);
        std::lock_guard lk(s.m);
        if (s.v == nullptr) return false;
        nbrs.reserve(s.v->adj.size());
        for (auto& [n, e] : s.v->adj) nbrs.push_back(n);
      }
      std::vector<uint64_t> all(nbrs);
      all.push_back(id);
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      std::vector<std::unique_lock<std::mutex>> locks;
      locks.reserve(all.size());
      for (uint64_t x : all) locks.emplace_back(slot(x).m);

      Slot& s = slot(id);
      if (s.v == nullptr) return false;
      std::vector<uint64_t> now;
      now.reserve(s.v->adj.size());
      for (auto& [n, e] : s.v->adj) now.push_back(n);
      std::sort(now.begin(), now.end());
      std::sort(nbrs.begin(), nbrs.end());
      if (now != nbrs) continue;  // neighbourhood changed; retry

      BEGIN_OP_AUTOEND();
      for (auto& [n, e] : s.v->adj) {
        esys_->pdelete(e);
        slot(n).v->adj.erase(id);
        nedges_.fetch_sub(1, std::memory_order_relaxed);
      }
      esys_->pdelete(s.v->payload);
      delete s.v;
      s.v = nullptr;
      nvertices_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }

  std::size_t vertex_count() const {
    return nvertices_.load(std::memory_order_relaxed);
  }
  std::size_t edge_count() const {
    return nedges_.load(std::memory_order_relaxed);
  }

  /// Parallel recovery (paper §6.4): vertices are owned cyclically by
  /// thread (id % nthreads); edges travel via per-thread buffers so the
  /// apply phase needs no locks.
  void recover(const std::vector<PBlk*>& blocks, int nthreads = 1) {
    if (nthreads < 1) nthreads = 1;
    const std::size_t n = blocks.size();
    const std::size_t chunk = (n + nthreads - 1) / nthreads;

    // Phase 1: vertices. Each thread scans its shard and instantiates only
    // the vertices it owns — write conflicts are impossible.
    auto vertex_pass = [&](int t) {
      for (std::size_t i = 0; i < n; ++i) {
        auto* b = blocks[i];
        if (b->blk_tag() != kVertexTag) continue;
        auto* p = static_cast<VertexPayload*>(b);
        const uint64_t id = p->get_unsafe_id();
        if (static_cast<int>(id % nthreads) != t) continue;
        Slot& s = slot(id);
        assert(s.v == nullptr);
        s.v = new Vertex{p, {}};
        nvertices_.fetch_add(1, std::memory_order_relaxed);
      }
    };
    // Phase 2: edges into per-(scanner, owner) buffers.
    struct Hop {
      uint64_t owner_vertex;
      uint64_t other;
      EdgePayload* e;
    };
    std::vector<std::vector<std::vector<Hop>>> buffers(
        nthreads, std::vector<std::vector<Hop>>(nthreads));
    auto edge_pass = [&](int t) {
      const std::size_t lo = std::min(n, t * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        auto* b = blocks[i];
        if (b->blk_tag() != kEdgeTag) continue;
        auto* e = static_cast<EdgePayload*>(b);
        const uint64_t s = e->get_unsafe_src();
        const uint64_t d = e->get_unsafe_dst();
        buffers[t][s % nthreads].push_back({s, d, e});
        buffers[t][d % nthreads].push_back({d, s, e});
      }
    };
    // Phase 3: each owner applies the hops addressed to it, lock-free.
    auto apply_pass = [&](int t) {
      for (int from = 0; from < nthreads; ++from) {
        for (const Hop& h : buffers[from][t]) {
          Slot& s = slot(h.owner_vertex);
          assert(s.v != nullptr && "edge names a missing vertex");
          s.v->adj.emplace(h.other, h.e);
          if (h.owner_vertex < h.other) {
            nedges_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    };

    auto run = [&](auto&& fn) {
      if (nthreads == 1) {
        fn(0);
        return;
      }
      std::vector<std::thread> ts;
      for (int t = 0; t < nthreads; ++t) ts.emplace_back(fn, t);
      for (auto& th : ts) th.join();
    };
    run(vertex_pass);
    run(edge_pass);
    run(apply_pass);
  }

 private:
  struct Vertex {
    VertexPayload* payload;
    std::unordered_map<uint64_t, EdgePayload*> adj;  // neighbour id -> edge
  };
  struct alignas(util::kCacheLineSize) Slot {
    std::mutex m;
    Vertex* v = nullptr;
  };

  Slot& slot(uint64_t id) { return slots_[id % slots_.size()]; }
  Slot& first_of(uint64_t a, uint64_t b) { return slot(std::min(a, b)); }
  Slot& second_of(uint64_t a, uint64_t b) { return slot(std::max(a, b)); }

  std::vector<Slot> slots_;
  std::atomic<std::size_t> nvertices_{0};
  std::atomic<std::size_t> nedges_{0};
};

}  // namespace montage::ds
