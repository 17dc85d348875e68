#include "cache/coop_cache.hpp"

#include <algorithm>
#include <string>

#include "trace/trace.hpp"

namespace dcs::cache {

namespace {
constexpr std::size_t kDirEntryBytes = 64;  // directory record on the wire

struct CoopMetrics {
  trace::Counter& local_hits = reg().counter("cache.coop.local_hits");
  trace::Counter& remote_hits = reg().counter("cache.coop.remote_hits");
  trace::Counter& misses = reg().counter("cache.coop.misses");
  trace::Counter& evictions = reg().counter("cache.coop.evictions");
  trace::Distribution& serve_latency =
      reg().distribution("cache.coop.serve_latency_ns");

  static trace::Registry& reg() { return trace::Registry::global(); }
};

CoopMetrics& metrics() { return trace::context_metrics<CoopMetrics>(); }
}  // namespace

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kAC: return "AC";
    case Scheme::kBCC: return "BCC";
    case Scheme::kCCWR: return "CCWR";
    case Scheme::kMTACC: return "MTACC";
    case Scheme::kHYBCC: return "HYBCC";
  }
  return "?";
}

CoopCacheService::CoopCacheService(verbs::Network& net,
                                   datacenter::BackendService& backend,
                                   const datacenter::DocumentStore& store,
                                   Scheme scheme, std::vector<NodeId> proxies,
                                   std::vector<NodeId> donor_nodes,
                                   CacheConfig config)
    : net_(net),
      backend_(backend),
      store_(store),
      scheme_(scheme),
      proxies_(std::move(proxies)),
      config_(config) {
  DCS_CHECK(!proxies_.empty());
  caching_nodes_ = proxies_;
  if (scheme_ == Scheme::kMTACC) {
    caching_nodes_.insert(caching_nodes_.end(), donor_nodes.begin(),
                          donor_nodes.end());
  }
  for (const NodeId n : caching_nodes_) {
    stores_.emplace(n, std::make_unique<LruStore>(config_.capacity_per_node));
  }
}

std::size_t CoopCacheService::aggregate_capacity() const {
  return caching_nodes_.size() * config_.capacity_per_node;
}

std::size_t CoopCacheService::cached_bytes(NodeId node) const {
  const auto it = stores_.find(node);
  return it != stores_.end() ? it->second->bytes_used() : 0;
}

std::string CoopCacheService::audit() const {
  // Directory entries must point at real copies.
  for (const auto& [doc, holders] : directory_) {
    for (const NodeId holder : holders) {
      const auto it = stores_.find(holder);
      if (it == stores_.end() || !it->second->contains(doc)) {
        return "directory names node " + std::to_string(holder) +
               " for doc " + std::to_string(doc) + " but it holds no copy";
      }
    }
    if ((scheme_ == Scheme::kCCWR || scheme_ == Scheme::kMTACC) &&
        holders.size() > 1) {
      return "doc " + std::to_string(doc) + " has " +
             std::to_string(holders.size()) + " copies under " +
             to_string(scheme_);
    }
  }
  // Byte accounting: the directory may legitimately under-advertise (a
  // copy stored while its directory home was unreachable), but must never
  // claim more bytes than the stores actually hold.
  if (scheme_ != Scheme::kAC) {
    std::size_t dir_bytes = 0;
    for (const auto& [doc, holders] : directory_) {
      dir_bytes += holders.size() * store_.doc_bytes(doc);
    }
    std::size_t cached = 0;
    for (const auto& [node, store] : stores_) cached += store->bytes_used();
    if (dir_bytes > cached) {
      return "directory accounts " + std::to_string(dir_bytes) +
             " bytes but stores hold only " + std::to_string(cached);
    }
  }
  return {};
}

void CoopCacheService::drop_node_cache(NodeId node) {
  const auto it = stores_.find(node);
  if (it == stores_.end()) return;
  // Remove the node from every directory entry, then empty its store.
  for (auto dir_it = directory_.begin(); dir_it != directory_.end();) {
    std::erase(dir_it->second, node);
    dir_it = dir_it->second.empty() ? directory_.erase(dir_it)
                                    : std::next(dir_it);
  }
  *it->second = LruStore(config_.capacity_per_node);
}

datacenter::DocHandler CoopCacheService::handler() {
  return [this](NodeId proxy, DocId id) { return serve(proxy, id); };
}

// --- directory ---

sim::Task<std::vector<NodeId>> CoopCacheService::dir_lookup(NodeId from,
                                                            DocId id) {
  const NodeId home = directory_home(id);
  if (home != from) {
    try {
      co_await net_.hca(from).raw_read(home, kDirEntryBytes);
    } catch (const verbs::RemoteTimeoutError&) {
      // Directory home down: its copies are gone too; act on what remains.
      drop_node_cache(home);
      co_return std::vector<NodeId>{};
    }
  }
  const auto it = directory_.find(id);
  co_return it != directory_.end() ? it->second : std::vector<NodeId>{};
}

sim::Task<void> CoopCacheService::dir_add(NodeId from, DocId id,
                                          NodeId holder) {
  const NodeId home = directory_home(id);
  if (home != from) {
    try {
      co_await net_.hca(from).raw_write(home, kDirEntryBytes);
    } catch (const verbs::RemoteTimeoutError&) {
      // Soft state: the entry is recreated by later traffic once the home
      // recovers; meanwhile the copy is simply not advertised.
      co_return;
    }
  }
  auto& holders = directory_[id];
  if (std::find(holders.begin(), holders.end(), holder) == holders.end()) {
    holders.push_back(holder);
  }
}

sim::Task<void> CoopCacheService::dir_remove(NodeId from, DocId id,
                                             NodeId holder) {
  const NodeId home = directory_home(id);
  if (home != from) {
    try {
      co_await net_.hca(from).raw_write(home, kDirEntryBytes);
    } catch (const verbs::RemoteTimeoutError&) {
      // Fall through: still fix the local view so audits stay clean.
    }
  }
  auto it = directory_.find(id);
  if (it == directory_.end()) co_return;
  std::erase(it->second, holder);
  if (it->second.empty()) directory_.erase(it);
}

// --- data movement ---

sim::Task<Body> CoopCacheService::remote_fetch(NodeId proxy, NodeId holder,
                                               DocId id) {
  // Control handshake (locate the buffer) + RDMA read of the body.  The
  // holder's CPU stays out of the data path.
  const Body body = store_of(holder).get(id);
  if (body == nullptr) co_return nullptr;  // raced with eviction
  try {
    co_await net_.hca(proxy).raw_read(holder, body->size() + kDirEntryBytes);
  } catch (const verbs::RemoteTimeoutError&) {
    // Holder is down: its cached copies are gone; repair the soft state so
    // later lookups stop pointing at it.
    drop_node_cache(holder);
    co_return nullptr;
  }
  // Re-check: the copy may have been evicted while the read was in flight
  // (another proxy inserting into the holder's LRU).
  co_return store_of(holder).get(id);
}

sim::Task<void> CoopCacheService::insert_with_directory(NodeId actor,
                                                        NodeId node, DocId id,
                                                        Body body) {
  std::vector<DocId> evicted;
  const bool cached = store_of(node).insert(
      id, std::move(body),
      [&evicted](DocId victim) { evicted.push_back(victim); });
  if (!evicted.empty()) {
    metrics().evictions.add(evicted.size());
    DCS_TRACE_INSTANT("cache", "evict", node, evicted.size(),
                      to_string(scheme_));
  }
  // A body too large for the node's cache is not held there, so the
  // directory must not name the node for it.
  if (cached) co_await dir_add(actor, id, node);
  for (const DocId victim : evicted) {
    co_await dir_remove(actor, victim, node);
  }
}

// --- schemes ---

sim::Task<std::vector<std::byte>> CoopCacheService::serve(NodeId proxy,
                                                          DocId id) {
  DCS_TRACE_SPAN("cache", "serve", proxy, id, to_string(scheme_));
  const SimNanos t0 = net_.fabric().engine().now();
  co_await net_.fabric().node(proxy).execute(config_.local_lookup_cpu);
  std::vector<std::byte> result;
  switch (scheme_) {
    case Scheme::kAC:
      result = co_await serve_ac(proxy, id);
      break;
    case Scheme::kBCC:
      result = co_await serve_bcc(proxy, id);
      break;
    case Scheme::kCCWR:
    case Scheme::kMTACC:
      result = co_await serve_ccwr(proxy, id);
      break;
    case Scheme::kHYBCC:
      if (store_.doc_bytes(id) <= config_.hybrid_small_threshold) {
        result = co_await serve_bcc(proxy, id);
      } else {
        result = co_await serve_ccwr(proxy, id);
      }
      break;
  }
  metrics().serve_latency.record_ns(net_.fabric().engine().now() - t0);
  co_return result;
}

sim::Task<std::vector<std::byte>> CoopCacheService::serve_ac(NodeId proxy,
                                                             DocId id) {
  if (const Body body = store_of(proxy).get(id)) {
    ++stats_.local_hits;
    metrics().local_hits.add();
    co_return *body;
  }
  ++stats_.misses;
  metrics().misses.add();
  const Body body = make_body(co_await backend_.fetch(proxy, id));
  (void)store_of(proxy).insert(id, body, [](DocId) {});  // AC: no directory
  co_return *body;
}

sim::Task<std::vector<std::byte>> CoopCacheService::serve_bcc(NodeId proxy,
                                                              DocId id) {
  if (const Body body = store_of(proxy).get(id)) {
    ++stats_.local_hits;
    metrics().local_hits.add();
    co_return *body;
  }
  const auto holders = co_await dir_lookup(proxy, id);
  for (const NodeId holder : holders) {
    if (holder == proxy) continue;
    const Body body = co_await remote_fetch(proxy, holder, id);
    if (body != nullptr) {
      ++stats_.remote_hits;
      metrics().remote_hits.add();
      // Duplicate locally for future requests (BCC's defining behaviour);
      // the local copy shares the holder's buffer.
      co_await insert_with_directory(proxy, proxy, id, body);
      co_return *body;
    }
  }
  ++stats_.misses;
  metrics().misses.add();
  const Body body = make_body(co_await backend_.fetch(proxy, id));
  co_await insert_with_directory(proxy, proxy, id, body);
  co_return *body;
}

sim::Task<std::vector<std::byte>> CoopCacheService::serve_ccwr(NodeId proxy,
                                                               DocId id) {
  // Single cluster-wide copy on the hash-designated node.
  const NodeId designated = directory_home(id);
  if (designated == proxy) {
    if (const Body body = store_of(proxy).get(id)) {
      ++stats_.local_hits;
      metrics().local_hits.add();
      co_return *body;
    }
  } else {
    const Body body = co_await remote_fetch(proxy, designated, id);
    if (body != nullptr) {
      ++stats_.remote_hits;
      metrics().remote_hits.add();
      co_return *body;  // no local duplicate
    }
  }
  ++stats_.misses;
  metrics().misses.add();
  const Body body = make_body(co_await backend_.fetch(proxy, id));
  if (designated == proxy) {
    co_await insert_with_directory(proxy, proxy, id, body);
  } else {
    // Push the single copy to its designated home over RDMA.  If the home
    // is down, serve without caching; the copy lands once it recovers.
    try {
      co_await net_.hca(proxy).raw_write(designated,
                                         body->size() + kDirEntryBytes);
      co_await insert_with_directory(proxy, designated, id, body);
    } catch (const verbs::RemoteTimeoutError&) {
    }
  }
  co_return *body;
}

}  // namespace dcs::cache
