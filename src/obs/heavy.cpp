#include "obs/heavy.hpp"

#include <algorithm>
#include <ostream>

namespace dcs::obs {

HeavyHitters::HeavyHitters(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void HeavyHitters::record_hot(const char* domain, std::uint64_t key,
                              std::uint64_t weight) {
  if (weight == 0) return;
  auto it = domains_.find(std::string_view(domain));
  if (it == domains_.end()) {
    it = domains_.emplace(std::string(domain), Sketch{}).first;
  }
  Sketch& sketch = it->second;
  sketch.total += weight;
  offer(sketch, key, weight, 0);
}

void HeavyHitters::offer(Sketch& sketch, std::uint64_t key,
                         std::uint64_t count, std::uint64_t error) {
  auto it = sketch.entries.find(key);
  if (it != sketch.entries.end()) {
    it->second.count += count;
    it->second.error += error;
    return;
  }
  if (sketch.entries.size() < capacity_) {
    sketch.entries.emplace(key, HotEntry{key, count, error});
    return;
  }
  // Space-saving eviction: the newcomer replaces the minimum entry and
  // inherits its count as over-count error.  Ties break on key asc, which
  // the ascending map scan yields for free.
  auto victim = sketch.entries.begin();
  for (auto cand = sketch.entries.begin(); cand != sketch.entries.end();
       ++cand) {
    if (cand->second.count < victim->second.count) victim = cand;
  }
  const std::uint64_t inherited = victim->second.count;
  sketch.entries.erase(victim);
  sketch.entries.emplace(
      key, HotEntry{key, inherited + count, inherited + error});
}

std::vector<HotEntry> HeavyHitters::top(std::string_view domain,
                                        std::size_t n) const {
  std::vector<HotEntry> out;
  auto it = domains_.find(domain);
  if (it == domains_.end()) return out;
  out.reserve(it->second.entries.size());
  for (const auto& [key, entry] : it->second.entries) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const HotEntry& a, const HotEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::uint64_t HeavyHitters::total(std::string_view domain) const {
  auto it = domains_.find(domain);
  return it == domains_.end() ? 0 : it->second.total;
}

std::vector<std::string> HeavyHitters::domains() const {
  std::vector<std::string> out;
  out.reserve(domains_.size());
  for (const auto& [name, sketch] : domains_) out.push_back(name);
  return out;
}

void HeavyHitters::merge(const HeavyHitters& other) {
  for (const auto& [name, theirs] : other.domains_) {
    auto it = domains_.find(name);
    if (it == domains_.end()) {
      it = domains_.emplace(name, Sketch{}).first;
    }
    Sketch& mine = it->second;
    mine.total += theirs.total;
    // Existing keys absorb their counterpart's count/error exactly; only
    // genuinely new keys can trigger eviction, in ascending key order.
    for (const auto& [key, entry] : theirs.entries) {
      offer(mine, key, entry.count, entry.error);
    }
  }
}

void write_hotset_section(std::ostream& os, const HeavyHitters& hh) {
  os << "{\n";
  os << "    \"capacity\": " << hh.capacity() << ",\n";
  os << "    \"domains\": [";
  bool first_domain = true;
  for (const std::string& name : hh.domains()) {
    os << (first_domain ? "\n" : ",\n");
    first_domain = false;
    os << "      {\n";
    os << "        \"domain\": \"" << name << "\",\n";
    os << "        \"total\": " << hh.total(name) << ",\n";
    os << "        \"entries\": [";
    bool first_entry = true;
    for (const HotEntry& e : hh.top(name, hh.capacity())) {
      os << (first_entry ? "\n" : ",\n");
      first_entry = false;
      os << "          { \"key\": " << e.key << ", \"count\": " << e.count
         << ", \"error\": " << e.error << " }";
    }
    os << (first_entry ? "]\n" : "\n        ]\n");
    os << "      }";
  }
  os << (first_domain ? "]\n" : "\n    ]\n");
  os << "  }";
}

}  // namespace dcs::obs
