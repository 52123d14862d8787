#include "pdw/versioned_lru.h"

#include "common/string_util.h"

namespace pdw {

uint64_t TableVersionTracker::Version(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(ToLower(table));
  return it == versions_.end() ? 0 : it->second;
}

void TableVersionTracker::Bump(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  ++versions_[ToLower(table)];
}

bool TableVersionTracker::IsCurrent(
    const std::vector<std::pair<std::string, uint64_t>>& versions) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [table, version] : versions) {
    auto it = versions_.find(table);
    uint64_t current = it == versions_.end() ? 0 : it->second;
    if (current != version) return false;
  }
  return true;
}

}  // namespace pdw
