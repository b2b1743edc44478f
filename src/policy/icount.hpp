// ICOUNT (Tullsen et al., ISCA'96): prioritize threads with the fewest
// instructions in the pre-issue stages. The baseline every other policy in
// the paper builds on; it has no notion of cache misses, which is exactly
// the weakness the paper exploits.
#pragma once

#include <algorithm>

#include "policy/fetch_policy.hpp"

namespace dwarn {

/// Pure ICOUNT priority; no gating of any kind.
class ICountPolicy final : public FetchPolicy {
 public:
  using FetchPolicy::FetchPolicy;

  [[nodiscard]] std::string_view name() const override { return "ICOUNT"; }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    out.assign(candidates.begin(), candidates.end());
    sort_by_icount(out);
  }
};

/// Round-robin fetch: the pre-ICOUNT strawman, kept as a reference
/// comparator and for differential testing.
class RoundRobinPolicy final : public FetchPolicy {
 public:
  using FetchPolicy::FetchPolicy;

  [[nodiscard]] std::string_view name() const override { return "RR"; }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    if (candidates.empty()) return;
    out.assign(candidates.begin(), candidates.end());
    const std::size_t shift = rotation_++ % out.size();
    std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(shift), out.end());
  }

 private:
  std::size_t rotation_ = 0;
};

}  // namespace dwarn
