#include "policy/fetch_policy.hpp"

#include <array>

#include "common/check.hpp"

namespace dwarn {

void FetchPolicy::sort_by_icount(std::vector<ThreadId>& tids) const {
  // Stable insertion sort over at most kMaxThreads ids; unlike
  // std::stable_sort it needs no temporary buffer, so the every-cycle
  // call does not allocate.
  DWARN_CHECK(tids.size() <= kMaxThreads);
  std::array<unsigned, kMaxThreads> key{};
  for (std::size_t i = 0; i < tids.size(); ++i) {
    const ThreadId t = tids[i];
    const unsigned k = host_.icount(t);
    std::size_t j = i;
    for (; j > 0 && key[j - 1] > k; --j) {
      tids[j] = tids[j - 1];
      key[j] = key[j - 1];
    }
    tids[j] = t;
    key[j] = k;
  }
}

}  // namespace dwarn
