// PC-indexed cache-miss predictor.
//
// Used by the FETCH-detection-moment policies: PDG predicts L1 data misses
// at fetch, DC-PRED predicts L2 misses at fetch. A table of 2-bit
// saturating counters indexed by the load PC, trained with the load's
// actual outcome when it completes. Shared across contexts (aliasing
// included), like the other front-end predictors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dwarn {

/// 2-bit-counter miss predictor.
class MissPredictor {
 public:
  explicit MissPredictor(std::size_t entries = 4096)
      : table_(entries, 0), mask_(entries - 1) {
    DWARN_CHECK(entries != 0 && (entries & (entries - 1)) == 0);
  }

  /// Predict whether the load at `pc` will miss.
  [[nodiscard]] bool predict_miss(Addr pc) const { return table_[index(pc)] >= 2; }

  /// Train with the load's resolved outcome.
  void train(Addr pc, bool missed) {
    std::uint8_t& c = table_[index(pc)];
    if (missed) {
      if (c < 3) ++c;
    } else {
      if (c > 0) --c;
    }
  }

 private:
  [[nodiscard]] std::size_t index(Addr pc) const {
    return static_cast<std::size_t>((pc >> 2) & mask_);
  }
  std::vector<std::uint8_t> table_;
  std::uint64_t mask_;
};

}  // namespace dwarn
