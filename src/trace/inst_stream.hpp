// Abstract correct-path instruction supply of one hardware context.
//
// The SMT core addresses instructions by sequence number and re-reads the
// same sequence numbers after a squash, so any implementation must be
// rewind-safe down to the last retirement point: at(seq) for any
// seq >= window_base() must always return the identical instruction. Two
// implementations exist: TraceStream generates on demand (the seed
// behavior), ReplayStream serves a MaterializedTrace buffer shared across
// runs (shared traces). The core cannot tell them apart — that
// indistinguishability is the bitwise-identity contract of sharing.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "trace/instruction.hpp"

namespace dwarn {

class CodeLayout;

/// Rewind-safe, sequence-addressed instruction stream.
class InstStream {
 public:
  virtual ~InstStream() = default;

  /// Instruction at sequence number `seq` (0-based). `seq` must be >= the
  /// lowest retained (uncommitted) sequence; re-reads of retained
  /// sequences return identical instructions.
  virtual const TraceInst& at(InstSeq seq) = 0;

  /// Release instructions with sequence < `seq` (commit point).
  virtual void retire_below(InstSeq seq) = 0;

  /// Static code layout of this context (fetch PCs, line wrapping).
  [[nodiscard]] virtual const CodeLayout& layout() const = 0;

  /// Lowest retained sequence number (test hook).
  [[nodiscard]] virtual InstSeq window_base() const = 0;

  /// Number of retained instructions (test hook).
  [[nodiscard]] virtual std::size_t window_size() const = 0;
};

}  // namespace dwarn
