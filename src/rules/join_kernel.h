#ifndef OOINT_RULES_JOIN_KERNEL_H_
#define OOINT_RULES_JOIN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rules/columnar.h"
#include "rules/matcher.h"

namespace ooint {

/// Counters the batch join kernels tick; merged into Evaluator::Stats
/// (and surfaced through Explain) by the callers.
struct JoinKernelStats {
  /// Linear-merge element comparisons, plus bitmap set/test operations
  /// on the dense fallback path.
  size_t merge_steps = 0;
  /// Galloping-search hops: exponential probes and binary-search
  /// bisections on the skewed-cardinality path.
  size_t gallop_steps = 0;
  /// Postings decoded off PostingsCursors (cursor advance steps) —
  /// distinct from index_probes, which counts index *lookups*.
  size_t cursor_steps = 0;
};

/// Reusable join scratch: one per fixpoint driver (evaluator,
/// incremental engine, query). Holds the
/// per-recursion-depth candidate vectors SolveBody materializes into and
/// its per-depth match frames — so a rule with a k-literal body costs k
/// vector allocations per *driver*, not per solution row — plus the run
/// buffers the kernels intersect in. Not thread-safe; each concurrent
/// driver owns its own.
class JoinScratch {
 public:
  /// Pre-sizes the depth pools. Must be called before CandidatesAt and
  /// FrameAt so outer recursion frames' references survive inner frames
  /// (the pools never reallocate mid-solve).
  void EnsureDepths(size_t n) {
    if (depths_.size() < n) depths_.resize(n);
    if (frames_.size() < n) frames_.resize(n);
  }

  /// The candidate buffer of recursion depth `depth` (cleared by the
  /// caller). Distinct depths are distinct buffers, so a frame's
  /// candidates survive the deeper frames it recurses into.
  std::vector<std::uint32_t>& CandidatesAt(size_t depth) {
    if (depth >= depths_.size()) depths_.resize(depth + 1);
    return depths_[depth];
  }

  /// The match frame of recursion depth `depth` (the caller Resets
  /// it); reused like the candidate buffers, so a solve binds without
  /// allocating once the frames have grown.
  MatchFrame& FrameAt(size_t depth) {
    if (depth >= frames_.size()) frames_.resize(depth + 1);
    return frames_[depth];
  }

  /// Kernel temporaries — valid only within one CollectCandidates call
  /// (never across recursion).
  std::vector<std::uint32_t> run;
  std::vector<std::uint64_t> bitmap;
  std::vector<PostingsCursor> cursors;

 private:
  std::vector<std::vector<std::uint32_t>> depths_;
  std::vector<MatchFrame> frames_;
};

/// First index i in [from, size) with data[i] >= target, located by
/// exponential probing from `from` followed by binary search in the
/// overshot bracket. `steps` (may be null) accumulates the probe +
/// bisection hops — the Stats::gallop_steps currency.
size_t GallopTo(const std::uint32_t* data, size_t size, size_t from,
                std::uint32_t target, size_t* steps);

/// Decodes `cursor`'s postings within the ordinal window [begin, end)
/// and appends them to `out` (ascending), one PostingsPool block per
/// NextRun call. Stops decoding as soon as a posting reaches `end`.
/// Returns the number of postings decoded (cursor_steps to charge).
size_t DecodeWindow(PostingsCursor cursor, std::uint32_t begin,
                    std::uint32_t end, std::vector<std::uint32_t>* out);

/// The batch intersection kernel: filters the sorted run `a` (in
/// place, duplicates preserved) down to the values present in
/// `cursor`'s postings, consuming the cursor block-at-a-time.
///
/// Strategy per decoded block: linear two-pointer merge when the
/// block's size and a's remaining tail are comparable; galloping
/// (GallopTo) into the block when the tail is much smaller than the
/// block (kGallopRatio). When the cursor is dense over [begin, end)
/// and `a` is long, a bitmap of the window is built instead and `a` is
/// filtered by bit tests. Decoding stops early once `a`'s tail is
/// exhausted — the skewed case never pays for the long list's tail.
///
/// Duplicate values in `a` (hash-collision candidates) are all kept
/// when present in the cursor, so filtering never changes the
/// candidate sequence the matcher would have verified — it only drops
/// candidates the matcher would reject.
void FilterByCursor(std::vector<std::uint32_t>* a, PostingsCursor cursor,
                    std::uint32_t begin, std::uint32_t end,
                    JoinScratch* scratch, JoinKernelStats* stats);

/// Cardinality skew ratio beyond which the kernels gallop instead of
/// linear-merging.
inline constexpr size_t kGallopRatio = 8;

/// Density threshold for the bitmap fallback: the cursor must cover at
/// least 1/kBitmapDensity of the window, and `a` must be at least
/// kBitmapMinRun long, before a window bitmap beats the merge.
inline constexpr std::uint32_t kBitmapDensity = 4;
inline constexpr size_t kBitmapMinRun = 64;

/// A cursor more than this many times larger than the current survivor
/// set is skipped by callers: decoding it would cost more than the
/// matcher re-verifications it saves.
inline constexpr size_t kIntersectBudget = 64;

}  // namespace ooint

#endif  // OOINT_RULES_JOIN_KERNEL_H_
