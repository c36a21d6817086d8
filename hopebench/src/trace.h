// Spans for the traced run: one per call into a module's public
// function, recorded by the benchmark around the call.
//
// A block's spans go to a buffer sized before the run; between blocks
// (outside the timed window) they are folded into per-name totals. The
// first kRetained spans, and up to kRetained spans of at least kSlowNs,
// are kept for the trace file written at the end, so the file shows
// where the tail went.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hopebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum SpanName : uint8_t {
  kReqLookup,     ///< one whole request, parent of the spans below
  kReqInsert,
  kReqErase,
  kReqScan,
  kEncode,        ///< Hope::Encode of the request key
  kTreeLookup,    ///< Art/BTree calls
  kTreeInsert,
  kTreeErase,
  kTreeScan,
  kRoute,         ///< ConcurrentShardedIndex::Route on its own
  kIndexLookup,   ///< ConcurrentShardedIndex calls
  kIndexInsert,
  kIndexErase,
  kIndexScan,
  kPollMigration, ///< maintenance thread
  kRebalance,     ///< ShardedDictionaryManager::RebalanceNow
  kNumSpanNames,
};

struct Span {
  uint64_t request = 0;  ///< shared by a request and its children
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = kReqLookup;
};

struct SpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

class SpanLog {
 public:
  static constexpr size_t kRetained = size_t{1} << 16;
  static constexpr int64_t kSlowNs = 1000000;

  /// Sizes the buffers; call before the first allocator reading.
  void Reserve(size_t per_block) {
    block_.reserve(per_block);
    retained_.reserve(2 * kRetained);
  }

  void Add(SpanName name, uint64_t request, int64_t start, int64_t end) {
    if (block_.size() < block_.capacity())
      block_.push_back({request, start, end, name});
    else
      dropped_++;
  }

  void Fold() {
    for (const Span& s : block_) {
      SpanStats& st = stats_[s.name];
      const int64_t d = s.end_ns - s.start_ns;
      st.count++;
      st.total_ns += d;
      st.max_ns = std::max(st.max_ns, d);
      if (retained_.size() < kRetained ||
          (d >= kSlowNs && retained_.size() < retained_.capacity()))
        retained_.push_back(s);
    }
    block_.clear();
  }

  const SpanStats& stats(SpanName name) const { return stats_[name]; }
  uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& retained() const { return retained_; }

 private:
  std::vector<Span> block_;
  std::vector<Span> retained_;
  SpanStats stats_[kNumSpanNames];
  uint64_t dropped_ = 0;
};

/// Writes retained spans as CSV (name,request,start_ns,end_ns), with
/// times relative to the first span. Returns false on an I/O error.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs,
                       const char* const* names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = INT64_MAX;
  for (const SpanLog* log : logs)
    for (const Span& s : log->retained()) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "name,request,start_ns,end_ns\n");
  for (const SpanLog* log : logs)
    for (const Span& s : log->retained())
      std::fprintf(f, "%s,%llu,%lld,%lld\n", names[s.name],
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
  return std::fclose(f) == 0;
}

}  // namespace hopebench
