// Answer checks. Each compares what the program returned with what the
// shadow model (model.h) or HOPE's contract says it must return, and
// each is a plain function of (expected, actual), so the self-test can
// hand it a deliberately wrong answer and see it refused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hope/hope.h"
#include "model.h"

namespace hopebench {

bool CheckLookup(const Op& op, bool found, uint64_t value);
bool CheckErase(const Op& op, bool erased);
bool CheckScan(const Op& op, const std::vector<uint64_t>& out,
               size_t produced);
bool CheckSize(size_t expected, size_t actual);

/// The index's own accounting can only undercount what it holds: its
/// MemoryBytes() plus the dictionary bytes must fit in the heap growth
/// the allocator reports.
bool CheckMemoryBound(size_t index_bytes, size_t dict_bytes,
                      int64_t heap_growth);

/// sign(compare(a, b)) == sign(compare(enc_a, enc_b)).
bool OrderAgrees(const std::string& a, const std::string& b,
                 const std::string& enc_a, const std::string& enc_b);
bool RoundTrips(const std::string& key, const std::string& decoded);

/// Counts, per kind of deliberately wrong answer, how often a check
/// accepted or refused it (self-test mode only).
struct CheckProbe {
  enum Kind {
    kLookupValue,   ///< a hit with one value bit flipped
    kLookupHit,     ///< hit reported as miss or miss as hit
    kEraseResult,   ///< erase result flipped
    kScanDropped,   ///< the last scan entry dropped
    kScanExtra,     ///< one scan entry too many
    kScanReordered, ///< two scan entries swapped
    kScanValue,     ///< a scan value bit flipped
    kSizeShort,     ///< the final size one short
    kMemoryInflated,///< MemoryBytes() larger than the heap growth
    kOrderSwapped,  ///< two encodings swapped
    kRoundTrip,     ///< a decoded key with a byte appended
    kNumKinds,
  };
  static const char* Name(Kind kind);

  void Note(Kind kind, bool accepted) {
    (accepted ? accepted_ : refused_)[kind]++;
  }
  void Lookup(const Op& op, bool found, uint64_t value);
  void Erase(const Op& op, bool erased);
  void Scan(const Op& op, const std::vector<uint64_t>& out, size_t produced);

  /// True when every kind was tried at least once and always refused.
  bool AllRefused(std::string* report) const;

  uint64_t accepted_[kNumKinds] = {};
  uint64_t refused_[kNumKinds] = {};
};

/// Checks order preservation and Decode(Encode(k)) == k on `sorted`
/// (ascending, duplicate-free): every adjacent pair plus as many random
/// pairs. Returns "" when both hold, else the first violation.
std::string CheckHopeProperties(const hope::Hope& codec,
                                const std::vector<std::string>& sorted,
                                uint64_t seed, CheckProbe* probe);

/// Up to `n` keys spread evenly over `keys` (ascending stays ascending).
std::vector<std::string> EvenSample(const std::vector<std::string>& keys,
                                    size_t n);

}  // namespace hopebench
