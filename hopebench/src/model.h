// The request stream and the shadow model that gives every request its
// expected answer.
//
// Keys are ids into a sorted, duplicate-free universe of strings, so a
// key's id is also its rank in byte order. The shadow is a table of
// live bits and values indexed by rank that never touches HOPE or a
// tree: its answers come from the keys' own byte order alone, which is
// what an order-preserving index must reproduce.
//
// Values carry a per-key write version, (id << 32) | version, and every
// insert or erase bumps the version. A stale or resurrected entry
// therefore carries another value than the live one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace hopebench {

enum class OpType : uint8_t { kLookup, kInsert, kErase, kScan };

struct Op {
  uint32_t key = 0;  ///< universe id (= rank); the scan's start key
  OpType type = OpType::kLookup;
  uint8_t scan_len = 0;
  /// Lookup/erase: 1 when the key is live before the op; scan: entries
  /// the scan must produce.
  uint32_t expect_count = 0;
  /// Insert: the value written. Lookup: the expected value on a hit.
  /// Scan: ScanHash of the expected value sequence.
  uint64_t value = 0;
};

/// Request mix; the four shares sum to 1.
struct Mix {
  double lookup = 0;
  double insert = 0;
  double erase = 0;
  double scan = 0;
  uint32_t scan_min = 1;
  uint32_t scan_max = 1;
};

inline uint64_t InitialValue(uint32_t key) { return uint64_t{key} << 32; }

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Order-sensitive digest of a scan's value sequence: a dropped, extra,
/// reordered or changed entry changes it.
inline uint64_t ScanHash(const uint64_t* values, size_t n) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
  for (size_t i = 0; i < n; i++) h = Mix64(h ^ values[i]) + i;
  return h;
}

/// Appends `n` requests to `ops` (cleared first). `pick` maps the rng to
/// a universe id; everything else is drawn here, so the stream is a pure
/// function of the rng state.
template <typename Picker>
void FillBlock(std::mt19937_64& rng, const Mix& mix, Picker&& pick, size_t n,
               std::vector<Op>* ops) {
  ops->clear();
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<uint32_t> scan_len(mix.scan_min,
                                                   mix.scan_max);
  for (size_t i = 0; i < n; i++) {
    Op op;
    const double u = coin(rng);
    op.key = pick(rng);
    if (u < mix.lookup) {
      op.type = OpType::kLookup;
    } else if (u < mix.lookup + mix.insert) {
      op.type = OpType::kInsert;
    } else if (u < mix.lookup + mix.insert + mix.erase) {
      op.type = OpType::kErase;
    } else {
      op.type = OpType::kScan;
      op.scan_len = static_cast<uint8_t>(scan_len(rng));
    }
    ops->push_back(op);
  }
}

/// The model of the index's contents: a live bit and a value per
/// universe id. Ids are ranks, so the next live id at or after a key is
/// the next entry in key order. Everything is sized at construction, so
/// the shadow's heap footprint does not change while the run inserts
/// and erases, and the allocator reading behind bytes_per_key sees only
/// the program's growth.
class Shadow {
 public:
  /// `live[i]` says whether universe key i is loaded before the run.
  explicit Shadow(const std::vector<uint8_t>& live)
      : live_bits_((live.size() + 63) / 64, 0),
        value_(live.size(), 0),
        version_(live.size(), 0) {
    for (uint32_t i = 0; i < live.size(); i++) {
      if (!live[i]) continue;
      live_bits_[i / 64] |= uint64_t{1} << (i % 64);
      value_[i] = InitialValue(i);
      size_++;
    }
  }

  /// Applies `ops` in order and stores each one's expected answer (and
  /// each insert's value) in the op itself.
  void Replay(std::vector<Op>* ops) {
    std::vector<uint64_t> scan;
    for (Op& op : *ops) {
      const uint32_t k = op.key;
      switch (op.type) {
        case OpType::kLookup:
          op.expect_count = Live(k) ? 1 : 0;
          op.value = Live(k) ? value_[k] : 0;
          break;
        case OpType::kInsert:
          op.value = InitialValue(k) | ++version_[k];
          if (!Live(k)) SetLive(k, true);
          value_[k] = op.value;
          break;
        case OpType::kErase:
          op.expect_count = Live(k) ? 1 : 0;
          if (Live(k)) SetLive(k, false);
          ++version_[k];
          break;
        case OpType::kScan: {
          scan.clear();
          for (size_t i = NextLive(k);
               i < value_.size() && scan.size() < op.scan_len;
               i = NextLive(i + 1))
            scan.push_back(value_[i]);
          op.expect_count = static_cast<uint32_t>(scan.size());
          op.value = ScanHash(scan.data(), scan.size());
          break;
        }
      }
    }
  }

  size_t size() const { return size_; }

  /// Live keys in rank order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (size_t i = NextLive(0); i < value_.size(); i = NextLive(i + 1))
      fn(static_cast<uint32_t>(i), value_[i]);
  }

 private:
  bool Live(size_t i) const { return (live_bits_[i / 64] >> (i % 64)) & 1; }

  void SetLive(size_t i, bool live) {
    live_bits_[i / 64] ^= uint64_t{1} << (i % 64);
    size_ += live ? 1 : -1;
  }

  /// The first live id >= i, or value_.size() when there is none.
  size_t NextLive(size_t i) const {
    if (i >= value_.size()) return value_.size();
    size_t w = i / 64;
    uint64_t bits = live_bits_[w] & (~uint64_t{0} << (i % 64));
    while (bits == 0) {
      if (++w == live_bits_.size()) return value_.size();
      bits = live_bits_[w];
    }
    return w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
  }

  std::vector<uint64_t> live_bits_;
  std::vector<uint64_t> value_;
  std::vector<uint32_t> version_;
  size_t size_ = 0;
};

}  // namespace hopebench
