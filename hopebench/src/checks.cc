#include "checks.h"

#include <algorithm>
#include <random>

namespace hopebench {

bool CheckLookup(const Op& op, bool found, uint64_t value) {
  if (found != (op.expect_count == 1)) return false;
  return !found || value == op.value;
}

bool CheckErase(const Op& op, bool erased) {
  return erased == (op.expect_count == 1);
}

bool CheckScan(const Op& op, const std::vector<uint64_t>& out,
               size_t produced) {
  return produced == op.expect_count && out.size() == produced &&
         ScanHash(out.data(), out.size()) == op.value;
}

bool CheckSize(size_t expected, size_t actual) { return expected == actual; }

bool CheckMemoryBound(size_t index_bytes, size_t dict_bytes,
                      int64_t heap_growth) {
  return heap_growth >= 0 &&
         index_bytes + dict_bytes <= static_cast<uint64_t>(heap_growth);
}

namespace {
int Sign(int c) { return (c > 0) - (c < 0); }
}  // namespace

bool OrderAgrees(const std::string& a, const std::string& b,
                 const std::string& enc_a, const std::string& enc_b) {
  return Sign(a.compare(b)) == Sign(enc_a.compare(enc_b));
}

bool RoundTrips(const std::string& key, const std::string& decoded) {
  return key == decoded;
}

const char* CheckProbe::Name(Kind kind) {
  switch (kind) {
    case kLookupValue: return "lookup value flipped";
    case kLookupHit: return "lookup hit/miss flipped";
    case kEraseResult: return "erase result flipped";
    case kScanDropped: return "scan entry dropped";
    case kScanExtra: return "scan entry added";
    case kScanReordered: return "scan entries reordered";
    case kScanValue: return "scan value flipped";
    case kSizeShort: return "size one short";
    case kMemoryInflated: return "memory figure inflated";
    case kOrderSwapped: return "encodings swapped";
    case kRoundTrip: return "decoded key altered";
    case kNumKinds: break;
  }
  return "?";
}

void CheckProbe::Lookup(const Op& op, bool found, uint64_t value) {
  if (found) Note(kLookupValue, CheckLookup(op, found, value ^ 1));
  Note(kLookupHit, CheckLookup(op, !found, value));
}

void CheckProbe::Erase(const Op& op, bool erased) {
  Note(kEraseResult, CheckErase(op, !erased));
}

void CheckProbe::Scan(const Op& op, const std::vector<uint64_t>& out,
                      size_t produced) {
  if (produced == 0) return;
  std::vector<uint64_t> wrong(out.begin(), out.end() - 1);
  Note(kScanDropped, CheckScan(op, wrong, produced - 1));
  wrong = out;
  wrong.push_back(out.back());
  Note(kScanExtra, CheckScan(op, wrong, produced + 1));
  if (produced >= 2 && out[0] != out[1]) {
    wrong = out;
    std::swap(wrong[0], wrong[1]);
    Note(kScanReordered, CheckScan(op, wrong, produced));
  }
  wrong = out;
  wrong[0] ^= 1;
  Note(kScanValue, CheckScan(op, wrong, produced));
}

bool CheckProbe::AllRefused(std::string* report) const {
  bool ok = true;
  for (int k = 0; k < kNumKinds; k++) {
    const bool kind_ok = accepted_[k] == 0 && refused_[k] > 0;
    ok &= kind_ok;
    *report += std::string(kind_ok ? "  ok    " : "  FAIL  ") +
               Name(static_cast<Kind>(k)) + ": refused " +
               std::to_string(refused_[k]) + ", accepted " +
               std::to_string(accepted_[k]) + "\n";
  }
  return ok;
}

std::string CheckHopeProperties(const hope::Hope& codec,
                                const std::vector<std::string>& sorted,
                                uint64_t seed, CheckProbe* probe) {
  const size_t n = sorted.size();
  std::vector<std::string> enc(n);
  for (size_t i = 0; i < n; i++) {
    size_t bits = 0;
    enc[i] = codec.Encode(sorted[i], &bits);
    const std::string decoded = codec.Decode(enc[i], bits);
    if (!RoundTrips(sorted[i], decoded))
      return "Decode(Encode(k)) != k for k = \"" + sorted[i] + "\"";
    if (probe) probe->Note(CheckProbe::kRoundTrip,
                           RoundTrips(sorted[i], decoded + "x"));
  }
  if (n < 2) return "";
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  for (size_t t = 0; t < 2 * n; t++) {
    size_t i = t + 1 < n ? t : pick(rng);
    size_t j = t + 1 < n ? t + 1 : pick(rng);
    if (!OrderAgrees(sorted[i], sorted[j], enc[i], enc[j]))
      return "order differs for \"" + sorted[i] + "\" vs \"" + sorted[j] +
             "\"";
    if (probe && enc[i] != enc[j])
      probe->Note(CheckProbe::kOrderSwapped,
                  OrderAgrees(sorted[i], sorted[j], enc[j], enc[i]));
  }
  return "";
}

std::vector<std::string> EvenSample(const std::vector<std::string>& keys,
                                    size_t n) {
  std::vector<std::string> out;
  if (keys.empty() || n == 0) return out;
  n = std::min(n, keys.size());
  out.reserve(n);
  for (size_t i = 0; i < n; i++) out.push_back(keys[i * keys.size() / n]);
  return out;
}

}  // namespace hopebench
