// hopebench: end-to-end benchmark of HOPE-compressed search trees and of
// the sharded serving index. See README.md for the workloads, the
// metrics and the layer each metric belongs to.
//
//   hopebench --workload <email_point|url_scan|serve_drift> --seed <n>
//             --seconds <s> --trace <0|1> [--uncompressed] [--out-dir <dir>]
//   hopebench --selftest [--out-dir <dir>]
//
// One client thread issues every request (serve_drift adds one
// maintenance thread). The request stream is made from --seed in blocks;
// each block is replayed through the shadow model before its clock
// starts, and the run measures whole blocks until --seconds of measured
// time have passed. Human-readable lines go to stderr; the last line on
// stdout is the JSON result.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "checks.h"
#include "common/mutex.h"
#include "common/simd.h"
#include "common/thread_annotations.h"
#include "common/zipf.h"
#include "datasets/datasets.h"
#include "dynamic/sharded_manager.h"
#include "hope/hope.h"
#include "model.h"
#include "serve/concurrent_index.h"
#include "trace.h"
#include "workload/drift.h"
#include "workload/localized_drift.h"

namespace hopebench {
namespace {

using hope::Art;
using hope::BTree;
using ServeIndex = hope::serve::ConcurrentShardedIndex<BTree>;

/// Upper bound on the request rate, used only to size the latency
/// buffers before the first allocator reading (about 7x the fastest
/// workload on the reference host).
constexpr double kMaxOpsPerSecond = 4e6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool selftest = false;
  bool uncompressed = false;  ///< reference figures for the tree workloads
  std::string out_dir = ".";
};

/// Bytes the allocator has handed out and not taken back, over all
/// arenas and mmapped chunks.
int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Inputs

struct Universe {
  std::vector<std::string> keys;  ///< sorted, unique; id = rank
  std::vector<uint8_t> live;      ///< loaded before the run
  std::vector<std::string> sample;  ///< dictionary build sample
  size_t num_live = 0;
};

/// Every tenth key by rank starts absent, so lookups miss and inserts
/// add keys. The sample is a hash-chosen `sample_fraction` of the live
/// keys, spread over the whole key range.
Universe MakeUniverse(std::vector<std::string> keys, double sample_fraction) {
  Universe u;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  u.keys = std::move(keys);
  u.live.resize(u.keys.size());
  const uint64_t cut = static_cast<uint64_t>(sample_fraction * 1e6);
  for (size_t i = 0; i < u.keys.size(); i++) {
    u.live[i] = i % 10 != 9;
    if (!u.live[i]) continue;
    u.num_live++;
    if (Mix64(i ^ 0x5A3Dull) % 1000000 < cut) u.sample.push_back(u.keys[i]);
  }
  return u;
}

// ---------------------------------------------------------------------------
// Recording

/// Per-run measurement state. Everything is sized before the first
/// allocator reading, so the run itself allocates only what the program
/// under test allocates.
struct Recorder {
  Recorder(size_t max_ops, const Mix& mix, size_t block_ops, bool trace) {
    auto cap = [&](double share) {
      return static_cast<size_t>(share * static_cast<double>(max_ops)) +
             block_ops;
    };
    lookup_ns.reserve(cap(mix.lookup));
    write_ns.reserve(cap(mix.insert + mix.erase));
    scan_ns.reserve(cap(mix.scan));
    ops.reserve(block_ops);
    scan_out.reserve(256);
    if (trace) spans.Reserve(3 * block_ops + 16);
  }

  void Latency(std::vector<uint32_t>* v, int64_t ns) {
    v->push_back(static_cast<uint32_t>(
        std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max())));
  }

  bool Full(size_t block_ops) const {
    return lookup_ns.size() + block_ops > lookup_ns.capacity() ||
           write_ns.size() + block_ops > write_ns.capacity() ||
           scan_ns.size() + block_ops > scan_ns.capacity();
  }

  std::vector<uint32_t> lookup_ns, write_ns, scan_ns;
  std::vector<Op> ops;
  std::vector<uint64_t> scan_out;
  SpanLog spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t scan_entries = 0;
  CheckProbe* probe = nullptr;  ///< self-test only
  /// bytes_per_key is read after this many blocks, a fixed point in the
  /// request stream, so that index growth that follows the number of
  /// writes (append-only key storage) does not follow the run's speed.
  size_t footprint_block = 0;
  int64_t footprint_heap = -1;  ///< HeapInUse() there, if reached
  size_t footprint_live = 0;    ///< live keys there
};

/// Runs `fn`, and in a traced run records it as a span.
template <bool kTrace, typename Fn>
decltype(auto) Traced(SpanLog* spans, SpanName name, uint64_t request,
                      Fn&& fn) {
  if constexpr (!kTrace) {
    return fn();
  } else {
    const int64_t start = NowNs();
    decltype(auto) result = fn();
    spans->Add(name, request, start, NowNs());
    return result;
  }
}

// ---------------------------------------------------------------------------
// What a request calls

/// The Uncompressed configuration, for reference figures: the tree
/// stores the keys as they are.
struct RawCodec {
  const std::string& Encode(const std::string& key) const { return key; }
};

/// A HOPE-encoded tree: each request encodes its key, then calls the
/// tree with the encoding.
template <typename Tree, typename Codec>
struct TreeTarget {
  const Codec& codec;
  Tree& tree;

  template <bool kTrace>
  bool Lookup(const std::string& key, uint64_t* value, uint64_t req,
              SpanLog* spans) {
    decltype(auto) enc = Encode<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kTreeLookup, req,
                          [&] { return tree.Lookup(enc, value); });
  }
  template <bool kTrace>
  void Insert(const std::string& key, uint64_t value, uint64_t req,
              SpanLog* spans) {
    decltype(auto) enc = Encode<kTrace>(key, req, spans);
    Traced<kTrace>(spans, kTreeInsert, req, [&] {
      tree.Insert(enc, value);
      return true;
    });
  }
  template <bool kTrace>
  bool Erase(const std::string& key, uint64_t req, SpanLog* spans) {
    decltype(auto) enc = Encode<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kTreeErase, req,
                          [&] { return tree.Erase(enc); });
  }
  template <bool kTrace>
  size_t Scan(const std::string& key, size_t count,
              std::vector<uint64_t>* out, uint64_t req, SpanLog* spans) {
    decltype(auto) enc = Encode<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kTreeScan, req,
                          [&] { return tree.Scan(enc, count, out); });
  }

  template <bool kTrace>
  decltype(auto) Encode(const std::string& key, uint64_t req,
                        SpanLog* spans) {
    return Traced<kTrace>(spans, kEncode, req, [&]() -> decltype(auto) {
      return codec.Encode(key);
    });
  }
};

/// The sharded serving index: each request is one index call. A traced
/// run also times Route() on its own, before the call.
struct ServeTarget {
  ServeIndex& index;

  template <bool kTrace>
  bool Lookup(const std::string& key, uint64_t* value, uint64_t req,
              SpanLog* spans) {
    RouteAlone<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kIndexLookup, req,
                          [&] { return index.Lookup(key, value); });
  }
  template <bool kTrace>
  void Insert(const std::string& key, uint64_t value, uint64_t req,
              SpanLog* spans) {
    RouteAlone<kTrace>(key, req, spans);
    Traced<kTrace>(spans, kIndexInsert, req, [&] {
      index.Insert(key, value);
      return true;
    });
  }
  template <bool kTrace>
  bool Erase(const std::string& key, uint64_t req, SpanLog* spans) {
    RouteAlone<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kIndexErase, req,
                          [&] { return index.Erase(key); });
  }
  template <bool kTrace>
  size_t Scan(const std::string& key, size_t count,
              std::vector<uint64_t>* out, uint64_t req, SpanLog* spans) {
    RouteAlone<kTrace>(key, req, spans);
    return Traced<kTrace>(spans, kIndexScan, req,
                          [&] { return index.Scan(key, count, out); });
  }

  template <bool kTrace>
  void RouteAlone(const std::string& key, uint64_t req, SpanLog* spans) {
    if constexpr (kTrace)
      Traced<kTrace>(spans, kRoute, req, [&] { return index.Route(key); });
  }
};

/// Issues one block of requests, times each, and checks each answer.
template <bool kTrace, typename Target>
void ExecuteBlock(Target& target, const std::vector<std::string>& keys,
                  Recorder* rec) {
  SpanLog* spans = &rec->spans;
  std::vector<uint64_t>& out = rec->scan_out;
  for (const Op& op : rec->ops) {
    const std::string& key = keys[op.key];
    const uint64_t req = rec->attempted++;
    bool ok = true;
    const int64_t t0 = NowNs();
    switch (op.type) {
      case OpType::kLookup: {
        uint64_t value = 0;
        const bool found =
            target.template Lookup<kTrace>(key, &value, req, spans);
        const int64_t t1 = NowNs();
        rec->Latency(&rec->lookup_ns, t1 - t0);
        if constexpr (kTrace) spans->Add(kReqLookup, req, t0, t1);
        ok = CheckLookup(op, found, value);
        if (rec->probe) rec->probe->Lookup(op, found, value);
        break;
      }
      case OpType::kInsert: {
        target.template Insert<kTrace>(key, op.value, req, spans);
        const int64_t t1 = NowNs();
        rec->Latency(&rec->write_ns, t1 - t0);
        if constexpr (kTrace) spans->Add(kReqInsert, req, t0, t1);
        break;
      }
      case OpType::kErase: {
        const bool erased = target.template Erase<kTrace>(key, req, spans);
        const int64_t t1 = NowNs();
        rec->Latency(&rec->write_ns, t1 - t0);
        if constexpr (kTrace) spans->Add(kReqErase, req, t0, t1);
        ok = CheckErase(op, erased);
        if (rec->probe) rec->probe->Erase(op, erased);
        break;
      }
      case OpType::kScan: {
        out.clear();
        const size_t produced =
            target.template Scan<kTrace>(key, op.scan_len, &out, req, spans);
        const int64_t t1 = NowNs();
        rec->Latency(&rec->scan_ns, t1 - t0);
        if constexpr (kTrace) spans->Add(kReqScan, req, t0, t1);
        rec->scan_entries += produced;
        ok = CheckScan(op, out, produced);
        if (rec->probe) rec->probe->Scan(op, out, produced);
        break;
      }
    }
    if (!ok) rec->failed++;
  }
}

/// Hooks a workload may attach to the block loop. MakeBlock fills
/// rec->ops; the rest are no-ops for the single-threaded workloads.
struct BlockHooks {
  void BeforeBlock() {}
  void AfterRequests() {}
  void AfterBlock() {}
};

/// Measures whole blocks until `seconds` of measured time have passed.
/// Each block is made and replayed through the shadow before its clock
/// starts. Returns the measured seconds.
template <bool kTrace, typename Target, typename Hooks>
double MeasureBlocks(Target& target, const std::vector<std::string>& keys,
                     Shadow* shadow, size_t block_ops, double seconds,
                     Recorder* rec, Hooks& hooks) {
  double measured = 0;
  int64_t prepare_ns = 0;
  for (size_t block = 1; measured < seconds && !rec->Full(block_ops);
       block++) {
    const int64_t p0 = NowNs();
    hooks.MakeBlock(block_ops, &rec->ops);
    shadow->Replay(&rec->ops);
    prepare_ns += NowNs() - p0;
    hooks.BeforeBlock();
    const int64_t t0 = NowNs();
    ExecuteBlock<kTrace>(target, keys, rec);
    hooks.AfterRequests();
    const int64_t t1 = NowNs();
    hooks.AfterBlock();
    rec->spans.Fold();
    measured += Seconds(t1 - t0);
    if (block == rec->footprint_block) {
      rec->footprint_heap = HeapInUse();
      rec->footprint_live = shadow->size();
    }
  }
  std::fprintf(stderr, "measured %.3fs; made and replayed blocks in %.3fs\n",
               measured, Seconds(prepare_ns));
  return measured;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void Require(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }

  std::string Json() const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g",
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
      if (i) s += ", ";
      s += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
  }
};

/// The q-quantile of `v` in microseconds (reorders v).
double PercentileUs(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  idx = std::min(v->size() - 1, idx == 0 ? 0 : idx - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return (*v)[idx] / 1000.0;
}

/// Everything a workload measured, before it is turned into metrics.
struct Measured {
  double setup_s = 0;
  double measured_s = 0;
  int64_t heap_growth = 0;  ///< at the end of the run
  size_t live_keys = 0;
  double bytes_per_key = 0;
  // hope
  double build_s = 0, symbol_select_s = 0, code_assign_s = 0;
  double cpr = 0;
  size_t dict_bytes = 0;
  // tree (art or btree)
  double tree_load_s = 0, tree_depth = 0;
  size_t tree_bytes = 0;
  // serve / dynamic / ebr
  double manager_build_s = 0, preload_s = 0;
  SpanStats polls;
  uint64_t entries_migrated = 0, plans_applied = 0, resyncs = 0,
           slow_paths = 0, rebalances = 0, rebuilds = 0, rebuild_rejects = 0,
           ebr_pending = 0;
};

/// Heap growth per live key at the footprint block, or at the end of the
/// run when the run ended before reaching it.
double BytesPerKey(const Recorder& rec, int64_t heap_before,
                   const Measured& m) {
  const bool at_block = rec.footprint_heap >= 0;
  const double growth = static_cast<double>(
      at_block ? rec.footprint_heap - heap_before : m.heap_growth);
  const size_t live = at_block ? rec.footprint_live : m.live_keys;
  return growth / static_cast<double>(std::max<size_t>(1, live));
}

void EmitMetrics(const Args& args, const char* tree_layer, Measured& m,
                 Recorder& rec, Result* result) {
  result->attempted = rec.attempted;
  result->failed = rec.failed;
  const double kops = static_cast<double>(rec.attempted) / m.measured_s / 1e3;
  if (!args.trace) {
    result->Add("setup_s", "s", m.setup_s);
    result->Add("throughput_kops", "kops/s", kops);
    result->Add("lookup_p50_us", "us", PercentileUs(&rec.lookup_ns, 0.50));
    result->Add("lookup_p99_us", "us", PercentileUs(&rec.lookup_ns, 0.99));
    result->Add("write_p50_us", "us", PercentileUs(&rec.write_ns, 0.50));
    result->Add("write_p99_us", "us", PercentileUs(&rec.write_ns, 0.99));
    result->Add("scan_p50_us", "us", PercentileUs(&rec.scan_ns, 0.50));
    result->Add("scan_p99_us", "us", PercentileUs(&rec.scan_ns, 0.99));
    result->Add("bytes_per_key", "B/key", m.bytes_per_key);
    return;
  }
  const SpanLog& sp = rec.spans;
  auto mean = [&](SpanName n) { return sp.stats(n).MeanNs(); };
  const bool is_art = std::strcmp(tree_layer, "art") == 0;
  const bool is_btree = std::strcmp(tree_layer, "btree") == 0;
  const double per_key =
      static_cast<double>(m.tree_bytes) /
      static_cast<double>(std::max<size_t>(1, m.live_keys));
  auto tree = [&](bool on, double v) { return on ? v : 0.0; };

  result->Add("hope.build_s", "s", m.build_s);
  result->Add("hope.symbol_select_s", "s", m.symbol_select_s);
  result->Add("hope.code_assign_s", "s", m.code_assign_s);
  result->Add("hope.encode_ns", "ns", mean(kEncode));
  result->Add("hope.cpr", "x", m.cpr);
  result->Add("hope.dict_bytes", "B", static_cast<double>(m.dict_bytes));

  result->Add("art.lookup_ns", "ns", tree(is_art, mean(kTreeLookup)));
  result->Add("art.insert_ns", "ns", tree(is_art, mean(kTreeInsert)));
  result->Add("art.erase_ns", "ns", tree(is_art, mean(kTreeErase)));
  result->Add("art.scan_ns", "ns", tree(is_art, mean(kTreeScan)));
  result->Add("art.avg_leaf_depth", "levels", tree(is_art, m.tree_depth));
  result->Add("art.bytes_per_key", "B/key", tree(is_art, per_key));
  result->Add("art.load_s", "s", tree(is_art, m.tree_load_s));

  const double scans = static_cast<double>(rec.scan_ns.size());
  result->Add("btree.lookup_ns", "ns", tree(is_btree, mean(kTreeLookup)));
  result->Add("btree.insert_ns", "ns", tree(is_btree, mean(kTreeInsert)));
  result->Add("btree.erase_ns", "ns", tree(is_btree, mean(kTreeErase)));
  result->Add("btree.scan_ns", "ns", tree(is_btree, mean(kTreeScan)));
  result->Add("btree.scan_entries", "entries",
              tree(is_btree, scans == 0 ? 0
                                        : static_cast<double>(
                                              rec.scan_entries) / scans));
  result->Add("btree.height", "levels", tree(is_btree, m.tree_depth));
  result->Add("btree.bytes_per_key", "B/key", tree(is_btree, per_key));
  result->Add("btree.load_s", "s", tree(is_btree, m.tree_load_s));

  result->Add("serve.route_ns", "ns", mean(kRoute));
  result->Add("serve.poll_migration_ms", "ms",
              static_cast<double>(m.polls.total_ns) / 1e6);
  result->Add("serve.poll_migration_max_ms", "ms",
              static_cast<double>(m.polls.max_ns) / 1e6);
  result->Add("serve.scan_max_ms", "ms",
              static_cast<double>(sp.stats(kIndexScan).max_ns) / 1e6);
  result->Add("serve.entries_migrated", "count",
              static_cast<double>(m.entries_migrated));
  result->Add("serve.plans_applied", "count",
              static_cast<double>(m.plans_applied));
  result->Add("serve.resyncs", "count", static_cast<double>(m.resyncs));
  result->Add("serve.lookup_slow_paths", "count",
              static_cast<double>(m.slow_paths));

  result->Add("dynamic.manager_build_s", "s", m.manager_build_s);
  result->Add("dynamic.preload_s", "s", m.preload_s);
  result->Add("dynamic.rebalance_ms", "ms",
              static_cast<double>(sp.stats(kRebalance).total_ns) / 1e6);
  result->Add("dynamic.rebalances", "count",
              static_cast<double>(m.rebalances));
  result->Add("dynamic.rebuilds", "count", static_cast<double>(m.rebuilds));
  result->Add("dynamic.rebuild_rejects", "count",
              static_cast<double>(m.rebuild_rejects));
  result->Add("ebr.pending", "count", static_cast<double>(m.ebr_pending));

  result->Add("trace.throughput_kops", "kops/s", kops);
  result->Add("trace.lookup_p999_us", "us",
              PercentileUs(&rec.lookup_ns, 0.999));
  result->Add("trace.lookup_max_us", "us",
              static_cast<double>(sp.stats(kReqLookup).max_ns) / 1e3);
  result->Add("trace.write_p999_us", "us",
              PercentileUs(&rec.write_ns, 0.999));
  result->Add("trace.write_max_us", "us",
              static_cast<double>(std::max(sp.stats(kReqInsert).max_ns,
                                           sp.stats(kReqErase).max_ns)) /
                  1e3);
  result->Add("trace.scan_p999_us", "us", PercentileUs(&rec.scan_ns, 0.999));
  result->Add("trace.scan_max_us", "us",
              static_cast<double>(sp.stats(kReqScan).max_ns) / 1e3);
  result->Require(sp.dropped() == 0, "span buffer overflowed");
}

void WriteTrace(const Args& args, const char* tree_layer,
                const std::vector<const SpanLog*>& logs) {
  const std::string t = tree_layer;
  const std::string names[kNumSpanNames] = {
      "request.lookup", "request.insert", "request.erase", "request.scan",
      "hope.encode",    t + ".lookup",    t + ".insert",   t + ".erase",
      t + ".scan",      "serve.route",    "serve.lookup",  "serve.insert",
      "serve.erase",    "serve.scan",     "serve.poll_migration",
      "dynamic.rebalance"};
  const char* cnames[kNumSpanNames];
  for (int i = 0; i < kNumSpanNames; i++) cnames[i] = names[i].c_str();
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".csv";
  if (WriteSpans(path, logs, cnames))
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// email_point and url_scan: one HOPE dictionary, one tree

struct TreeSpec {
  hope::DatasetId dataset;
  size_t keys;
  hope::Scheme scheme;
  size_t dict_limit;
  Mix mix;
  size_t block_ops;
  size_t footprint_block;
};

template <typename Tree>
double TreeDepth(const Tree& tree) {
  if constexpr (std::is_same_v<Tree, Art>)
    return tree.AverageLeafDepth();
  else
    return tree.Height();
}

template <typename Tree>
void RunTree(const Args& args, const TreeSpec& spec, const char* layer,
             CheckProbe* probe, Result* result) {
  const int64_t inputs_start = NowNs();
  Universe u = MakeUniverse(
      hope::GenerateDataset(spec.dataset, spec.keys, args.seed), 0.01);
  Shadow shadow(u.live);
  const hope::ScrambledZipf zipf(u.keys.size(), 0.99);
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  const size_t max_ops =
      static_cast<size_t>(args.seconds * kMaxOpsPerSecond) + spec.block_ops;
  Recorder rec(max_ops, spec.mix, spec.block_ops, args.trace);
  rec.probe = probe;
  rec.footprint_block = spec.footprint_block;
  Measured m;

  struct Hooks : BlockHooks {
    std::mt19937_64* rng;
    const Mix* mix;
    const hope::ScrambledZipf* zipf;
    void MakeBlock(size_t n, std::vector<Op>* ops) {
      FillBlock(*rng, *mix, [&](std::mt19937_64& r) {
        return static_cast<uint32_t>((*zipf)(r));
      }, n, ops);
    }
  } hooks;
  hooks.rng = &rng;
  hooks.mix = &spec.mix;
  hooks.zipf = &zipf;

  const int64_t heap_before = HeapInUse();
  const int64_t t0 = NowNs();
  hope::BuildStats stats;
  std::unique_ptr<hope::Hope> codec;
  if (!args.uncompressed)
    codec = hope::Hope::Build(spec.scheme, u.sample, spec.dict_limit, &stats);
  const int64_t t1 = NowNs();
  Tree tree;
  // Loads the live keys in rank order, then measures.
  auto load_and_measure = [&](const auto& c) {
    int64_t insert_ns = 0;
    for (uint32_t i = 0; i < u.keys.size(); i++) {
      if (!u.live[i]) continue;
      decltype(auto) enc = c.Encode(u.keys[i]);
      if (args.trace) {
        const int64_t s = NowNs();
        tree.Insert(enc, InitialValue(i));
        insert_ns += NowNs() - s;
      } else {
        tree.Insert(enc, InitialValue(i));
      }
    }
    const int64_t t2 = NowNs();
    m.setup_s = Seconds(t2 - t0);
    m.build_s = Seconds(t1 - t0);
    m.symbol_select_s = stats.symbol_select_seconds;
    m.code_assign_s = stats.code_assign_seconds;
    m.tree_load_s = Seconds(insert_ns);
    std::fprintf(stderr,
                 "%s%s: %zu keys (%zu live), sample %zu, inputs %.3fs, "
                 "setup %.3fs (build %.3fs), encode tier %s\n",
                 args.workload.c_str(), codec ? "" : " (uncompressed)",
                 u.keys.size(), u.num_live, u.sample.size(),
                 Seconds(t0 - inputs_start), m.setup_s, m.build_s,
                 hope::simd::TierName());

    TreeTarget<Tree, std::decay_t<decltype(c)>> target{c, tree};
    m.measured_s =
        args.trace
            ? MeasureBlocks<true>(target, u.keys, &shadow, spec.block_ops,
                                  args.seconds, &rec, hooks)
            : MeasureBlocks<false>(target, u.keys, &shadow, spec.block_ops,
                                   args.seconds, &rec, hooks);
  };
  if (codec)
    load_and_measure(*codec);
  else
    load_and_measure(RawCodec{});

  m.heap_growth = HeapInUse() - heap_before;
  m.live_keys = shadow.size();
  m.bytes_per_key = BytesPerKey(rec, heap_before, m);
  m.dict_bytes = codec ? codec->dict().MemoryBytes() : 0;
  m.tree_bytes = tree.MemoryBytes();
  m.tree_depth = TreeDepth(tree);
  m.cpr = codec ? codec->CompressionRate(EvenSample(u.keys, 100000)) : 1.0;

  result->Require(CheckSize(shadow.size(), tree.size()),
                  "tree size " + std::to_string(tree.size()) +
                      " != expected " + std::to_string(shadow.size()));
  result->Require(
      CheckMemoryBound(m.tree_bytes, m.dict_bytes, m.heap_growth),
      "MemoryBytes() + dictionary bytes exceed the heap growth");
  if (codec) {
    const std::string props = CheckHopeProperties(
        *codec, EvenSample(u.keys, 4096), args.seed, probe);
    result->Require(props.empty(), props);
  }
  if (probe) {
    probe->Note(CheckProbe::kSizeShort,
                CheckSize(shadow.size(), tree.size() - 1));
    probe->Note(CheckProbe::kMemoryInflated,
                CheckMemoryBound(
                    m.tree_bytes + static_cast<size_t>(m.heap_growth) + 1,
                    m.dict_bytes, m.heap_growth));
  }
  EmitMetrics(args, layer, m, rec, result);
  if (args.trace) WriteTrace(args, layer, {&rec.spans});
}

// ---------------------------------------------------------------------------
// serve_drift: the sharded serving index under a migrating hotspot

/// The maintenance thread: after each re-balance it loops PollMigration
/// until the plan is applied and a poll finds nothing left to do, then
/// parks until the next re-balance, so no timer drives it. It runs only
/// inside timed blocks (Resume/Pause), so migration never advances while
/// the next block is being prepared.
class Maintenance {
 public:
  /// `spans` (null in an untraced run) receives one span per poll.
  Maintenance(ServeIndex* index, SpanLog* spans)
      : index_(index), spans_(spans) {
    thread_ = std::thread([this] { Main(); });
  }
  ~Maintenance() { Stop(); }

  Maintenance(const Maintenance&) = delete;
  Maintenance& operator=(const Maintenance&) = delete;

  void Resume() {
    hope::MutexLock lk(mu_);
    running_ = true;
    cv_.notify_all();
  }

  /// Returns once the thread is parked outside PollMigration.
  void Pause() {
    hope::UniqueLock lk(mu_);
    running_ = false;
    cv_.wait(lk.native(), [&]() HOPE_NO_THREAD_SAFETY_ANALYSIS {
      return !polling_;
    });
    if (spans_) spans_->Fold();
  }

  /// A re-balance published a plan.
  void Kick() {
    hope::MutexLock lk(mu_);
    pending_ = true;
    cv_.notify_all();
  }

  /// Untimed: lets the thread apply every pending plan, then parks it.
  void Finish() {
    {
      hope::UniqueLock lk(mu_);
      pending_ = true;
      running_ = true;
      cv_.notify_all();
      cv_.wait(lk.native(), [&]() HOPE_NO_THREAD_SAFETY_ANALYSIS {
        return !pending_;
      });
    }
    Pause();
  }

  void Stop() {
    {
      hope::MutexLock lk(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Main() {
    hope::UniqueLock lk(mu_);
    for (uint64_t call = 0;; call++) {
      cv_.wait(lk.native(), [&]() HOPE_NO_THREAD_SAFETY_ANALYSIS {
        return stop_ || (running_ && pending_);
      });
      if (stop_) return;
      polling_ = true;
      lk.Unlock();
      const int64_t t0 = NowNs();
      const size_t moved = index_->PollMigration();
      const int64_t t1 = NowNs();
      // A poll that moved nothing with no plan left has also drained
      // the old dictionary generations of every shard it could lock.
      const bool idle = moved == 0 && index_->MigrationIdle();
      lk.Lock();
      if (spans_) spans_->Add(kPollMigration, call, t0, t1);
      if (idle) pending_ = false;
      polling_ = false;
      cv_.notify_all();
    }
  }

  ServeIndex* index_;
  hope::Mutex mu_;
  std::condition_variable cv_;
  bool running_ HOPE_GUARDED_BY(mu_) = false;
  bool pending_ HOPE_GUARDED_BY(mu_) = false;
  bool polling_ HOPE_GUARDED_BY(mu_) = false;
  bool stop_ HOPE_GUARDED_BY(mu_) = false;
  SpanLog* spans_ HOPE_PT_GUARDED_BY(mu_);
  std::thread thread_;  // last: started after every member it uses
};

void RunServeDrift(const Args& args, size_t corpus, size_t block_ops,
                   size_t blocks_per_phase, size_t footprint_block,
                   CheckProbe* probe, Result* result) {
  constexpr size_t kPhases = 5;
  constexpr size_t kShards = 8;
  const Mix mix{0.89, 0.05, 0.05, 0.01, 1, 20};

  // kHotspotMigrate splits the sorted corpus at its median: ids below
  // `half` are part A, the rest part B. Phase p draws from B with
  // probability p / (kPhases - 1), so the hotspot walks up the key range.
  Universe u;
  size_t half = 0;
  {
    hope::DriftOptions dopt;
    dopt.model = hope::DriftModel::kHotspotMigrate;
    dopt.num_phases = kPhases;
    dopt.keys_per_phase = 1;
    dopt.corpus_size = corpus;
    dopt.seed = args.seed;
    hope::DriftingWorkload drift(dopt);
    std::vector<std::string> keys = drift.part_a();
    half = keys.size();
    keys.insert(keys.end(), drift.part_b().begin(), drift.part_b().end());
    u = MakeUniverse(std::move(keys), 0.05);
  }
  Shadow shadow(u.live);
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 2);
  const size_t max_ops =
      static_cast<size_t>(args.seconds * kMaxOpsPerSecond) + block_ops;
  Recorder rec(max_ops, mix, block_ops, args.trace);
  rec.probe = probe;
  rec.footprint_block = footprint_block;
  SpanLog maint_spans;
  if (args.trace) maint_spans.Reserve(size_t{1} << 18);
  Measured m;

  hope::dynamic::ShardedDictionaryManager::Options opt;
  opt.num_shards = kShards;
  opt.shard.scheme = hope::Scheme::kSingleChar;
  opt.shard.dict_size_limit = 256;
  opt.shard.stats.sample_every = 2;
  opt.shard.stats.reservoir_halflife = 512;
  opt.traffic_ewma_alpha = 0.6;

  const int64_t heap_before = HeapInUse();
  const int64_t t0 = NowNs();
  hope::dynamic::ShardedDictionaryManager mgr(u.sample, opt);
  const int64_t t1 = NowNs();
  ServeIndex index(&mgr);
  for (uint32_t i = 0; i < u.keys.size(); i++)
    if (u.live[i]) index.Insert(u.keys[i], InitialValue(i));
  const int64_t t2 = NowNs();
  m.setup_s = Seconds(t2 - t0);
  m.manager_build_s = Seconds(t1 - t0);
  m.preload_s = Seconds(t2 - t1);
  std::fprintf(stderr,
               "%s: %zu keys (%zu live), sample %zu, %zu shards, setup %.3fs\n",
               args.workload.c_str(), u.keys.size(), u.num_live,
               u.sample.size(), mgr.num_shards(), m.setup_s);

  Maintenance maint(&index, args.trace ? &maint_spans : nullptr);
  ServeTarget target{index};
  // Phases are counted in blocks, not seconds, so the request stream and
  // the points where the client re-balances are fixed by the seed alone.
  struct Hooks {
    std::mt19937_64* rng;
    const Mix* mix;
    size_t half, n;
    size_t blocks_per_phase;
    bool trace;
    hope::dynamic::ShardedDictionaryManager* mgr;
    Maintenance* maint;
    Recorder* rec;
    size_t blocks = 0;

    size_t Phase() const {
      return std::min(kPhases - 1, blocks / blocks_per_phase);
    }
    void MakeBlock(size_t count, std::vector<Op>* ops) {
      const double frac_b =
          static_cast<double>(Phase()) / static_cast<double>(kPhases - 1);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      std::uniform_int_distribution<uint32_t> in_a(
          0, static_cast<uint32_t>(half - 1));
      std::uniform_int_distribution<uint32_t> in_b(
          static_cast<uint32_t>(half), static_cast<uint32_t>(n - 1));
      FillBlock(*rng, *mix, [&](std::mt19937_64& r) {
        return coin(r) < frac_b ? in_b(r) : in_a(r);
      }, count, ops);
    }
    void BeforeBlock() { maint->Resume(); }
    void AfterRequests() {
      // The client re-balances at the end of every phase but the last,
      // so the next phase serves while the moved ranges migrate.
      const size_t phase = Phase();
      blocks++;
      if (phase + 1 >= kPhases || Phase() == phase) return;
      const int64_t s = NowNs();
      const bool published = mgr->RebalanceNow(/*force=*/true) != nullptr;
      const int64_t e = NowNs();
      if (trace) rec->spans.Add(kRebalance, rec->attempted, s, e);
      if (published) maint->Kick();
    }
    void AfterBlock() { maint->Pause(); }
  } hooks{&rng, &mix, half, u.keys.size(), blocks_per_phase, args.trace,
          &mgr, &maint, &rec};
  m.measured_s =
      args.trace ? MeasureBlocks<true>(target, u.keys, &shadow, block_ops,
                                       args.seconds, &rec, hooks)
                 : MeasureBlocks<false>(target, u.keys, &shadow, block_ops,
                                        args.seconds, &rec, hooks);
  m.polls = maint_spans.stats(kPollMigration);
  // Untimed: finish in-flight migration, so a key transiently held by
  // both owners of a moved range does not count twice in size().
  maint.Finish();
  maint.Stop();

  m.heap_growth = HeapInUse() - heap_before;
  m.live_keys = shadow.size();
  m.bytes_per_key = BytesPerKey(rec, heap_before, m);
  std::vector<std::string> live;
  live.reserve(shadow.size());
  shadow.ForEachLive([&](uint32_t id, uint64_t) { live.push_back(u.keys[id]); });
  m.cpr = hope::MeasureShardedCpr(mgr, EvenSample(live, 100000));
  const std::vector<std::string> probe_keys = EvenSample(u.keys, 4096);
  for (size_t s = 0; s < mgr.num_shards(); s++) {
    std::unique_ptr<hope::Hope> dict = mgr.shard(s).Acquire().hope->Clone();
    m.dict_bytes += dict->dict().MemoryBytes();
    const std::string props =
        CheckHopeProperties(*dict, probe_keys, args.seed + s, probe);
    result->Require(props.empty(), "shard " + std::to_string(s) + ": " + props);
  }
  m.entries_migrated = index.entries_migrated();
  m.plans_applied = index.plans_applied();
  m.resyncs = index.resyncs();
  m.slow_paths = index.lookup_slow_paths();
  m.rebalances = mgr.rebalances_published();
  m.rebuilds = mgr.rebuilds_published();
  m.rebuild_rejects = mgr.rebuilds_rejected();
  m.ebr_pending = mgr.reclaimer().pending();
  for (size_t s = 0; s < mgr.num_shards(); s++)
    m.ebr_pending += mgr.shard(s).reclaimer().pending();

  const size_t size = index.size();
  result->Require(CheckSize(shadow.size(), size),
                  "index size " + std::to_string(size) + " != expected " +
                      std::to_string(shadow.size()));
  // No public accessor covers the shards' trees, so only the
  // dictionaries' own accounting is bounded here.
  result->Require(CheckMemoryBound(0, m.dict_bytes, m.heap_growth),
                  "dictionary bytes exceed the heap growth");
  if (probe) {
    probe->Note(CheckProbe::kSizeShort, CheckSize(shadow.size(), size - 1));
    probe->Note(CheckProbe::kMemoryInflated,
                CheckMemoryBound(static_cast<size_t>(m.heap_growth) + 1,
                                 m.dict_bytes, m.heap_growth));
  }
  std::fprintf(stderr,
               "%s: %llu rebalances, %llu plans applied, %llu entries "
               "migrated, %llu rebuilds\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(m.rebalances),
               static_cast<unsigned long long>(m.plans_applied),
               static_cast<unsigned long long>(m.entries_migrated),
               static_cast<unsigned long long>(m.rebuilds));
  EmitMetrics(args, "serve", m, rec, result);
  if (args.trace) WriteTrace(args, "btree", {&rec.spans, &maint_spans});
}

// ---------------------------------------------------------------------------
// Workload table and entry points

/// Sizes: full runs, and the self-test's small ones.
/// The footprint block is reached within the first half of a 30 s run
/// even at half the reference host's speed, and serve_drift's falls in
/// its last phase, after the final re-balance.
struct Sizes {
  size_t email_keys, email_block, email_footprint;
  size_t url_keys, url_block, url_footprint;
  size_t drift_keys, drift_block, drift_blocks_per_phase, drift_footprint;
};
constexpr Sizes kFull{2200000, 200000, 24, 1100000, 40000, 64,
                      220000,  20000,  5,  40};
constexpr Sizes kSmall{30000, 4000, 8, 15000, 1000, 16, 20000, 2000, 5, 30};

bool RunWorkload(const Args& args, const Sizes& sz, CheckProbe* probe,
                 Result* result) {
  if (args.workload == "email_point") {
    const TreeSpec spec{hope::DatasetId::kEmail, sz.email_keys,
                        hope::Scheme::kThreeGrams, size_t{1} << 16,
                        Mix{0.90, 0.04, 0.04, 0.02, 1, 10}, sz.email_block,
                        sz.email_footprint};
    RunTree<Art>(args, spec, "art", probe, result);
  } else if (args.workload == "url_scan") {
    const TreeSpec spec{hope::DatasetId::kUrl, sz.url_keys,
                        hope::Scheme::kDoubleChar, size_t{1} << 16,
                        Mix{0.10, 0.15, 0.15, 0.60, 1, 100}, sz.url_block,
                        sz.url_footprint};
    RunTree<BTree>(args, spec, "btree", probe, result);
  } else if (args.workload == "serve_drift") {
    RunServeDrift(args, sz.drift_keys, sz.drift_block,
                  sz.drift_blocks_per_phase, sz.drift_footprint, probe, result);
  } else {
    return false;
  }
  return true;
}

int SelfTest(const Args& base) {
  CheckProbe probe;
  bool ok = true;
  for (const char* w : {"email_point", "url_scan", "serve_drift"}) {
    for (bool trace : {false, true}) {
      Args args = base;
      args.workload = w;
      args.seed = 7;
      args.seconds = 1.0;
      args.trace = trace;
      Result result;
      RunWorkload(args, kSmall, &probe, &result);
      const bool run_ok =
          result.correct && result.failed == 0 && result.attempted > 0;
      std::fprintf(stderr, "%s %s trace=%d: %llu requests, %llu failed\n",
                   run_ok ? "ok  " : "FAIL", w, trace ? 1 : 0,
                   static_cast<unsigned long long>(result.attempted),
                   static_cast<unsigned long long>(result.failed));
      for (const std::string& e : result.errors)
        std::fprintf(stderr, "      %s\n", e.c_str());
      ok &= run_ok;
    }
  }
  std::string report;
  ok &= probe.AllRefused(&report);
  std::fprintf(stderr, "deliberately wrong answers:\n%s", report.c_str());
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--selftest" || flag == "--uncompressed") {
      (flag == "--selftest" ? args->selftest : args->uncompressed) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0 && args->seconds <= 3600))
        return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace hopebench

int main(int argc, char** argv) {
  using namespace hopebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hopebench --workload <email_point|url_scan|"
                 "serve_drift> --seed <n> --seconds <s> --trace <0|1> "
                 "[--uncompressed] [--out-dir <dir>]\n"
                 "       hopebench --selftest [--out-dir <dir>]\n");
    return 2;
  }
  if (args.selftest) return SelfTest(args);
  if (args.uncompressed && args.workload == "serve_drift") {
    std::fprintf(stderr, "--uncompressed applies to the tree workloads\n");
    return 2;
  }
  Result result;
  if (!RunWorkload(args, kFull, nullptr, &result)) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("%s\n", result.Json().c_str());
  return 0;
}
