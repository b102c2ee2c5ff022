#include "src/core/histogram.h"

#include <charconv>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

namespace osprof {
namespace {

int BucketCountFor(int resolution) {
  if (resolution < 1 || resolution > 16) {
    throw std::invalid_argument("histogram resolution must be in [1, 16]");
  }
  return kMaxLog2Buckets * resolution;
}

// Builds the exact boundary table for one resolution.  Entry b is the
// smallest integer latency x with x^r >= 2^b, found by binary search over
// the exact predicate; entries at or beyond 2^64 saturate.
std::vector<Cycles> BuildBucketBounds(int resolution) {
  const int buckets = BucketCountFor(resolution);
  std::vector<Cycles> bounds(static_cast<std::size_t>(buckets) + 1, 0);
  for (int b = 1; b <= buckets; ++b) {
    if (b >= kMaxLog2Buckets * resolution) {
      // The bound would be 2^64, which Cycles cannot represent.
      bounds[static_cast<std::size_t>(b)] = ~Cycles{0};
      continue;
    }
    Cycles lo = 1;
    Cycles hi = ~Cycles{0};
    while (lo < hi) {
      const Cycles mid = lo + (hi - lo) / 2;
      if (internal::PowAtLeast(mid, resolution, b)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    bounds[static_cast<std::size_t>(b)] = lo;
  }
  return bounds;
}

}  // namespace

std::optional<std::uint64_t> ParseCount(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

namespace internal {

bool PowAtLeast(Cycles latency, int resolution, int exponent) {
  if (latency == 0) {
    return false;  // 0^r is 0, never >= 2^b.
  }
  // Compute latency^resolution exactly in 64-bit limbs (resolution <= 16,
  // so at most 16 limbs) and compare bit lengths: v >= 2^e iff v has at
  // least e + 1 bits.
  std::uint64_t limbs[17] = {1};
  int n = 1;
  for (int i = 0; i < resolution; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < n; ++j) {
      const unsigned __int128 v =
          static_cast<unsigned __int128>(limbs[j]) * latency + carry;
      limbs[j] = static_cast<std::uint64_t>(v);
      carry = v >> 64;
    }
    if (carry != 0) {
      limbs[n++] = static_cast<std::uint64_t>(carry);
    }
  }
  const int bit_length = 64 * (n - 1) + 64 - __builtin_clzll(limbs[n - 1]);
  return bit_length >= exponent + 1;
}

}  // namespace internal

const std::vector<Cycles>& BucketBounds(int resolution) {
  BucketCountFor(resolution);  // Validates the range.
  static const auto* tables = [] {
    auto* t = new std::vector<std::vector<Cycles>>(17);
    for (int r = 1; r <= 16; ++r) {
      (*t)[static_cast<std::size_t>(r)] = BuildBucketBounds(r);
    }
    return t;
  }();
  return (*tables)[static_cast<std::size_t>(resolution)];
}

Histogram::Histogram(int resolution)
    : resolution_(resolution),
      buckets_(static_cast<std::size_t>(BucketCountFor(resolution)), 0) {}

void Histogram::Merge(const Histogram& other) {
  if (other.resolution_ != resolution_) {
    throw std::invalid_argument("cannot merge histograms of different resolution");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  recorded_ += other.recorded_;
  total_latency_ += other.total_latency_;
}

void Histogram::set_bucket(int i, std::uint64_t count) {
  const std::uint64_t old = buckets_[static_cast<std::size_t>(i)];
  buckets_[static_cast<std::size_t>(i)] = count;
  // Keep the checksum and latency estimate coherent for synthetic profiles.
  recorded_ += count;
  recorded_ -= old;
  const double mid = BucketMidLatency(i, resolution_);
  total_latency_ += static_cast<Cycles>(mid * static_cast<double>(count));
  total_latency_ -= static_cast<Cycles>(mid * static_cast<double>(old));
}

std::uint64_t Histogram::TotalOperations() const {
  return std::accumulate(buckets_.begin(), buckets_.end(), std::uint64_t{0});
}

int Histogram::FirstNonEmpty() const {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int Histogram::LastNonEmpty() const {
  for (std::size_t i = buckets_.size(); i-- > 0;) {
    if (buckets_[i] != 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double Histogram::MeanLatency() const {
  const std::uint64_t n = TotalOperations();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(total_latency_) / static_cast<double>(n);
}

double Histogram::BucketedMeanLatency() const {
  const std::uint64_t n = TotalOperations();
  if (n == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      sum += static_cast<double>(buckets_[i]) *
             BucketMidLatency(static_cast<int>(i), resolution_);
    }
  }
  return sum / static_cast<double>(n);
}

std::vector<double> Histogram::Normalized() const {
  std::vector<double> out(buckets_.size(), 0.0);
  const std::uint64_t n = TotalOperations();
  if (n == 0) {
    return out;
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = static_cast<double>(buckets_[i]) / static_cast<double>(n);
  }
  return out;
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  recorded_ = 0;
  total_latency_ = 0;
}

AtomicHistogram::AtomicHistogram(int resolution)
    : resolution_(resolution),
      buckets_(static_cast<std::size_t>(BucketCountFor(resolution))) {}

Histogram AtomicHistogram::Snapshot() const {
  Histogram out(resolution_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out.set_bucket(static_cast<int>(i),
                   buckets_[i].load(std::memory_order_relaxed));
  }
  // set_bucket() estimated the totals from bucket mid-points; the atomic
  // counters carry the exact values.
  out.SetTotals(recorded_.load(std::memory_order_relaxed),
                total_latency_.load(std::memory_order_relaxed));
  return out;
}

namespace {
// Each ShardedHistogram instance gets a process-unique id so the
// thread-local shard cache can never resolve to a stale instance that was
// destroyed and re-allocated at the same address.
std::atomic<std::uint64_t> g_sharded_histogram_ids{1};

struct ShardKey {
  std::uint64_t id;
  bool operator==(const ShardKey& o) const { return id == o.id; }
};

struct ShardKeyHash {
  std::size_t operator()(const ShardKey& k) const {
    return std::hash<std::uint64_t>{}(k.id);
  }
};
}  // namespace

Histogram* ShardedHistogram::Local() {
  thread_local std::unordered_map<ShardKey, Histogram*, ShardKeyHash> cache;
  if (id_ == 0) {
    // Lazily assign the unique id (constructor is constexpr-light).
    std::uint64_t expected = 0;
    std::uint64_t fresh =
        g_sharded_histogram_ids.fetch_add(1, std::memory_order_relaxed);
    id_.compare_exchange_strong(expected, fresh, std::memory_order_relaxed);
  }
  const ShardKey key{id_.load(std::memory_order_relaxed)};
  auto it = cache.find(key);
  if (it != cache.end()) {
    return it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Histogram>(resolution_));
  Histogram* shard = shards_.back().get();
  cache.emplace(key, shard);
  return shard;
}

Histogram ShardedHistogram::Merge() const {
  Histogram out(resolution_);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    out.Merge(*shard);
  }
  return out;
}

int ShardedHistogram::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(shards_.size());
}

}  // namespace osprof
