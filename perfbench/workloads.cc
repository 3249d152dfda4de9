// Workloads drive the library only through its public API: RecoveryEngine,
// TxnManager, Btree and SaveDiskImage/LoadDiskImage. One closed-loop
// client issues the next user op when the previous one returns; no
// simulated device latency is configured anywhere.
#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "domains/btree/btree.h"
#include "engine/recovery_engine.h"
#include "engine/txn_manager.h"
#include "metric_math.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/op_builder.h"
#include "storage/disk_image.h"
#include "storage/simulated_disk.h"
#include "trace_ledger.h"

namespace perfbench {
namespace {

using loglog::Btree;
using loglog::BtreeOptions;
using loglog::EngineOptions;
using loglog::IoStats;
using loglog::MetricsRegistry;
using loglog::MetricsSnapshot;
using loglog::ObjectId;
using loglog::ObjectValue;
using loglog::OperationDesc;
using loglog::Random;
using loglog::RecoveryEngine;
using loglog::RecoveryStats;
using loglog::SimulatedDisk;
using loglog::Slice;
using loglog::Status;
using loglog::TraceRecorder;
using loglog::TraceSpan;
using loglog::TxnManager;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
// A measured phase collects at least this many latency samples of each op
// kind it issues, so that every p99 has 20 samples beyond it.
constexpr size_t kMinLatencySamples = 2048;
// The restart workload recovers its crash image at least this many times.
constexpr size_t kMinRecoveries = 20;
// ops_per_s is taken at this quantile of the run's maintenance-cycle (or
// Recover()) times: the cost of the fastest twentieth of the run. The host
// switches between a fast and a ~1.5x slower state for seconds to minutes
// at a time, so a median or mean moves with the share of the run spent
// slow; this quantile does not until that share passes 95%. Of the
// quantiles tried it had the smallest worst-case spread over ten runs on
// the gated workloads (NOTES.md, Noise).
constexpr double kCycleQuantile = 0.05;
// The recovery phases' spans must cover the traced Recover() of the
// restart workload to within this share of its time.
constexpr double kMaxPhaseGap = 0.10;
// Objects per read user op of txn_logstore.
constexpr size_t kReadBatch = 16;

void FillRandom(Random* rng, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng->Next();
    std::memcpy(out + i, &v, std::min<size_t>(8, n - i));
  }
}

// Resident-set figures from /proc/self/status, in MB (0 if unreadable).
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::stod(line.substr(key_len + 1)) / 1024.0;
    }
  }
  return 0.0;
}
double PeakRssMb() { return ProcStatusMb("VmHWM"); }
double RssMb() { return ProcStatusMb("VmRSS"); }

enum class OpKind { kWrite, kRead };

// Counter state over the count window: the first count_window_ops() user
// ops of a measured phase (or the restart workload's load), which repeat
// exactly for a fixed seed.
struct WindowCounts {
  uint64_t ops = 0;
  uint64_t user_bytes = 0;
  IoStats io;
  MetricsSnapshot metrics;
  Footprint footprint;
  /// Process peak RSS so far: set-ups plus the window, a fixed amount of
  /// work (later phases run for a time, not an op count).
  double peak_rss_mb = 0.0;
  uint64_t btree_inserts = 0;
  uint64_t btree_splits = 0;
};

class ForwardWorkload;

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  virtual EngineOptions Options() const = 0;
  /// Builds the starting state from the seed on a fresh disk.
  virtual Status Setup() = 0;
  /// The workload's forward phase of user ops, or nullptr when it has
  /// none (restart).
  virtual ForwardWorkload* forward() { return nullptr; }
  /// The crashed disk a restart recovers: the workload's own disk, or a
  /// copy of a crash image loaded into `spare`.
  virtual Status CrashedDisk(SimulatedDisk* /*spare*/, SimulatedDisk** disk) {
    *disk = disk_.get();
    return Status::OK();
  }
  virtual uint64_t LiveUserBytes() const = 0;
  /// Compares every `stride`-th object or key of a recovered engine with
  /// the shadow copy of acknowledged writes.
  virtual Status Verify(RecoveryEngine* engine, size_t stride,
                        uint64_t* checked, uint64_t* mismatches) = 0;
  /// The first restart of a run checks every object or key; the further
  /// restarts of a traced run check every resample_stride()-th.
  virtual size_t resample_stride() const { return 1; }

  SimulatedDisk* disk() { return disk_.get(); }
  RecoveryEngine* engine() { return engine_.get(); }
  uint64_t user_bytes_written() const { return user_bytes_; }
  const WindowCounts& setup_counts() const { return setup_counts_; }

  /// Device bytes held now against the live user bytes.
  Footprint Measure() const {
    Footprint f;
    disk_->store().ForEach([&](ObjectId, const loglog::StoredObject& o) {
      f.store_bytes += o.value.size();
    });
    f.log_bytes = disk_->log().retained_bytes();
    f.cold_bytes = disk_->log().cold_tier().total_bytes();
    f.live_user_bytes = LiveUserBytes();
    return f;
  }

 protected:
  /// Releases whatever holds a pointer to the engine before it dies.
  virtual void DropEngine() {}

  // The device keeps its default archive: truncated log bytes spill to
  // the cold tier, which disk images carry and space_amp counts.
  void NewDisk() {
    DropEngine();
    engine_.reset();
    disk_ = std::make_unique<SimulatedDisk>();
  }

  uint64_t seed_;
  Random rng_{1};
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<RecoveryEngine> engine_;
  uint64_t user_bytes_ = 0;
  WindowCounts setup_counts_;
};

// A workload with a measured phase of closed-loop user ops, crashed after
// it and restarted on its own disk.
class ForwardWorkload : public Workload {
 public:
  using Workload::Workload;
  ForwardWorkload* forward() override { return this; }

  /// One closed-loop user op.
  virtual Status Step(OpKind* kind) = 0;
  virtual uint64_t count_window_ops() const = 0;
  /// User ops between two calls of Maintain().
  virtual uint64_t maintenance_every() const = 0;
  /// The periodic maintenance a deployment would schedule: a checkpoint.
  virtual Status Maintain() { return engine_->Checkpoint(); }
  virtual uint64_t btree_inserts() const { return 0; }
  virtual uint64_t btree_splits() const { return 0; }

  /// The crash: forces the log, then drops all volatile state. The disk
  /// stays for the restart.
  Status Crash() {
    Status st = engine_->log().ForceAll();
    DropEngine();
    engine_.reset();
    return st;
  }
};

// ---------------------------------------------------------------------------
// The logical mix shared by logical_hot and restart: 30% MakeCopy, 20%
// two-source MakeXorMerge, 25% 16 B MakeDelta, 25% full MakePhysicalWrite.
// 80% of object picks go to the tenant's hot objects; every op stays in
// one tenant.
class LogicalMix {
 public:
  LogicalMix(size_t tenants, size_t per_tenant, size_t hot_per_tenant,
             size_t value_bytes)
      : tenants_(tenants),
        per_tenant_(per_tenant),
        hot_(hot_per_tenant),
        value_bytes_(value_bytes) {}

  size_t objects() const { return tenants_ * per_tenant_; }
  size_t value_bytes() const { return value_bytes_; }
  static ObjectId Id(size_t index) { return 1 + index; }

  enum class Kind { kCopy, kXor, kDelta, kPhysical };

  /// One drawn op and what Apply needs to mirror it in a shadow copy.
  struct Drawn {
    OperationDesc op;
    Kind kind = Kind::kCopy;
    size_t a = 0, b = 0, c = 0;
    uint64_t offset = 0;
    std::vector<uint8_t> bytes;
    uint64_t user_bytes = 0;
  };

  Drawn Draw(Random* rng) const {
    Drawn d;
    const size_t base = rng->Uniform(tenants_) * per_tenant_;
    auto pick = [&] {
      return base + (rng->Uniform(100) < 80 ? rng->Uniform(hot_)
                                            : rng->Uniform(per_tenant_));
    };
    const uint64_t r = rng->Uniform(100);
    if (r < 30) {
      d.kind = Kind::kCopy;
      d.a = pick();
      do d.b = pick(); while (d.b == d.a);
      d.op = loglog::MakeCopy(Id(d.a), Id(d.b));
      d.user_bytes = value_bytes_;
    } else if (r < 50) {
      d.kind = Kind::kXor;
      d.a = pick();
      do d.b = pick(); while (d.b == d.a);
      do d.c = pick(); while (d.c == d.a || d.c == d.b);
      d.op = loglog::MakeXorMerge(Id(d.a), {Id(d.b), Id(d.c)});
      d.user_bytes = value_bytes_;
    } else if (r < 75) {
      d.kind = Kind::kDelta;
      d.a = pick();
      d.offset = rng->Uniform(value_bytes_ - 16 + 1);
      d.bytes.resize(16);
      FillRandom(rng, d.bytes.data(), d.bytes.size());
      d.op = loglog::MakeDelta(Id(d.a), d.offset, Slice(d.bytes));
      d.user_bytes = d.bytes.size();
    } else {
      d.kind = Kind::kPhysical;
      d.a = pick();
      d.bytes.resize(value_bytes_);
      FillRandom(rng, d.bytes.data(), d.bytes.size());
      d.op = loglog::MakePhysicalWrite(Id(d.a), Slice(d.bytes));
      d.user_bytes = d.bytes.size();
    }
    return d;
  }

  static void Apply(const Drawn& d, std::vector<ObjectValue>* shadow) {
    std::vector<ObjectValue>& s = *shadow;
    switch (d.kind) {
      case Kind::kCopy:
        s[d.a] = s[d.b];
        break;
      case Kind::kXor:
        for (size_t i = 0; i < s[d.a].size(); ++i) {
          s[d.a][i] = s[d.b][i] ^ s[d.c][i];
        }
        break;
      case Kind::kDelta:
        std::memcpy(s[d.a].data() + d.offset, d.bytes.data(), d.bytes.size());
        break;
      case Kind::kPhysical:
        s[d.a] = d.bytes;
        break;
    }
  }

  /// Creates every object with a random value and mirrors it in `shadow`.
  Status Preload(RecoveryEngine* engine, Random* rng,
                 std::vector<ObjectValue>* shadow) const {
    shadow->assign(objects(), ObjectValue(value_bytes_));
    for (size_t i = 0; i < objects(); ++i) {
      FillRandom(rng, (*shadow)[i].data(), value_bytes_);
      LOGLOG_RETURN_IF_ERROR(
          engine->Execute(loglog::MakeCreate(Id(i), Slice((*shadow)[i]))));
    }
    return Status::OK();
  }

  /// Reads every `stride`-th object back and compares it with `shadow`.
  static Status Verify(RecoveryEngine* engine,
                       const std::vector<ObjectValue>& shadow, size_t stride,
                       uint64_t* checked, uint64_t* mismatches) {
    ObjectValue got;
    for (size_t i = 0; i < shadow.size(); i += stride) {
      Status st;
      {
        TraceSpan span("bench.read", "bench");
        st = engine->Read(Id(i), &got);
      }
      ++*checked;
      if (!st.ok() || got != shadow[i]) ++*mismatches;
    }
    return Status::OK();
  }

 private:
  size_t tenants_, per_tenant_, hot_, value_bytes_;
};

// logical_hot: the engine and graph path. Execute stream over 64k objects
// of 512 B, 64 hot objects, default EngineOptions with an unbounded cache.
class LogicalHot : public ForwardWorkload {
 public:
  using ForwardWorkload::ForwardWorkload;
  EngineOptions Options() const override { return EngineOptions{}; }
  uint64_t count_window_ops() const override { return 60'000; }
  uint64_t maintenance_every() const override { return 4096; }
  uint64_t LiveUserBytes() const override {
    return mix_.objects() * mix_.value_bytes();
  }

  Status Setup() override {
    NewDisk();
    rng_ = Random(seed_);
    engine_ = std::make_unique<RecoveryEngine>(Options(), disk_.get());
    LOGLOG_RETURN_IF_ERROR(mix_.Preload(engine_.get(), &rng_, &shadow_));
    return engine_->Checkpoint();
  }

  Status Step(OpKind* kind) override {
    *kind = OpKind::kWrite;
    LogicalMix::Drawn d = mix_.Draw(&rng_);
    {
      TraceSpan span("bench.execute", "bench");
      LOGLOG_RETURN_IF_ERROR(engine_->Execute(d.op));
    }
    LogicalMix::Apply(d, &shadow_);
    user_bytes_ += d.user_bytes;
    return Status::OK();
  }

  Status Verify(RecoveryEngine* engine, size_t stride, uint64_t* checked,
                uint64_t* mismatches) override {
    return LogicalMix::Verify(engine, shadow_, stride, checked, mismatches);
  }

 private:
  LogicalMix mix_{1, 64 * 1024, 64, 512};
  std::vector<ObjectValue> shadow_;
};

// restart: 4 object-disjoint tenants x 1024 objects of 4 KB are created,
// then run 20k ops of the logical mix, with automatic purging off and no
// checkpoint; the crash image carries the creates and the whole load as
// redo backlog.
class Restart : public Workload {
 public:
  using Workload::Workload;
  static constexpr uint64_t kLoadOps = 20'000;

  EngineOptions Options() const override {
    EngineOptions o;
    o.purge_threshold_ops = 0;
    o.recovery.redo_threads = 2;
    return o;
  }
  uint64_t LiveUserBytes() const override {
    return mix_.objects() * mix_.value_bytes();
  }
  Status CrashedDisk(SimulatedDisk* spare, SimulatedDisk** disk) override {
    *disk = spare;
    return loglog::LoadDiskImage(Slice(image_), spare);
  }

  Status Setup() override {
    NewDisk();
    rng_ = Random(seed_);
    engine_ = std::make_unique<RecoveryEngine>(Options(), disk_.get());
    LOGLOG_RETURN_IF_ERROR(mix_.Preload(engine_.get(), &rng_, &shadow_));
    const IoStats io0 = disk_->stats();
    const MetricsSnapshot m0 = MetricsRegistry::Global().Snapshot();
    user_bytes_ = 0;
    for (uint64_t i = 0; i < kLoadOps; ++i) {
      LogicalMix::Drawn d = mix_.Draw(&rng_);
      LOGLOG_RETURN_IF_ERROR(engine_->Execute(d.op));
      LogicalMix::Apply(d, &shadow_);
      user_bytes_ += d.user_bytes;
    }
    LOGLOG_RETURN_IF_ERROR(engine_->log().ForceAll());
    setup_counts_.ops = kLoadOps;
    setup_counts_.user_bytes = user_bytes_;
    setup_counts_.io = disk_->stats().Delta(io0);
    setup_counts_.metrics = MetricsRegistry::Global().Snapshot().Delta(m0);
    setup_counts_.footprint = Measure();
    setup_counts_.peak_rss_mb = PeakRssMb();
    loglog::SaveDiskImage(*disk_, &image_);
    engine_.reset();
    disk_.reset();
    return Status::OK();
  }

  Status Verify(RecoveryEngine* engine, size_t stride, uint64_t* checked,
                uint64_t* mismatches) override {
    return LogicalMix::Verify(engine, shadow_, stride, checked, mismatches);
  }

 private:
  LogicalMix mix_{4, 1024, 16, 4096};
  std::vector<ObjectValue> shadow_;
  std::vector<uint8_t> image_;
};

// btree_kv: reads beside writes, larger than cache. A Btree with logical
// splits and 64 B values, preloaded with 100k keys, then 50% Get / 50%
// Insert on uniform keys, half the inserts overwriting.
class BtreeKv : public ForwardWorkload {
 public:
  using ForwardWorkload::ForwardWorkload;
  static constexpr size_t kPreloadKeys = 100'000;
  static constexpr size_t kValueBytes = 64;

  EngineOptions Options() const override {
    EngineOptions o;
    o.cache_capacity_objects = 256;
    return o;
  }
  uint64_t count_window_ops() const override { return 240'000; }
  uint64_t maintenance_every() const override { return 4096; }
  uint64_t LiveUserBytes() const override {
    return shadow_.size() * (sizeof(uint64_t) + kValueBytes);
  }
  // A full check is ~150k Gets; later restarts sample.
  size_t resample_stride() const override { return 16; }
  uint64_t btree_inserts() const override {
    return tree_ ? tree_->stats().inserts : 0;
  }
  uint64_t btree_splits() const override {
    return tree_ ? tree_->stats().splits : 0;
  }

  Status Setup() override {
    NewDisk();
    rng_ = Random(seed_);
    shadow_.clear();
    keys_.clear();
    {
      // Preload through an unbounded cache that purges every 16 ops (the
      // graph work per insert grows with the backlog), install
      // everything, then reopen on the same disk with the serving cache.
      EngineOptions load = Options();
      load.cache_capacity_objects = 0;
      load.purge_threshold_ops = 16;
      RecoveryEngine loader(load, disk_.get());
      Btree tree(&loader, Tree());
      LOGLOG_RETURN_IF_ERROR(tree.Open());
      for (size_t i = 0; i < kPreloadKeys; ++i) {
        LOGLOG_RETURN_IF_ERROR(InsertNew(&tree));
      }
      LOGLOG_RETURN_IF_ERROR(loader.FlushAll());
      LOGLOG_RETURN_IF_ERROR(loader.Checkpoint());
    }
    engine_ = std::make_unique<RecoveryEngine>(Options(), disk_.get());
    LOGLOG_RETURN_IF_ERROR(engine_->Recover());
    tree_ = std::make_unique<Btree>(engine_.get(), Tree());
    return tree_->Open();
  }

  Status Step(OpKind* kind) override {
    const uint64_t r = rng_.Uniform(4);
    if (r < 2) {
      *kind = OpKind::kRead;
      const uint64_t key = keys_[rng_.Uniform(keys_.size())];
      std::vector<uint8_t> got;
      {
        TraceSpan span("bench.btree_get", "bench");
        LOGLOG_RETURN_IF_ERROR(tree_->Get(key, &got));
      }
      if (got != shadow_[key]) {
        return Status::Corruption("btree get returned a stale value");
      }
      return Status::OK();
    }
    *kind = OpKind::kWrite;
    if (r == 2) {
      const uint64_t key = keys_[rng_.Uniform(keys_.size())];
      std::vector<uint8_t> value(kValueBytes);
      FillRandom(&rng_, value.data(), value.size());
      {
        TraceSpan span("bench.btree_insert", "bench");
        LOGLOG_RETURN_IF_ERROR(tree_->Insert(key, Slice(value)));
      }
      shadow_[key] = std::move(value);
      user_bytes_ += sizeof(uint64_t) + kValueBytes;
      return Status::OK();
    }
    return InsertNew(tree_.get());
  }

  Status Verify(RecoveryEngine* engine, size_t stride, uint64_t* checked,
                uint64_t* mismatches) override {
    Btree tree(engine, Tree());
    LOGLOG_RETURN_IF_ERROR(tree.Open());
    ++*checked;
    if (!tree.Validate().ok()) ++*mismatches;
    std::vector<uint8_t> got;
    for (size_t i = 0; i < keys_.size(); i += stride) {
      const uint64_t key = keys_[i];
      ++*checked;
      Status st;
      {
        TraceSpan span("bench.btree_get", "bench");
        st = tree.Get(key, &got);
      }
      if (!st.ok() || got != shadow_.at(key)) ++*mismatches;
    }
    return Status::OK();
  }

 protected:
  void DropEngine() override { tree_.reset(); }

 private:
  static BtreeOptions Tree() {
    BtreeOptions b;
    b.logical_splits = true;
    return b;
  }

  Status InsertNew(Btree* tree) {
    uint64_t key;
    do key = rng_.Next() >> 1; while (shadow_.contains(key));
    std::vector<uint8_t> value(kValueBytes);
    FillRandom(&rng_, value.data(), value.size());
    {
      TraceSpan span("bench.btree_insert", "bench");
      LOGLOG_RETURN_IF_ERROR(tree->Insert(key, Slice(value)));
    }
    shadow_.emplace(key, std::move(value));
    keys_.push_back(key);
    user_bytes_ += sizeof(uint64_t) + kValueBytes;
    return Status::OK();
  }

  std::unique_ptr<Btree> tree_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> shadow_;
  std::vector<uint64_t> keys_;
};

// txn_logstore: forced commits and reads served from the log. Update
// transactions of 4 writes (two 256 B images, two 32 B deltas) over 32k
// objects; 20% of user ops are a 16-object read batch. kLogStore with
// kNativeAtomic, a compaction pass every 256 user ops and cold-segment GC.
class TxnLogstore : public ForwardWorkload {
 public:
  using ForwardWorkload::ForwardWorkload;
  static constexpr size_t kObjects = 32 * 1024;
  static constexpr size_t kValueBytes = 256;
  static constexpr size_t kDeltaBytes = 32;

  EngineOptions Options() const override {
    EngineOptions o;
    o.backend = loglog::StorageBackend::kLogStore;
    o.flush_policy = loglog::FlushPolicy::kNativeAtomic;
    o.cache_capacity_objects = 1024;
    o.logstore.compact_batch_objects = 256;
    o.logstore.cold_retention_full = false;
    return o;
  }
  uint64_t count_window_ops() const override { return 20'000; }
  uint64_t maintenance_every() const override { return 256; }
  /// A compaction pass: re-logs the oldest live images at the tail, then
  /// checkpoints so truncation and cold-segment GC reclaim the prefix.
  Status Maintain() override { return engine_->Compact(); }
  uint64_t LiveUserBytes() const override { return kObjects * kValueBytes; }

  Status Setup() override {
    NewDisk();
    // Cold segments are the GC unit; small ones let space level off.
    disk_->log().set_cold_segment_target(64 * 1024);
    rng_ = Random(seed_);
    txns_.reset();
    engine_ = std::make_unique<RecoveryEngine>(Options(), disk_.get());
    shadow_.assign(kObjects, ObjectValue(kValueBytes));
    for (size_t i = 0; i < kObjects; ++i) {
      FillRandom(&rng_, shadow_[i].data(), kValueBytes);
      LOGLOG_RETURN_IF_ERROR(
          engine_->Execute(loglog::MakeCreate(Id(i), Slice(shadow_[i]))));
    }
    LOGLOG_RETURN_IF_ERROR(engine_->FlushAll());
    LOGLOG_RETURN_IF_ERROR(engine_->Checkpoint());
    txns_ = std::make_unique<TxnManager>(engine_.get());
    return Status::OK();
  }

  Status Step(OpKind* kind) override {
    if (rng_.Uniform(5) == 0) {
      *kind = OpKind::kRead;
      ObjectValue v;
      for (size_t i = 0; i < kReadBatch; ++i) {
        const size_t idx = rng_.Uniform(kObjects);
        {
          TraceSpan span("bench.read", "bench");
          LOGLOG_RETURN_IF_ERROR(engine_->Read(Id(idx), &v));
        }
        if (v != shadow_[idx]) {
          return Status::Corruption("read returned a stale value");
        }
      }
      return Status::OK();
    }
    *kind = OpKind::kWrite;
    size_t idx[4];
    for (int i = 0; i < 4; ++i) {
      bool dup;
      do {
        idx[i] = rng_.Uniform(kObjects);
        dup = std::find(idx, idx + i, idx[i]) != idx + i;
      } while (dup);
    }
    ObjectValue images[2];
    uint8_t delta[2][kDeltaBytes];
    uint64_t offsets[2];
    std::vector<OperationDesc> ops;
    for (int i = 0; i < 2; ++i) {
      images[i].resize(kValueBytes);
      FillRandom(&rng_, images[i].data(), kValueBytes);
      ops.push_back(loglog::MakePhysicalWrite(Id(idx[i]), Slice(images[i])));
    }
    for (int i = 0; i < 2; ++i) {
      offsets[i] = rng_.Uniform(kValueBytes - kDeltaBytes + 1);
      FillRandom(&rng_, delta[i], kDeltaBytes);
      ops.push_back(loglog::MakeDelta(Id(idx[2 + i]), offsets[i],
                                      Slice(delta[i], kDeltaBytes)));
    }
    loglog::TxnId id = 0;
    {
      TraceSpan span("bench.txn_begin", "bench");
      LOGLOG_RETURN_IF_ERROR(txns_->Begin(&id));
    }
    for (const OperationDesc& op : ops) {
      TraceSpan span("bench.txn_execute", "bench");
      LOGLOG_RETURN_IF_ERROR(txns_->Execute(id, op));
    }
    {
      TraceSpan span("bench.txn_commit", "bench");
      LOGLOG_RETURN_IF_ERROR(txns_->Commit(id));
    }
    for (int i = 0; i < 2; ++i) shadow_[idx[i]] = images[i];
    for (int i = 0; i < 2; ++i) {
      std::memcpy(shadow_[idx[2 + i]].data() + offsets[i], delta[i],
                  kDeltaBytes);
    }
    user_bytes_ += 2 * kValueBytes + 2 * kDeltaBytes;
    return Status::OK();
  }

  Status Verify(RecoveryEngine* engine, size_t stride, uint64_t* checked,
                uint64_t* mismatches) override {
    ObjectValue v;
    for (size_t i = 0; i < kObjects; i += stride) {
      ++*checked;
      Status st;
      {
        TraceSpan span("bench.read", "bench");
        st = engine->Read(Id(i), &v);
      }
      if (!st.ok() || v != shadow_[i]) ++*mismatches;
    }
    return Status::OK();
  }

 protected:
  void DropEngine() override { txns_.reset(); }

 private:
  static ObjectId Id(size_t index) { return 1 + index; }

  std::unique_ptr<TxnManager> txns_;
  std::vector<ObjectValue> shadow_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "logical_hot") return std::make_unique<LogicalHot>(seed);
  if (name == "btree_kv") return std::make_unique<BtreeKv>(seed);
  if (name == "txn_logstore") return std::make_unique<TxnLogstore>(seed);
  if (name == "restart") return std::make_unique<Restart>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Measurement.

struct PhaseResult {
  uint64_t ops = 0;
  double seconds = 0.0;
  /// Wall time of each whole maintenance cycle: its user ops and the
  /// Maintain() that ends it.
  std::vector<double> cycle_s;
  std::vector<double> write_us;
  std::vector<double> read_us;
  WindowCounts window;
};

struct RestartResult {
  double recover_s = 0.0;
  RecoveryStats stats;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
};

/// One restart: a fresh engine on the workload's crashed disk (`spare`
/// holds a loaded crash image), Recover(), then the durability check of
/// every `stride`-th object or key. Recovery leaves the stable state as the
/// crash left it, so every recovery of one crash replays the same log.
Status RestartOnce(Workload* w, int redo_threads, size_t stride,
                   RestartResult* out) {
  SimulatedDisk spare;
  SimulatedDisk* disk = nullptr;
  LOGLOG_RETURN_IF_ERROR(w->CrashedDisk(&spare, &disk));
  EngineOptions o = w->Options();
  if (redo_threads > 0) o.recovery.redo_threads = redo_threads;
  RecoveryEngine engine(o, disk);
  out->rss_before_mb = RssMb();
  const auto t0 = Clock::now();
  {
    TraceSpan span("bench.recover", "bench");
    LOGLOG_RETURN_IF_ERROR(engine.Recover(&out->stats));
  }
  out->recover_s = Since(t0);
  out->rss_after_mb = RssMb();
  return w->Verify(&engine, stride, &out->checked, &out->mismatches);
}

void Fail(Report* r, const std::string& what, const Status& st) {
  r->correct = false;
  ++r->failed;
  if (r->error.empty()) r->error = what + ": " + st.ToString();
}

void CountVerify(Report* r, const RestartResult& rr) {
  r->attempted += rr.checked;
  r->failed += rr.mismatches;
  if (rr.mismatches != 0) {
    r->correct = false;
    if (r->error.empty()) {
      r->error = std::to_string(rr.mismatches) +
                 " objects or keys differ from acknowledged writes after "
                 "recovery";
    }
  }
}

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Runs user ops for `seconds`, and at least until the count window and
/// kMinLatencySamples of each op kind are complete. The phase ends at the
/// end of a maintenance cycle, before its Maintain(), so the crash after
/// it leaves a whole cycle of log behind the last checkpoint.
Status RunPhase(ForwardWorkload* w, double seconds, TraceLedger* ledger,
                PhaseResult* out) {
  const uint64_t cycle = w->maintenance_every();
  SimulatedDisk* disk = w->disk();
  const IoStats io0 = disk->stats();
  const MetricsSnapshot m0 = MetricsRegistry::Global().Snapshot();
  const uint64_t bytes0 = w->user_bytes_written();
  const uint64_t inserts0 = w->btree_inserts();
  const uint64_t splits0 = w->btree_splits();
  const auto t0 = Clock::now();
  auto cycle_t0 = t0;
  while (true) {
    OpKind kind;
    const auto a = Clock::now();
    LOGLOG_RETURN_IF_ERROR(w->Step(&kind));
    const auto b = Clock::now();
    (kind == OpKind::kRead ? out->read_us : out->write_us)
        .push_back(MicrosBetween(a, b));
    ++out->ops;
    if (out->ops == w->count_window_ops()) {
      WindowCounts& c = out->window;
      c.ops = out->ops;
      c.user_bytes = w->user_bytes_written() - bytes0;
      c.io = disk->stats().Delta(io0);
      c.metrics = MetricsRegistry::Global().Snapshot().Delta(m0);
      c.footprint = w->Measure();
      c.peak_rss_mb = PeakRssMb();
      c.btree_inserts = w->btree_inserts() - inserts0;
      c.btree_splits = w->btree_splits() - splits0;
    }
    if (ledger != nullptr && out->ops % 256 == 0) ledger->Drain();
    if (out->ops % cycle != 0) continue;
    const bool reads_ok = out->read_us.empty() ||
                          out->read_us.size() >= kMinLatencySamples;
    if (out->ops >= w->count_window_ops() &&
        out->write_us.size() >= kMinLatencySamples && reads_ok &&
        Since(t0) >= seconds) {
      break;
    }
    {
      TraceSpan span("bench.checkpoint", "bench");
      LOGLOG_RETURN_IF_ERROR(w->Maintain());
    }
    const auto now = Clock::now();
    out->cycle_s.push_back(
        std::chrono::duration<double>(now - cycle_t0).count());
    cycle_t0 = now;
  }
  out->seconds = Since(t0);
  if (ledger != nullptr) ledger->Drain();
  return Status::OK();
}

// Adds p50 and p99 of `samples` as <prefix>_p50_us / <prefix>_p99_us with
// a note stating the sample count; 0 when the phase had no such op. A p99
// with fewer than kMinBeyond samples beyond it fails the run.
void AddLatency(Report* r, const std::string& prefix,
                std::vector<double> samples) {
  if (samples.empty()) {
    r->Add(prefix + "_p50_us", 0.0, "us");
    r->Add(prefix + "_p99_us", 0.0, "us");
    return;
  }
  const Quantile p50 = Percentile(&samples, 0.50);
  const Quantile p99 = Percentile(&samples, 0.99);
  r->Add(prefix + "_p50_us", p50.value, "us");
  r->Add(prefix + "_p99_us", p99.value, "us");
  r->notes.push_back(prefix + " latency: n=" + std::to_string(p99.samples) +
                     ", " + std::to_string(p99.beyond) +
                     " samples beyond p99");
  if (!p99.supported) {
    r->correct = false;
    if (r->error.empty()) {
      r->error = prefix + " p99 has fewer than 10 samples beyond it";
    }
  }
}

uint64_t Counter(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

// Merges every labeled instance of histogram `name`.
loglog::Histogram Hist(const MetricsSnapshot& m, const std::string& name) {
  loglog::Histogram h;
  for (const auto& [full, hist] : m.histograms) {
    if (full == name || full.rfind(name + "{", 0) == 0) h.Merge(hist);
  }
  return h;
}

// The count metrics, which repeat exactly for a fixed seed. They are
// end-to-end metrics too unless the run is traced.
void AddCounts(Report* r, const WindowCounts& c, uint64_t ops_redone,
               bool as_metrics) {
  const double ops = static_cast<double>(c.ops);
  r->counts.push_back(
      {"log_bytes_per_op", PerOp(static_cast<double>(c.io.log_bytes), ops),
       "B/op"});
  r->counts.push_back(
      {"device_writes_per_op",
       PerOp(static_cast<double>(c.io.TotalWrites() + c.io.log_forces), ops),
       "1/op"});
  r->counts.push_back(
      {"forces_per_op", PerOp(static_cast<double>(c.io.log_forces), ops),
       "1/op"});
  r->counts.push_back({"space_amp", SpaceAmp(c.footprint), "ratio"});
  if (as_metrics) {
    for (const Metric& m : r->counts) r->metrics.push_back(m);
  }
  r->counts.push_back({"recovery.ops_redone",
                       static_cast<double>(ops_redone), "count"});
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

// "p5/p10/p20/p30/p50/p90 a/b/c/d/e/f s" of `values`, for the notes.
std::string Spread(std::vector<double> values) {
  std::string out = "p5/p10/p20/p30/p50/p90";
  char sep = ' ';
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.5, 0.9}) {
    out += sep + Fixed(Percentile(&values, q).value);
    sep = '/';
  }
  return out + " s";
}

void RunEndToEnd(Workload* w, double seconds, Report* r) {
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    Status st = w->Setup();
    setups.push_back(Since(t0));
    if (!st.ok()) return Fail(r, "setup", st);
  }
  r->Add("setup_s", Median(setups), "s");

  ForwardWorkload* fw = w->forward();
  RestartResult rr;
  if (fw != nullptr) {
    // The measured phase, then the durability check: crash, recover,
    // compare every object or key.
    PhaseResult phase;
    Status st = RunPhase(fw, seconds, nullptr, &phase);
    r->attempted += phase.ops + (st.ok() ? 0 : 1);
    if (!st.ok()) return Fail(r, "measured phase", st);
    st = fw->Crash();
    if (st.ok()) st = RestartOnce(w, 0, 1, &rr);
    if (!st.ok()) return Fail(r, "restart", st);
    CountVerify(r, rr);
    const double cycle_ops = static_cast<double>(fw->maintenance_every());
    const double cycle_s = Percentile(&phase.cycle_s, kCycleQuantile).value;
    r->Add("ops_per_s", PerOp(cycle_ops, cycle_s), "1/s");
    r->notes.push_back(
        "ops_per_s: " + std::to_string(phase.cycle_s.size()) +
        " maintenance cycles of " + std::to_string(fw->maintenance_every()) +
        " user ops; whole phase " +
        Fixed(PerOp(static_cast<double>(phase.ops), phase.seconds)) +
        " ops/s; cycle time " + Spread(phase.cycle_s) +
        "; restart after it redid " +
        std::to_string(rr.stats.ops_redone) + " ops in " +
        Fixed(rr.recover_s) + " s");
    AddCounts(r, phase.window, rr.stats.ops_redone, /*as_metrics=*/true);
    r->Add("peak_rss_mb", phase.window.peak_rss_mb, "MB");
    return;
  }

  // The restart workload recovers its crash image, and checks every
  // object, for the whole run. The first Recover() in the process pays for
  // a cold heap and is left out of the figure.
  std::vector<double> recover_s;
  uint64_t first_redone = 0;
  const auto t0 = Clock::now();
  for (size_t i = 0; i <= kMinRecoveries || Since(t0) < seconds; ++i) {
    rr = RestartResult{};
    Status st = RestartOnce(w, 0, 1, &rr);
    if (!st.ok()) return Fail(r, "restart", st);
    CountVerify(r, rr);
    if (i == 0) {
      first_redone = rr.stats.ops_redone;
      r->notes.push_back("first Recover() " + Fixed(rr.recover_s) + " s");
      continue;
    }
    if (rr.stats.ops_redone != first_redone) {
      r->correct = false;
      if (r->error.empty()) {
        r->error = "recoveries of one crash image redid " +
                   std::to_string(first_redone) + " and " +
                   std::to_string(rr.stats.ops_redone) + " ops";
      }
    }
    recover_s.push_back(rr.recover_s);
  }
  r->Add("ops_per_s",
         PerOp(static_cast<double>(first_redone),
               Percentile(&recover_s, kCycleQuantile).value),
         "1/s");
  r->notes.push_back("ops_per_s: " + std::to_string(first_redone) +
                     " ops redone per Recover(); " +
                     std::to_string(recover_s.size()) +
                     " warm recoveries, " + Spread(recover_s));
  AddCounts(r, w->setup_counts(), first_redone, /*as_metrics=*/true);
  // The restart workload's peak is its recovery, a fixed amount of work.
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): per-layer metrics and the tracing overhead.

double P50(std::vector<double> v) { return Percentile(&v, 0.5).value; }

void RunTraced(Workload* w, double seconds, Report* r) {
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceLedger fwd, rec;
  double rate_plain = 0.0, rate_traced = 0.0, traced_seconds = 0.0;
  WindowCounts counts;
  Status st;
  ForwardWorkload* fw = w->forward();
  PhaseResult plain;
  if (fw != nullptr) {
    // The same seed twice from a fresh setup: once untraced, once traced,
    // each for half the run.
    PhaseResult traced;
    st = w->Setup();
    if (st.ok()) st = RunPhase(fw, seconds / 2, nullptr, &plain);
    r->attempted += plain.ops;
    if (!st.ok()) return Fail(r, "untraced phase", st);
    st = w->Setup();
    if (!st.ok()) return Fail(r, "setup", st);
    recorder.Clear();
    recorder.Enable();
    st = RunPhase(fw, seconds / 2, &fwd, &traced);
    recorder.Disable();
    fwd.Drain();
    r->attempted += traced.ops;
    if (!st.ok()) return Fail(r, "traced phase", st);
    rate_plain = PerOp(static_cast<double>(plain.ops), plain.seconds);
    rate_traced = PerOp(static_cast<double>(traced.ops), traced.seconds);
    traced_seconds = traced.seconds;
    counts = traced.window;
    st = fw->Crash();
    if (!st.ok()) return Fail(r, "crash", st);
  } else {
    st = w->Setup();
    if (!st.ok()) return Fail(r, "setup", st);
    counts = w->setup_counts();
  }

  // Restarts: the first in the process (cold), a second untraced and a
  // traced one to compare, and a serial one as the parallel-redo baseline.
  RestartResult first, plain_rr, traced_rr, serial;
  const size_t stride = w->resample_stride();
  const MetricsSnapshot m0 = MetricsRegistry::Global().Snapshot();
  st = RestartOnce(w, 0, 1, &first);
  const MetricsSnapshot first_delta =
      MetricsRegistry::Global().Snapshot().Delta(m0);
  if (st.ok()) st = RestartOnce(w, 0, stride, &plain_rr);
  if (st.ok()) {
    recorder.Clear();
    recorder.Enable();
    st = RestartOnce(w, 0, stride, &traced_rr);
    recorder.Disable();
    rec.Drain();
  }
  if (st.ok()) st = RestartOnce(w, 1, stride, &serial);
  if (!st.ok()) return Fail(r, "restart", st);
  for (const RestartResult* rr : {&first, &plain_rr, &traced_rr, &serial}) {
    CountVerify(r, *rr);
  }
  if (fw == nullptr) {
    // The restart workload's user ops are the ops a Recover() redoes.
    const double redone = static_cast<double>(first.stats.ops_redone);
    rate_plain = PerOp(redone, plain_rr.recover_s);
    rate_traced = PerOp(redone, traced_rr.recover_s);
    traced_seconds = traced_rr.recover_s;
  }
  // Op-path spans come from the traced forward phase; the restart
  // workload has only its traced restart.
  const TraceLedger& ops = fw != nullptr ? fwd : rec;
  auto span_p50 = [&](const char* name) {
    const SpanTotals& s = ops.Of(name);
    return P50(s.dur_us.empty() ? rec.Of(name).dur_us : s.dur_us);
  };
  auto span_share = [&](const char* name) {
    return PerOp(ops.Of(name).total_us, traced_seconds * 1e6);
  };
  const MetricsSnapshot& m = counts.metrics;
  const IoStats& io = counts.io;
  const double n = static_cast<double>(counts.ops);
  auto per_op = [&](const char* counter) {
    return PerOp(static_cast<double>(Counter(m, counter)), n);
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };

  // engine
  r->Add("engine.execute_us_p50", span_p50("bench.execute"), "us");
  r->Add("engine.execute_self_us_p50", P50(ops.Of("bench.execute").self_us),
         "us");
  r->Add("engine.read_us_p50", span_p50("bench.read"), "us");
  r->Add("txn.begin_us_p50", span_p50("bench.txn_begin"), "us");
  r->Add("txn.execute_us_p50", span_p50("bench.txn_execute"), "us");
  r->Add("txn.commit_us_p50", span_p50("bench.txn_commit"), "us");
  r->Add("engine.checkpoint_s_total",
         ops.Of("bench.checkpoint").total_us / 1e6, "s");
  // user-op latency, from the untraced phase
  AddLatency(r, "op.write", plain.write_us);
  AddLatency(r, "op.read", plain.read_us);
  // domains/btree
  r->Add("btree.insert_us_p50", span_p50("bench.btree_insert"), "us");
  r->Add("btree.get_us_p50", span_p50("bench.btree_get"), "us");
  r->Add("btree.splits_per_insert",
         PerOp(d(counts.btree_splits), d(counts.btree_inserts)), "ratio");
  // wal
  const uint64_t force_calls = Counter(m, "wal.force.calls");
  r->Add("wal.append_records_per_op", per_op("wal.append.records"), "1/op");
  r->Add("wal.append_bytes_per_op", per_op("wal.append.bytes"), "B/op");
  r->Add("wal.force_calls_per_op", per_op("wal.force.calls"), "1/op");
  r->Add("wal.force_noop_share",
         PerOp(d(Counter(m, "wal.force.noops")), d(force_calls)), "ratio");
  r->Add("wal.force_batch_records_p50",
         d(Hist(m, "wal.force.batch_records").Percentile(0.5)), "count");
  r->Add("wal.force_time_share", span_share("wal.force"), "ratio");
  // graph
  const uint64_t batches = Counter(m, "cm.graph.batches");
  r->Add("graph.batches_per_op", per_op("cm.graph.batches"), "1/op");
  r->Add("graph.batched_ops_per_batch",
         PerOp(d(Counter(m, "cm.graph.batched_ops")), d(batches)), "ratio");
  // cache
  const uint64_t nodes = Counter(m, "cm.install.nodes");
  const uint64_t log_reads = Counter(m, "logstore.reads.log");
  const uint64_t cold_reads = Counter(m, "logstore.reads.cold");
  r->Add("cm.purge_calls_per_op", per_op("cm.purge.calls"), "1/op");
  r->Add("cm.install_nodes_per_op", per_op("cm.install.nodes"), "1/op");
  r->Add("cm.install_ops_per_node",
         PerOp(d(Counter(m, "cm.install.ops")), d(nodes)), "ratio");
  r->Add("cm.flush_set_size_p50",
         d(Hist(m, "cm.flush.set_size").Percentile(0.5)), "count");
  r->Add("cm.identity_writes_per_op", per_op("cm.identity.writes"), "1/op");
  r->Add("cm.identity_bytes_per_op", per_op("cm.identity.bytes"), "B/op");
  r->Add("cm.install_time_share", span_share("cm.install_node"), "ratio");
  r->Add("cm.evict_objects_per_op", per_op("cm.evict.objects"), "1/op");
  r->Add("cache.misses_per_op", PerOp(d(io.object_reads + log_reads), n),
         "1/op");
  // storage
  r->Add("store.object_writes_per_op", PerOp(d(io.object_writes), n), "1/op");
  r->Add("store.atomic_multi_writes_per_op",
         PerOp(d(io.atomic_multi_writes), n), "1/op");
  r->Add("store.bytes_written_per_user_byte",
         PerOp(d(io.object_bytes_written), d(counts.user_bytes)), "ratio");
  r->Add("store.object_reads_per_op", PerOp(d(io.object_reads), n), "1/op");
  r->Add("store.io_retries", d(io.io_retries), "count");
  // logstore
  r->Add("logstore.reads_log_share",
         PerOp(d(log_reads - std::min(log_reads, cold_reads)), d(log_reads)),
         "ratio");
  r->Add("logstore.reads_cold_share", PerOp(d(cold_reads), d(log_reads)),
         "ratio");
  r->Add("logstore.index_publishes_per_op", per_op("logstore.index.publishes"),
         "1/op");
  r->Add("logstore.compaction_runs_per_kop",
         1000.0 * per_op("logstore.compaction.runs"), "1/kop");
  r->Add("logstore.compaction_bytes_per_op",
         per_op("logstore.compaction.bytes_moved"), "B/op");
  r->Add("log.device_reclaimed_bytes_per_op",
         per_op("log.device.reclaimed_bytes"), "B/op");
  // recovery (the traced restart's spans; counts from the first restart)
  auto rec_s = [&](const char* name) { return rec.Of(name).total_us / 1e6; };
  const RecoveryStats& rs = first.stats;
  r->Add("recovery.log_scan_s", rec_s("recovery.log_scan"), "s");
  r->Add("recovery.analysis_s", rec_s("recovery.analysis"), "s");
  r->Add("recovery.redo_s", rec_s("recovery.redo"), "s");
  r->Add("redo.partition_s", rec_s("redo.partition"), "s");
  r->Add("redo.worker_busy_s", rec_s("redo.worker"), "s");
  r->Add("redo.apply_s", rec_s("redo.apply"), "s");
  r->Add("recovery.records_scanned", d(rs.records_scanned), "count");
  r->Add("recovery.ops_redone", d(rs.ops_redone), "count");
  r->Add("recovery.expensive_redos", d(rs.expensive_redos), "count");
  r->Add("recovery.components",
         d(Counter(first_delta, "recovery.redo.components")), "count");
  r->Add("recovery.rss_mb_per_kop",
         PerOp(std::max(0.0, first.rss_after_mb - first.rss_before_mb),
               d(rs.ops_redone) / 1000.0),
         "MB/kop");
  r->Add("recovery.first_recover_s", first.recover_s, "s");
  r->Add("recovery.serial_recover_s", serial.recover_s, "s");
  // Share of the traced Recover() that the recovery phases cover, each
  // with its children on the same thread (redo.partition, redo.apply).
  double phases_us = 0.0;
  for (const char* phase :
       {"recovery.log_scan", "recovery.analysis", "recovery.media_scrub",
        "recovery.media_repair", "recovery.redo", "recovery.loser_undo"}) {
    phases_us += rec.Of(phase).total_us;
  }
  const double phase_share =
      PerOp(phases_us, rec.Of("bench.recover").total_us);
  r->Add("recovery.phase_sum_share", phase_share, "ratio");
  // Checked where Recover() replays a real redo backlog (restart); the
  // forward workloads' 5-30 ms recoveries spend up to a tenth of their
  // time in engine work around the phases.
  if (fw == nullptr && std::fabs(1.0 - phase_share) > kMaxPhaseGap) {
    r->correct = false;
    if (r->error.empty()) {
      r->error = "recovery phases cover " + Fixed(phase_share) +
                 " of the traced Recover(), not within " + Fixed(kMaxPhaseGap) +
                 " of it";
    }
  }
  // tracing overhead
  r->Add("trace.ops_per_s_untraced", rate_plain, "1/s");
  r->Add("trace.ops_per_s_traced", rate_traced, "1/s");
  r->Add("trace.ops_overhead_share",
         rate_plain == 0.0 ? 0.0 : 1.0 - rate_traced / rate_plain, "ratio");
  r->Add("trace.recover_s_untraced", plain_rr.recover_s, "s");
  r->Add("trace.recover_s_traced", traced_rr.recover_s, "s");
  r->Add("trace.recover_overhead_share",
         PerOp(traced_rr.recover_s, plain_rr.recover_s) - 1.0, "ratio");

  AddCounts(r, counts, rs.ops_redone, /*as_metrics=*/false);
}

}  // namespace

Report RunWorkload(const RunOptions& options) {
  Report r;
  std::unique_ptr<Workload> w = MakeWorkload(options.workload, options.seed);
  if (w == nullptr) {
    r.correct = false;
    r.error = "unknown workload '" + options.workload + "'";
    return r;
  }
  if (options.trace) {
    RunTraced(w.get(), options.seconds, &r);
  } else {
    RunEndToEnd(w.get(), options.seconds, &r);
  }
  return r;
}

}  // namespace perfbench
