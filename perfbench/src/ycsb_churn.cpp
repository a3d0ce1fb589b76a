// ycsb-churn: the write path.  A closed loop keeps 8 queries outstanding
// against a ConcurrentChainedTable preloaded with 2^22 keys.  Each query
// carries 4,096 ops of one type: 50% read batches and 40% update batches
// with Zipf(0.8) keys favouring the newest live keys, 5% insert batches of
// fresh keys and 5% erase batches of the oldest keys, so the live set
// slides.  Admission is SLO-aware (EDF over 4 in-flight queries, bounded
// pending queue, expired queries shed) and idle pool threads advance the
// epoch.  This is the only workload with writes: bucket latches,
// compaction, epoch retire/reclaim, and the read/write/space trade.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "common/zipf.h"
#include "epoch/epoch.h"
#include "hashtable/concurrent_ops.h"
#include "hashtable/concurrent_table.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace amac;

constexpr uint64_t kPreload = 1ull << 22;
constexpr uint64_t kOps = 4096;
/// Latency limit, submit to result, behind EDF admission and shedding.
constexpr double kSloSeconds = 0.5;
constexpr uint32_t kMaxPending = 64;
/// Reads and updates stay this many keys away from both ends of the live
/// range.  A batch can only race the queries outstanding with it, so no
/// concurrent insert or erase reaches its keys.
constexpr int64_t kMargin = 64 * static_cast<int64_t>(kOps);
/// Keys the Zipf(0.8) ranks spread over, counted down from the newest.
constexpr uint64_t kHotRange = 1ull << 21;
constexpr uint64_t kRankBatches = 256;
/// space_amp and peak_rss_mb are read when this many queries have been
/// submitted (a fifth of the live keys turned over): the same point of the
/// table's trajectory on every run, however fast it served, where the end
/// of a fixed-time run is not.  A 10 s run reaches it at an eighth of the
/// throughput of a quiet host.
constexpr uint64_t kSpaceSnapshotQuery = 4096;

/// Untimed queries before the measured window (they are replayed and
/// checked like the rest).
constexpr uint64_t kWarmupQueries = 64;

int64_t LoadVal(int64_t key) { return key * 2; }
int64_t UpVal(int64_t key) { return key * 2 + 1; }

enum class OpType : uint8_t { kRead, kUpdate, kInsert, kErase };
constexpr const char* kTypeMetric[] = {
    "hashtable.read_exec_us", "hashtable.update_exec_us",
    "hashtable.insert_exec_us", "hashtable.erase_exec_us"};

/// One query.  Keys are derived, not stored: reads and updates are
/// `first - rank` over rank batch `batch`; inserts and erases cover
/// [first, first + kOps).
struct Planned {
  OpType type = OpType::kRead;
  uint32_t batch = 0;
  int64_t first = 0;
};

/// The query sequence, generated one query at a time as the loop asks.
/// Types come in shuffled blocks of 20 (10 read, 8 update, 1 insert, 1
/// erase), so the live-key count never drifts by more than a batch and
/// every seed walks the table through the same sizes.
class Schedule {
 public:
  explicit Schedule(uint64_t seed) : rng_(seed ^ 0x7e5u) {
    ZipfGenerator zipf(kHotRange, 0.8, seed ^ 0x21f7u);
    ranks_.resize(kRankBatches);
    for (auto& batch : ranks_) {
      batch.resize(kOps);
      for (uint32_t& r : batch) r = static_cast<uint32_t>(zipf.Next());
    }
  }

  const Planned& Next() {
    const size_t pos = queries_.size() % 20;
    if (pos == 0) {
      for (size_t i = 0; i < 20; ++i) {
        block_[i] = i < 10 ? OpType::kRead
                    : i < 18 ? OpType::kUpdate
                    : i < 19 ? OpType::kInsert
                             : OpType::kErase;
      }
      for (size_t i = 19; i > 0; --i) {
        std::swap(block_[i], block_[rng_.NextBounded(i + 1)]);
      }
    }
    Planned q;
    q.type = block_[pos];
    if (q.type == OpType::kRead || q.type == OpType::kUpdate) {
      q.batch = static_cast<uint32_t>(rng_.NextBounded(kRankBatches));
      q.first = hi_ - kMargin;
    } else if (q.type == OpType::kInsert) {
      q.first = hi_;
      hi_ += kOps;
    } else {
      q.first = lo_;
      lo_ += kOps;
    }
    queries_.push_back(q);
    return queries_.back();
  }

  void FillKeys(const Planned& q, std::vector<int64_t>* keys) const {
    keys->resize(kOps);
    for (uint64_t i = 0; i < kOps; ++i) {
      (*keys)[i] = q.type == OpType::kInsert || q.type == OpType::kErase
                       ? q.first + static_cast<int64_t>(i)
                       : q.first - static_cast<int64_t>(ranks_[q.batch][i]);
    }
  }

  const std::vector<Planned>& queries() const { return queries_; }
  int64_t next_fresh_key() const { return hi_; }

 private:
  Rng rng_;
  std::vector<std::vector<uint32_t>> ranks_;  ///< kRankBatches x kOps
  std::vector<Planned> queries_;
  OpType block_[20] = {};
  int64_t lo_ = 1;                                   // oldest live key
  int64_t hi_ = static_cast<int64_t>(kPreload) + 1;  // next fresh key
};

/// Read sink: a found payload must be its own key's loaded or updated
/// value (the claim-once slot discipline forbids stitching key A to
/// payload B), and no read of the stable core may miss.
struct ReadSink {
  const int64_t* keys = nullptr;
  uint64_t found = 0;
  uint64_t missed = 0;
  uint64_t bad = 0;
  void Emit(uint64_t rid, int64_t payload) {
    const int64_t k = keys[rid];
    if (payload != LoadVal(k) && payload != UpVal(k)) ++bad;
    ++found;
  }
  void Miss(uint64_t) { ++missed; }
};

/// Inputs and sinks of one submitted query, shared by the op factory
/// inside the scheduler and by the result check after the query ends.
struct Batch {
  std::vector<int64_t> keys;
  std::vector<int64_t> payloads;
  std::vector<ReadSink> sinks;
};

struct Store {
  std::unique_ptr<EpochManager> epochs;
  std::unique_ptr<ConcurrentChainedTable> table;
};

/// The program's own preload: one upsert query through the serving path.
Store Preload(Tracer* tracer) {
  SpanScope span(tracer, "preload");
  Store store;
  store.epochs = std::make_unique<EpochManager>();
  store.table = std::make_unique<ConcurrentChainedTable>(kPreload,
                                                         store.epochs.get());
  auto keys = std::make_shared<std::vector<int64_t>>(kPreload);
  auto payloads = std::make_shared<std::vector<int64_t>>(kPreload);
  for (uint64_t i = 0; i < kPreload; ++i) {
    (*keys)[i] = static_cast<int64_t>(i) + 1;
    (*payloads)[i] = LoadVal((*keys)[i]);
  }
  QueryScheduler sched(QuerySchedulerOptions{kWorkers});
  EpochManager* epochs = store.epochs.get();
  sched.pool().SetIdleTask([epochs] { epochs->AdvanceAndReclaim(); });
  ConcurrentChainedTable* table = store.table.get();
  const QueryStats q = sched.Wait(Submit(
      sched, Plan::FromOp(kPreload, [table, keys, payloads](uint32_t) {
        return UpsertOp(*table, keys->data(), payloads->data());
      })));
  AMAC_CHECK(q.outcome == QueryOutcome::kServed);
  return store;
}

Request MakeRequest(const Schedule& s, const Planned& p,
                    ConcurrentChainedTable* table, uint32_t slots) {
  auto batch = std::make_shared<Batch>();
  s.FillKeys(p, &batch->keys);
  Request r;
  r.kind = static_cast<int>(p.type);
  r.inputs = kOps;
  r.options.deadline_seconds = kSloSeconds;
  // Writes are checked once, against the replay of the final state.
  r.verify = [](const QueryStats&) { return true; };
  switch (p.type) {
    case OpType::kRead:
      batch->sinks.resize(slots);
      for (ReadSink& sink : batch->sinks) sink.keys = batch->keys.data();
      r.plan = Plan::FromOp(kOps, [table, batch](uint32_t slot) {
        return ConcurrentFindOp<ReadSink>(*table, batch->keys.data(),
                                          batch->sinks[slot]);
      });
      r.verify = [batch](const QueryStats&) {
        uint64_t found = 0;
        for (const ReadSink& sink : batch->sinks) {
          if (sink.bad > 0 || sink.missed > 0) return false;
          found += sink.found;
        }
        return found == kOps;
      };
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      batch->payloads.resize(kOps);
      for (uint64_t k = 0; k < kOps; ++k) {
        batch->payloads[k] = p.type == OpType::kUpdate
                                 ? UpVal(batch->keys[k])
                                 : LoadVal(batch->keys[k]);
      }
      r.plan = Plan::FromOp(kOps, [table, batch](uint32_t) {
        return UpsertOp(*table, batch->keys.data(), batch->payloads.data());
      });
      break;
    case OpType::kErase:
      r.plan = Plan::FromOp(kOps, [table, batch](uint32_t) {
        return EraseOp(*table, batch->keys.data());
      });
      break;
  }
  return r;
}

/// Table bytes (buckets plus every overflow node allocated) over live
/// bytes; the counters are atomic, so it can be read while serving.
double SpaceAmp(const ConcurrentChainedTable& table) {
  return static_cast<double>((table.num_buckets() + table.allocated_nodes()) *
                             sizeof(BucketNode)) /
         static_cast<double>(std::max<uint64_t>(1, table.live_keys()) *
                             sizeof(Tuple));
}

struct ChurnReport {
  ClosedLoopReport loop;
  bool state_ok = false;
  ConcurrentChainedTable::Audit audit;
  uint64_t compactions = 0;
  uint64_t table_bytes = 0;
  uint64_t live_keys = 0;
  uint64_t retired = 0;
  uint64_t reclaimed = 0;
  uint64_t advances = 0;
  uint64_t epoch_lag_max = 0;
  double space_amp = 0;    ///< at kSpaceSnapshotQuery
  double peak_rss_mb = 0;  ///< ditto
};

/// True when the quiesced table holds exactly what a sequential replay of
/// the served queries leaves.  Inserts and erases touch disjoint fresh and
/// oldest ranges and updates write a per-key value, so any interleaving
/// the scheduler chose ends in this state.  The closed loop completes
/// queries in submission order, so completed[i] is query i.
bool MatchesReplay(const ConcurrentChainedTable& table, const Schedule& s,
                   const std::vector<Completed>& completed) {
  const size_t max_key = static_cast<size_t>(s.next_fresh_key());
  std::vector<uint8_t> state(max_key, 0);  // 0 absent, 1 loaded, 2 updated
  std::fill(state.begin() + 1, state.begin() + kPreload + 1, 1);
  std::vector<int64_t> keys;
  bool ok = true;
  for (size_t i = 0; i < completed.size(); ++i) {
    if (completed[i].stats.outcome != QueryOutcome::kServed) continue;
    const Planned& p = s.queries()[i];
    s.FillKeys(p, &keys);
    for (const int64_t k : keys) {
      uint8_t& st = state[static_cast<size_t>(k)];
      switch (p.type) {
        case OpType::kRead: ok &= st != 0; break;
        case OpType::kUpdate:
          ok &= st != 0;
          st = 2;
          break;
        case OpType::kInsert: st = 1; break;
        case OpType::kErase: st = 0; break;
      }
    }
  }
  std::vector<Tuple> live;
  table.CollectLive(&live);
  std::sort(live.begin(), live.end(),
            [](const Tuple& a, const Tuple& b) { return a.key < b.key; });
  size_t next = 0;
  for (size_t k = 1; k < max_key && ok; ++k) {
    if (state[k] == 0) continue;
    const int64_t key = static_cast<int64_t>(k);
    ok = next < live.size() && live[next].key == key &&
         live[next].payload == (state[k] == 2 ? UpVal(key) : LoadVal(key));
    ++next;
  }
  return ok && next == live.size();
}

/// Serve the closed loop, then drain, audit, compare the final table with
/// the sequential replay, and reclaim.
ChurnReport Serve(Store store, uint64_t seed, double seconds,
                  Tracer* tracer) {
  ChurnReport r;
  ConcurrentChainedTable& table = *store.table;
  EpochManager& epochs = *store.epochs;
  Schedule schedule(seed);
  {
    QuerySchedulerOptions sopts;
    sopts.num_workers = kWorkers;
    sopts.max_inflight_queries = kWorkers;
    sopts.order = AdmissionOrder::kDeadline;
    sopts.max_pending = kMaxPending;
    sopts.shed_expired = true;
    QueryScheduler sched(sopts);
    sched.pool().SetIdleTask([&epochs] { epochs.AdvanceAndReclaim(); });
    const uint32_t slots = sched.SlotCount(QueryOptions{});
    r.loop = RunClosedLoop(
        sched, kWarmupQueries, seconds,
        [&](uint64_t i) {
          if (tracer && (i & 15) == 0) {
            r.epoch_lag_max = std::max(r.epoch_lag_max,
                                       epochs.retired() - epochs.reclaimed());
          }
          if (i == kSpaceSnapshotQuery) {
            r.space_amp = SpaceAmp(table);
            r.peak_rss_mb = PeakRssMb();
          }
          return MakeRequest(schedule, schedule.Next(), &table, slots);
        },
        tracer);
  }  // scheduler gone: every op and its epoch guard is released

  {
    SpanScope span(tracer, "AuditQuiesced");
    r.audit = table.AuditQuiesced();
  }
  r.compactions = table.compactions();
  r.table_bytes =
      (table.num_buckets() + table.allocated_nodes()) * sizeof(BucketNode);
  r.live_keys = table.live_keys();
  r.state_ok = MatchesReplay(table, schedule, r.loop.completed);
  {
    SpanScope span(tracer, "ReclaimAll");
    epochs.ReclaimAll();
  }
  r.retired = epochs.retired();
  r.reclaimed = epochs.reclaimed();
  r.advances = epochs.advances();
  return r;
}

/// The write path's own checks; the loop's are ReportClosedLoop's.
void Check(const ChurnReport& r, Outcome* out) {
  if (!r.state_ok) {
    ++out->failed;
    out->Fail("final table differs from the sequential replay");
  }
  if (!r.audit.ok) out->Fail("AuditQuiesced failed");
  if (r.retired != r.reclaimed) {
    out->Fail("epoch leak: retired " + std::to_string(r.retired) +
              " != reclaimed " + std::to_string(r.reclaimed));
  }
}

}  // namespace

Outcome RunYcsbChurn(const Args& args) {
  Outcome out;
  Tracer tracer_store;
  Tracer* tracer = args.trace ? &tracer_store : nullptr;
  Store store;
  const double setup_s = MedianSetupSeconds(
      5,
      [&] {
        store = Store{};
        store = Preload(tracer);
      },
      nullptr, "setup");

  if (!args.trace) {
    const ChurnReport r =
        Serve(std::move(store), args.seed, args.seconds, nullptr);
    ReportClosedLoop(r.loop, &out);
    Check(r, &out);
    if (r.space_amp == 0) {
      out.Fail("the run ended before query " +
               std::to_string(kSpaceSnapshotQuery) + " read space_amp");
    }
    out.e2e.Set("space_amp", r.space_amp, "ratio");
    out.e2e.Set("peak_rss_mb", r.peak_rss_mb, "MB");
    out.e2e.Set("setup_s", setup_s, "s");
    return out;
  }

  const ChurnReport plain =
      Serve(std::move(store), args.seed, args.seconds / 2, nullptr);
  Check(plain, &out);
  const ChurnReport r =
      Serve(Preload(tracer), args.seed, args.seconds / 2, tracer);
  Check(r, &out);
  ReportTracedHalves(plain.loop, r.loop, &out);
  std::vector<double> exec_us[4];
  for (size_t i = r.loop.warmup; i < r.loop.completed.size(); ++i) {
    const Completed& c = r.loop.completed[i];
    exec_us[c.kind].push_back(c.stats.run.seconds * 1e6);
  }
  for (int t = 0; t < 4; ++t) {
    out.layer.Set(kTypeMetric[t], Mean(exec_us[t]), "us");
  }
  const double live = std::max<double>(1, static_cast<double>(r.live_keys));
  out.layer.Set("hashtable.dead_slots_per_live_key", r.audit.dead_slots / live,
                "ratio");
  out.layer.Set("hashtable.overflow_nodes_per_live_key",
                r.audit.chain_nodes / live, "ratio");
  out.layer.Set("hashtable.max_chain", static_cast<double>(r.audit.max_chain),
                "count");
  out.layer.Set("hashtable.compactions", static_cast<double>(r.compactions),
                "count");
  out.layer.Set("epoch.retired", static_cast<double>(r.retired), "count");
  out.layer.Set("epoch.reclaimed", static_cast<double>(r.reclaimed), "count");
  out.layer.Set("epoch.advances", static_cast<double>(r.advances), "count");
  out.layer.Set("epoch.lag_max", static_cast<double>(r.epoch_lag_max),
                "count");
  out.layer.Set("bench.llc_bytes", static_cast<double>(LlcBytes()), "B");
  out.layer.Set("bench.main_structure_bytes",
                static_cast<double>(r.table_bytes), "B");
  ReportTrace(tracer_store, &out);
  tracer_store.Write(args.out_dir + "/spans-ycsb-churn-seed" +
                     std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
