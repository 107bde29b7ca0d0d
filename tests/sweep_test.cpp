// The sweep orchestration subsystem: content-address job keys
// (sim/job_key.h), the on-disk cache and the resume journal
// (sim/sweep_cache.h), the point codec (sim/sweep_codec.h), shard
// partitioning and sempe_merge's document merge (sim/sweep_merge.h), and
// the byte-identity contract that ties them together — a sweep's --json
// output must not depend on thread count, shard split, cache temperature,
// or whether the run resumed from a killed journal.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/report.h"
#include "sim/batch_runner.h"
#include "sim/job_key.h"
#include "sim/sweep_cache.h"
#include "sim/sweep_codec.h"
#include "sim/sweep_merge.h"
#include "util/check.h"

namespace sempe {
namespace {

namespace fs = std::filesystem;

using sim::BatchCli;
using sim::JobIdentity;
using sim::MicrobenchJob;
using sim::SweepCache;
using sim::SweepJournal;
using sim::SweepOptions;
using workloads::Kind;

// Fresh directory per test, removed on teardown.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("sempe_sweep_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Job identity keys.

TEST(JobKey, PermutedSpecParamsShareOneKey) {
  EXPECT_EQ(sim::canonical_spec_key("synthetic.cond_branch?width=3&iters=2"),
            sim::canonical_spec_key("synthetic.cond_branch?iters=2&width=3"));
  sim::WorkloadJob a;
  a.label = "a";
  a.spec = "synthetic.ptr_chase?size=4096&stride=64";
  sim::WorkloadJob b;
  b.label = "a completely different label";
  b.spec = "synthetic.ptr_chase?stride=64&size=4096";
  EXPECT_EQ(sim::job_cache_key(a, "fp"), sim::job_cache_key(b, "fp"));
}

/// A microbench job over `spec` with default machine knobs.
MicrobenchJob micro_job(const std::string& spec) {
  MicrobenchJob j;
  j.label = spec;
  j.spec = spec;
  return j;
}

TEST(JobKey, EveryIdentityFieldChangesTheKey) {
  const JobIdentity base{"microbench", "ones?width=2", "spm=64", "legacy,sempe",
                         1, "fp"};
  std::vector<JobIdentity> variants(6, base);
  variants[0].family = "workload";
  variants[1].spec = "ones?width=3";
  variants[2].machine = "spm=128";
  variants[3].modes = "legacy,sempe,cte";
  variants[4].schema_version = 2;
  variants[5].fingerprint = "other";
  std::set<std::string> keys = {base.key()};
  for (const JobIdentity& v : variants) {
    EXPECT_NE(v.key(), base.key()) << v.canonical_text();
    keys.insert(v.key());
  }
  EXPECT_EQ(keys.size(), 7u);  // all pairwise distinct, too
}

TEST(JobKey, MicrobenchSpecAndMachineKnobsChangeTheKey) {
  const std::string spec =
      "micro.ones?size=16&width=2&iters=2&secrets=0&seed=42";
  const MicrobenchJob base = micro_job(spec);
  const std::string k0 = sim::job_cache_key(base, "fp");

  // Every grid coordinate the spec carries: kind, width, iters, size, seed.
  for (const char* other :
       {"micro.fibonacci?size=16&width=2&iters=2&secrets=0&seed=42",
        "micro.ones?size=16&width=3&iters=2&secrets=0&seed=42",
        "micro.ones?size=16&width=2&iters=3&secrets=0&seed=42",
        "micro.ones?size=17&width=2&iters=2&secrets=0&seed=42",
        "micro.ones?size=16&width=2&iters=2&secrets=0&seed=43"})
    EXPECT_NE(sim::job_cache_key(micro_job(other), "fp"), k0) << other;

  // Every machine knob.
  std::vector<MicrobenchJob> knobs(5, base);
  knobs[0].opt.snapshot_model = cpu::SnapshotModel::kPhyRS;
  knobs[1].opt.spm_bytes_per_cycle *= 2;
  knobs[2].opt.enable_prefetchers = !knobs[2].opt.enable_prefetchers;
  knobs[3].opt.extra_front_end_depth += 1;
  knobs[4].opt.rename_width_override = 4;
  for (usize i = 0; i < knobs.size(); ++i)
    EXPECT_NE(sim::job_cache_key(knobs[i], "fp"), k0) << "knob " << i;
  EXPECT_NE(sim::job_cache_key(base, "fp2"), k0);

  // Label and parameter order are cosmetic.
  MicrobenchJob v = micro_job(
      "micro.ones?seed=42&secrets=0&iters=2&width=2&size=16");
  v.label = "another label";
  EXPECT_EQ(sim::job_cache_key(v, "fp"), k0);

  // The ideal runs make a microbench point a different result than the
  // workload point of the same spec: the two families never share a key.
  sim::WorkloadJob w;
  w.spec = spec;
  EXPECT_NE(sim::job_cache_key(w, "fp"), k0);
}

TEST(JobKey, OptionsTheMeasurementIgnoresAreExcluded) {
  // AuditOptions::progress only steers stderr.
  sim::LeakageJob l;
  l.spec = "synthetic.cond_branch?width=2";
  sim::LeakageJob l2 = l;
  l2.opt.progress = !l2.opt.progress;
  EXPECT_EQ(sim::job_cache_key(l, "fp"), sim::job_cache_key(l2, "fp"));
  l2 = l;
  l2.opt.samples += 1;  // sample budget DOES shape the audit
  EXPECT_NE(sim::job_cache_key(l2, "fp"), sim::job_cache_key(l, "fp"));
}

TEST(JobKey, StatisticalTierOptionsShapeTheKey) {
  // Every statistical knob changes the verdicts, so each must miss the
  // cache rather than replay an audit computed under different settings.
  sim::LeakageJob base;
  base.spec = "synthetic.cond_branch?width=2";
  const std::string k0 = sim::job_cache_key(base, "fp");

  sim::LeakageJob v = base;
  v.opt.stat_samples = 8;
  const std::string k_on = sim::job_cache_key(v, "fp");
  EXPECT_NE(k_on, k0);
  v.opt.stat_budget = 64;
  EXPECT_NE(sim::job_cache_key(v, "fp"), k_on);
  v = base;
  v.opt.confidence = 3.0;
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);
}

TEST(JobKey, SchemaVersionBumpInvalidatesStaleCacheEntries) {
  // The schema version is part of the identity hash: entries cached by a
  // binary with the old point layout live under different keys, so the
  // new decoder can never be fed an old blob.
  sim::LeakageJob job;
  job.spec = "synthetic.cond_branch?width=2";
  const JobIdentity id = sim::job_identity(job, "fp");
  EXPECT_EQ(id.schema_version, sim::kResultSchemaVersion);
  EXPECT_EQ(sim::kResultSchemaVersion, 3);  // this PR's bump

  JobIdentity stale = id;
  stale.schema_version = 2;  // what a pre-bump binary would have hashed
  EXPECT_NE(stale.key(), id.key());
  EXPECT_NE(id.canonical_text().find("schema=3"), std::string::npos);
}

TEST(JobKey, AttackLeakageJobKeyCoversEveryExperimentCoordinate) {
  // A co-residence attack is an ordinary leakage job. Its result depends
  // on the victim sub-spec, the probe shape, the scheduler quantum and the
  // audit budget; each must land in the identity so no two distinct
  // experiments share a cache entry.
  sim::LeakageJob base;
  base.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  const std::string k0 = sim::job_cache_key(base, "fp");

  sim::LeakageJob v = base;  // a different victim kernel
  v.spec =
      "attack.prime_probe?victim=ds.hash_probe&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);

  v = base;  // a different attacker (probe style)
  v.spec =
      "attack.flush_reload?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=2000";
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);

  v = base;  // a different victim shape under the same kernel
  v.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=16"
      "&iters=2&quantum=2000";
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);

  v = base;  // a different scheduler quantum
  v.spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
      "&iters=2&quantum=1500";
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);

  v = base;  // the audit budget shapes the result
  v.opt.samples += 1;
  EXPECT_NE(sim::job_cache_key(v, "fp"), k0);

  // Labels stay cosmetic and permuted params still share one key.
  v = base;
  v.label = "some other label";
  EXPECT_EQ(sim::job_cache_key(v, "fp"), k0);
  v = base;
  v.spec =
      "attack.prime_probe?quantum=2000&iters=2&bits=8&size=8&width=2"
      "&victim=crypto.modexp";
  EXPECT_EQ(sim::job_cache_key(v, "fp"), k0);
}

TEST(JobKey, KeyIsSixteenHexDigits) {
  const std::string k =
      sim::job_cache_key(micro_job("micro.ones?width=1&secrets=0"), "fp");
  ASSERT_EQ(k.size(), 16u);
  for (const char c : k)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << k;
}

// ---------------------------------------------------------------------------
// Cache and journal stores.

class SweepStoreTest : public TempDirTest {};

TEST_F(SweepStoreTest, CacheHitMissAndStaleFingerprint) {
  const std::string key = "00deadbeef001234";
  {
    const SweepCache cache(path("cache"), "fp-A");
    EXPECT_EQ(cache.lookup(key).status, SweepCache::Status::kMiss);
    EXPECT_TRUE(cache.store(key, "blob contents\nline 2\n"));
    const auto hit = cache.lookup(key);
    ASSERT_EQ(hit.status, SweepCache::Status::kHit);
    EXPECT_EQ(hit.blob, "blob contents\nline 2\n");
  }
  // Same entry under a different build fingerprint: stale, not a hit —
  // a recompile must never serve old results.
  const SweepCache other(path("cache"), "fp-B");
  EXPECT_EQ(other.lookup(key).status, SweepCache::Status::kStale);
}

TEST_F(SweepStoreTest, JournalReplaysItsPrefixAndDetectsTruncation) {
  const std::string jpath = path("sweep.journal");
  {
    SweepJournal j(jpath);
    EXPECT_EQ(j.replayed(), 0u);
    j.append("key-one", "first blob\n");
    j.append("key-two", "second blob\nwith two lines\n");
  }
  {
    SweepJournal j(jpath);
    EXPECT_EQ(j.replayed(), 2u);
    EXPECT_FALSE(j.truncated_tail());
    ASSERT_NE(j.find("key-one"), nullptr);
    EXPECT_EQ(*j.find("key-one"), "first blob\n");
    ASSERT_NE(j.find("key-two"), nullptr);
    EXPECT_EQ(*j.find("key-two"), "second blob\nwith two lines\n");
    EXPECT_EQ(j.find("key-three"), nullptr);
  }
  // Chop a few bytes off the end — the signature of a sweep killed
  // mid-append. The well-formed prefix survives; the torn record is
  // dropped and flagged.
  fs::resize_file(jpath, fs::file_size(jpath) - 3);
  SweepJournal j(jpath);
  EXPECT_EQ(j.replayed(), 1u);
  EXPECT_TRUE(j.truncated_tail());
  ASSERT_NE(j.find("key-one"), nullptr);
  EXPECT_EQ(j.find("key-two"), nullptr);
}

// ---------------------------------------------------------------------------
// Point codec: decode(encode(p)) must be *exactly* p, because cached
// points feed the byte-identity contract.

TEST(SweepCodec, MicrobenchRoundTripIsExact) {
  const auto pt =
      sim::measure_microbench(sim::microbench_spec(Kind::kFibonacci, 2, 2));
  EXPECT_GT(pt.ideal_combined_cycles, 0u);
  EXPECT_GT(pt.ideal_standalone_cycles, 0u);
  const std::string blob = sim::encode_point(pt);
  const auto back = sim::decode_microbench_point(blob);
  EXPECT_EQ(sim::encode_point(back), blob);
  EXPECT_EQ(back.spec, pt.spec);
  EXPECT_EQ(back.sempe_cycles, pt.sempe_cycles);
  EXPECT_EQ(back.cte_instructions, pt.cte_instructions);
  EXPECT_EQ(back.ideal_combined_cycles, pt.ideal_combined_cycles);
  EXPECT_EQ(back.ideal_standalone_cycles, pt.ideal_standalone_cycles);
  EXPECT_EQ(back.checks.size(), pt.checks.size());
  EXPECT_EQ(back.width(), 2u);
  EXPECT_EQ(back.kind(), "fibonacci");
}

TEST(SweepCodec, WorkloadMissRatesRoundTripBitExactly) {
  // Fig. 9 prints the miss rates from (possibly cached) workload points,
  // so the f64s must survive the hexfloat codec to the last ulp.
  const auto pt =
      sim::measure_workload("djpeg?format=gif&pixels=16384&scale=64");
  EXPECT_GT(pt.baseline_miss.dl1, 0.0);
  EXPECT_GT(pt.sempe_miss.il1, 0.0);
  const std::string blob = sim::encode_point(pt);
  const auto back = sim::decode_workload_point(blob);
  EXPECT_EQ(sim::encode_point(back), blob);
  for (const auto& [got, want] :
       {std::pair{&back.baseline_miss, &pt.baseline_miss},
        std::pair{&back.sempe_miss, &pt.sempe_miss}}) {
    EXPECT_EQ(got->il1, want->il1);
    EXPECT_EQ(got->dl1, want->dl1);
    EXPECT_EQ(got->l2, want->l2);
  }
}

TEST(SweepCodec, LeakageRoundTripPreservesTheFullAudit) {
  security::AuditOptions opt;
  opt.samples = 2;
  const auto pt =
      sim::measure_leakage("synthetic.cond_branch?width=2&iters=1", opt);
  const std::string blob = sim::encode_point(pt);
  const auto back = sim::decode_leakage_point(blob);
  EXPECT_EQ(sim::encode_point(back), blob);
  // to_string is what sempe_run --audit prints; a cache hit must print
  // the same report a fresh audit would.
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
}

TEST(SweepCodec, LeakageRoundTripIsBitExactWithTheStatisticalTier) {
  // The statistical fields are f64s (t, dof, effect, mi_bits) and must
  // survive the hexfloat codec bit-exactly: a cache hit has to replay the
  // same verdicts a fresh audit would compute, down to the last ulp.
  security::AuditOptions opt;
  opt.samples = 8;
  opt.stat_samples = 8;
  opt.stat_budget = 48;
  const auto pt = sim::measure_leakage(
      "crypto.modexp?width=3&iters=1&size=4&bits=8", opt);
  EXPECT_GT(pt.audit.stat_pairs, 0u);

  const std::string blob = sim::encode_point(pt);
  const auto back = sim::decode_leakage_point(blob);
  EXPECT_EQ(sim::encode_point(back), blob);
  EXPECT_EQ(back.audit.stat_pairs, pt.audit.stat_pairs);
  ASSERT_EQ(back.audit.modes.size(), pt.audit.modes.size());
  bool saw_nonzero_t = false;
  for (usize mi = 0; mi < pt.audit.modes.size(); ++mi) {
    const auto& m = pt.audit.modes[mi];
    const auto& bm = back.audit.modes[mi];
    ASSERT_EQ(bm.channels.size(), m.channels.size()) << m.mode;
    for (usize ci = 0; ci < m.channels.size(); ++ci) {
      const security::ChannelStat& s = m.channels[ci].stat;
      const security::ChannelStat& bs = bm.channels[ci].stat;
      // operator== on ChannelStat compares the doubles exactly.
      EXPECT_EQ(bs, s) << m.mode;
      saw_nonzero_t = saw_nonzero_t || s.t != 0.0;
    }
  }
  // The exactness claim is vacuous unless some statistic is a real
  // nontrivial double (legacy modexp timing guarantees one).
  EXPECT_TRUE(saw_nonzero_t);
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
}

TEST(SweepCodec, AttackRoundTripPreservesKeyRecoveryBitExactly) {
  // The schema-v3 recovery fields must survive the codec bit-exactly —
  // the counters as decimal u64s and the derived recovery-rate doubles
  // (leaked through the f64 hexfloat path for every statistic) down to
  // the last ulp — so a cache hit replays the same gate verdict a fresh
  // two-tenant run would compute.
  security::AuditOptions opt;
  opt.samples = 2;
  const auto pt = sim::measure_leakage(
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2",
      opt);
  const security::ModeAudit* legacy = pt.audit.mode("legacy");
  ASSERT_NE(legacy, nullptr);
  EXPECT_TRUE(legacy->attack);
  EXPECT_GT(legacy->key_bits_total, 0u);

  const std::string blob = sim::encode_point(pt);
  const auto back = sim::decode_leakage_point(blob);
  EXPECT_EQ(sim::encode_point(back), blob);
  ASSERT_EQ(back.audit.modes.size(), pt.audit.modes.size());
  for (usize mi = 0; mi < pt.audit.modes.size(); ++mi) {
    const security::ModeAudit& m = pt.audit.modes[mi];
    const security::ModeAudit& bm = back.audit.modes[mi];
    EXPECT_EQ(bm.attack, m.attack) << m.mode;
    EXPECT_EQ(bm.key_bits_total, m.key_bits_total) << m.mode;
    EXPECT_EQ(bm.key_bits_recovered, m.key_bits_recovered) << m.mode;
    EXPECT_EQ(bm.recovery_rate(), m.recovery_rate()) << m.mode;
  }
  EXPECT_EQ(back.audit.to_string(), pt.audit.to_string());
}

TEST(SweepCodec, CorruptBlobsThrow) {
  EXPECT_THROW(sim::decode_microbench_point(""), SimError);
  EXPECT_THROW(sim::decode_microbench_point("not a point blob\n"), SimError);
  // A valid header of the wrong family must fail loudly, not mis-decode:
  // a microbench blob is a workload blob plus the ideals, under its own
  // family name.
  const auto pt =
      sim::measure_microbench(sim::microbench_spec(Kind::kOnes, 1, 1));
  const sim::WorkloadPoint& as_workload = pt;
  EXPECT_THROW(sim::decode_workload_point(sim::encode_point(pt)), SimError);
  EXPECT_THROW(sim::decode_microbench_point(sim::encode_point(as_workload)),
               SimError);
  // A u64 field is plain decimal digits that fit a u64: a sign or an
  // overflow is corruption, not a value ("-1" would wrap to 2^64-1).
  const std::string blob = sim::encode_point(pt);
  const std::string field = "u ideal_standalone_cycles ";
  const std::string line =
      field + std::to_string(pt.ideal_standalone_cycles) + "\n";
  ASSERT_NE(blob.find(line), std::string::npos);
  for (const char* bad : {"+3", "-1", "18446744073709551616"}) {
    std::string corrupt = blob;
    corrupt.replace(corrupt.find(line), line.size(), field + bad + "\n");
    EXPECT_THROW(sim::decode_microbench_point(corrupt), SimError) << bad;
  }
}

// ---------------------------------------------------------------------------
// Orchestrated sweeps: cache temperature, resume, shards.

std::vector<MicrobenchJob> small_grid() {
  return sim::microbench_grid({Kind::kOnes, Kind::kFibonacci}, {1, 2}, 2, {});
}

/// The --json document of `jobs` swept with `opt`.
std::string sweep_json(const std::vector<MicrobenchJob>& jobs,
                       const SweepOptions& opt = {}) {
  return sim::microbench_json("orch", jobs,
                              sim::run_microbench_sweep(jobs, opt));
}

/// The three shard documents of a 3-way split of `jobs`.
std::vector<std::string> shard_docs(const std::vector<MicrobenchJob>& jobs) {
  std::vector<std::string> docs;
  for (usize s = 0; s < 3; ++s) {
    SweepOptions opt;
    opt.shard = {s, 3};
    docs.push_back(sweep_json(jobs, opt));
  }
  return docs;
}

class SweepOrchestrationTest : public TempDirTest {};

TEST_F(SweepOrchestrationTest, WarmCacheIsByteIdenticalAndCounted) {
  const auto jobs = small_grid();
  const std::string plain = sweep_json(jobs);

  SweepOptions opt;
  opt.threads = 2;
  opt.cache_dir = path("cache");
  const auto cold = sim::run_microbench_sweep(jobs, opt);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, jobs.size());
  EXPECT_EQ(cold.cache.stores, jobs.size());
  EXPECT_EQ(sim::microbench_json("orch", jobs, cold), plain);

  const auto warm = sim::run_microbench_sweep(jobs, opt);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.stores, 0u);
  EXPECT_EQ(sim::microbench_json("orch", jobs, warm), plain);
}

TEST_F(SweepOrchestrationTest, StaleFingerprintEntriesAreReExecuted) {
  const auto jobs = small_grid();

  // The fingerprint is part of the job key, so a rebuild simply misses at
  // a fresh key — old entries are never even consulted.
  SweepOptions before;
  before.cache_dir = path("cache");
  before.fingerprint = "build-one";
  (void)sim::run_microbench_sweep(jobs, before);
  SweepOptions after = before;
  after.fingerprint = "build-two";
  const auto rebuilt = sim::run_microbench_sweep(jobs, after);
  EXPECT_EQ(rebuilt.cache.hits, 0u);
  EXPECT_EQ(rebuilt.cache.misses, jobs.size());
  EXPECT_EQ(rebuilt.cache.stores, jobs.size());

  // The header check is the second line of defense: an entry copied in
  // under a MATCHING key but produced by a different build must be
  // reported stale and re-executed, never served.
  const SweepCache imposter(path("cache"), "some-other-build");
  EXPECT_TRUE(imposter.store(sim::job_cache_key(jobs[0], "build-two"),
                             "bogus payload\n"));
  const auto poisoned = sim::run_microbench_sweep(jobs, after);
  EXPECT_EQ(poisoned.cache.stale, 1u);
  EXPECT_EQ(poisoned.cache.hits, jobs.size() - 1);
  // ...and the re-execution repaired the poisoned entry in place.
  const auto warm = sim::run_microbench_sweep(jobs, after);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(warm.cache.stale, 0u);
}

TEST_F(SweepOrchestrationTest, ResumeAfterKilledJournalIsByteIdentical) {
  const auto jobs = small_grid();
  const std::string fresh = sweep_json(jobs);

  SweepOptions opt;
  opt.journal_path = path("sweep.journal");
  (void)sim::run_microbench_sweep(jobs, opt);

  // Kill simulation: tear bytes off the journal tail, losing one record.
  const auto full_size = fs::file_size(opt.journal_path);
  fs::resize_file(opt.journal_path, full_size - 4);

  const auto resumed = sim::run_microbench_sweep(jobs, opt);
  EXPECT_EQ(resumed.cache.journal_hits, jobs.size() - 1);
  EXPECT_EQ(resumed.cache.misses, 1u);
  EXPECT_EQ(sim::microbench_json("orch", jobs, resumed), fresh);

  // The resumed run re-journaled the lost record: a third run replays
  // everything and executes nothing.
  const auto replayed = sim::run_microbench_sweep(jobs, opt);
  EXPECT_EQ(replayed.cache.journal_hits, jobs.size());
  EXPECT_EQ(sim::microbench_json("orch", jobs, replayed), fresh);
}

TEST_F(SweepOrchestrationTest, TenantWarmCacheJsonIsByteIdentical) {
  // The byte-identity contract extends to the co-residence report: a warm
  // cache must replay the exact gate flags and recovery rates of the cold
  // two-tenant run.
  security::AuditOptions aopt;
  aopt.samples = 2;
  const auto jobs = sim::leakage_grid(
      {"attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8"
       "&iters=2"},
      aopt);
  SweepOptions opt;
  opt.cache_dir = path("cache");
  const auto cold = sim::run_leakage_sweep(jobs, opt);
  EXPECT_EQ(cold.cache.misses, jobs.size());
  const std::string fresh = sim::tenant_json("tenants", jobs, cold);
  EXPECT_NE(fresh.find("\"legacy_recovery_above_chance\": 1"),
            std::string::npos);
  EXPECT_NE(fresh.find("\"sempe_at_chance\": 1"), std::string::npos);
  EXPECT_NE(fresh.find("\"cte_at_chance\": 1"), std::string::npos);

  const auto warm = sim::run_leakage_sweep(jobs, opt);
  EXPECT_EQ(warm.cache.hits, jobs.size());
  EXPECT_EQ(sim::tenant_json("tenants", jobs, warm), fresh);
}

TEST_F(SweepOrchestrationTest, CoResidenceSweepWarmsTheLeakageCache) {
  // The tenants and leakage reports sweep the same family: a co-residence
  // sweep warms the cache for a leakage sweep of the same attack spec.
  security::AuditOptions aopt;
  aopt.samples = 2;
  const std::string spec =
      "attack.prime_probe?victim=crypto.modexp&width=2&size=8&bits=8&iters=2";
  SweepOptions opt;
  opt.cache_dir = path("cache");
  const auto tenant_jobs = sim::leakage_grid({spec}, aopt);
  const auto tenants = sim::run_leakage_sweep(tenant_jobs, opt);
  ASSERT_EQ(tenants.points.size(), 1u);
  EXPECT_TRUE(tenants.points[0].legacy_recovers());

  sim::LeakageJob job;
  job.label = "a label of its own";
  job.spec = spec;
  job.opt = aopt;
  const auto leakage = sim::run_leakage_sweep({job}, opt);
  EXPECT_EQ(leakage.cache.hits, 1u);
  EXPECT_EQ(leakage.cache.misses + leakage.cache.stale +
                leakage.cache.corrupt,
            0u);
  EXPECT_EQ(leakage.cache.stores, 0u);  // one store per executed job
  EXPECT_EQ(sim::leakage_json("leakage", {job}, leakage.points),
            sim::leakage_json("leakage", {job}, tenants.points));
}

TEST(SweepShard, PartitionIsExactAndDeterministic) {
  const auto jobs = small_grid();
  std::set<usize> seen;
  for (usize s = 0; s < 3; ++s) {
    SweepOptions opt;
    opt.shard = {s, 3};
    const auto run = sim::run_microbench_sweep(jobs, opt);
    EXPECT_EQ(run.total_jobs, jobs.size());
    for (const usize g : run.indices) {
      EXPECT_EQ(g % 3, s);
      EXPECT_TRUE(seen.insert(g).second) << "job " << g << " ran twice";
    }
  }
  EXPECT_EQ(seen.size(), jobs.size());
}

TEST(SweepShard, MergedShardJsonIsByteIdenticalToUnsharded) {
  const auto jobs = small_grid();
  const std::string full = sweep_json(jobs);

  std::vector<std::string> docs = shard_docs(jobs);
  // Shard documents are self-describing...
  for (usize s = 0; s < 3; ++s)
    EXPECT_NE(docs[s].find("\"shard\": \"" + std::to_string(s) + "/3\""),
              std::string::npos);
  // ...and merge back to the exact unsharded bytes, in any input order.
  EXPECT_EQ(sim::merge_shard_json(docs), full);
  std::swap(docs[0], docs[2]);
  EXPECT_EQ(sim::merge_shard_json(docs), full);
}

TEST(SweepShard, MergeRejectsIncompleteOrMismatchedShardSets) {
  const auto jobs = small_grid();
  const std::vector<std::string> docs = shard_docs(jobs);
  EXPECT_THROW(sim::merge_shard_json({docs[0], docs[1]}), SimError);
  EXPECT_THROW(sim::merge_shard_json({docs[0], docs[1], docs[1]}), SimError);
  EXPECT_THROW(sim::merge_shard_json({}), SimError);
  // An unsharded document is not a shard of anything.
  EXPECT_THROW(sim::merge_shard_json({sweep_json(jobs)}), SimError);
}

TEST(SweepShard, MergeRejectsNonDecimalIndexAndShardTokens) {
  const auto jobs = small_grid();
  const std::vector<std::string> docs = shard_docs(jobs);
  ASSERT_NO_THROW(sim::merge_shard_json(docs));
  const auto with = [&](usize d, const std::string& from,
                        const std::string& to) {
    std::vector<std::string> bad = docs;
    const usize at = bad[d].find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) bad[d].replace(at, from.size(), to);
    return bad;
  };
  // Trailing junk after an otherwise valid number must not parse as it.
  EXPECT_THROW(sim::merge_shard_json(
                   with(0, "\"_index\": 3,", "\"_index\": 3x,")),
               SimError);
  EXPECT_THROW(sim::merge_shard_json(
                   with(1, "\"shard\": \"1/3\"", "\"shard\": \"1x/3\"")),
               SimError);
  EXPECT_THROW(sim::merge_shard_json(
                   with(2, "\"shard\": \"2/3\"", "\"shard\": \"2/+3\"")),
               SimError);
}

// ---------------------------------------------------------------------------
// CLI surface.

std::vector<char*> make_argv(std::vector<std::string>& store) {
  std::vector<char*> argv;
  argv.reserve(store.size());
  for (std::string& s : store) argv.push_back(s.data());
  return argv;
}

BatchCli parse(std::vector<std::string> store) {
  std::vector<char*> argv = make_argv(store);
  int argc = static_cast<int>(argv.size());
  return sim::parse_batch_cli(argc, argv.data());
}

TEST(BatchCliSweep, ParsesOrchestrationFlags) {
  const BatchCli cli = parse({"bench", "--shard=1/3", "--cache-dir=/tmp/c",
                              "--journal=/tmp/j", "--jobs=fib.*W=2"});
  EXPECT_TRUE(cli.ok);
  EXPECT_EQ(cli.shard_index, 1u);
  EXPECT_EQ(cli.shard_count, 3u);
  EXPECT_EQ(cli.cache_dir, "/tmp/c");
  EXPECT_EQ(cli.journal_path, "/tmp/j");
  EXPECT_EQ(cli.jobs_regex, "fib.*W=2");
  const SweepOptions opt = sim::sweep_options(cli);
  EXPECT_EQ(opt.shard.index, 1u);
  EXPECT_EQ(opt.shard.count, 3u);
  EXPECT_EQ(opt.cache_dir, "/tmp/c");
  EXPECT_EQ(opt.journal_path, "/tmp/j");
}

TEST(BatchCliSweep, RejectsMalformedOrchestrationFlags) {
  EXPECT_FALSE(parse({"bench", "--shard=3/3"}).ok);   // index out of range
  EXPECT_FALSE(parse({"bench", "--shard=0/0"}).ok);
  EXPECT_FALSE(parse({"bench", "--shard=banana"}).ok);
  EXPECT_FALSE(parse({"bench", "--cache-dir="}).ok);
  EXPECT_FALSE(parse({"bench", "--journal="}).ok);
  EXPECT_FALSE(parse({"bench", "--jobs=[unclosed"}).ok);  // invalid regex
  // Numeric values are plain decimal digits (parse_decimal): no sign, no
  // blanks, no trailing junk.
  EXPECT_FALSE(parse({"bench", "--threads=+2"}).ok);
  EXPECT_FALSE(parse({"bench", "--threads= 2"}).ok);
  EXPECT_FALSE(parse({"bench", "--threads=-1"}).ok);
  EXPECT_FALSE(parse({"bench", "--threads=2x"}).ok);
  EXPECT_FALSE(parse({"bench", "--shard=+0/2"}).ok);
  EXPECT_FALSE(parse({"bench", "--shard=0/+2"}).ok);
  EXPECT_FALSE(parse({"bench", "--shard=0/2/3"}).ok);
}

TEST(BatchCliSweep, JobsRegexFiltersByLabel) {
  BatchCli cli;
  cli.jobs_regex = "fibonacci/W=1$";
  auto jobs = small_grid();
  const usize before = jobs.size();
  sim::apply_job_filter(jobs, cli);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NE(jobs[0].label.find("fibonacci"), std::string::npos);
  // An empty regex keeps everything.
  auto all = small_grid();
  sim::apply_job_filter(all, BatchCli{});
  EXPECT_EQ(all.size(), before);
}

TEST(BatchCliSweep, FilteredSweepJsonContainsOnlyMatchingLabels) {
  BatchCli cli;
  cli.jobs_regex = "ones";
  auto jobs = small_grid();
  sim::apply_job_filter(jobs, cli);
  const std::string json = sweep_json(jobs);
  EXPECT_NE(json.find("ones"), std::string::npos);
  EXPECT_EQ(json.find("fibonacci"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The run_indexed_labeled exception path (the satellite fix): a throwing
// job must record jobs.failed and still rethrow.

TEST(RunIndexedLabeled, FailureIsCountedBeforeTheRethrow) {
  obs::Session::Options oopt;
  oopt.metrics = true;
  obs::Session session(oopt);
  {
    const obs::ScopedSession scoped(&session);
    const auto boom = [](usize i) -> usize {
      SEMPE_CHECK_MSG(i != 2, "job " << i << " exploded");
      return i;
    };
    const auto label_of = [](usize i) {
      return "job/" + std::to_string(i);
    };
    EXPECT_THROW(sim::run_indexed_labeled(4, 1, boom, label_of), SimError);
  }
  const auto merged = session.metrics().merged();
  const auto& counters = merged.counters();
  const auto failed = counters.find("jobs.failed");
  ASSERT_NE(failed, counters.end());
  EXPECT_EQ(failed->second, 1u);
  const auto completed = counters.find("jobs.completed");
  ASSERT_NE(completed, counters.end());
  EXPECT_EQ(completed->second, 2u);  // jobs 0 and 1 retired before the throw
}

TEST_F(SweepOrchestrationTest, SweepExportsCacheMetrics) {
  const auto jobs = small_grid();
  SweepOptions opt;
  opt.cache_dir = path("cache");
  (void)sim::run_microbench_sweep(jobs, opt);  // cold: fill the cache

  obs::Session::Options oopt;
  oopt.metrics = true;
  obs::Session session(oopt);
  {
    const obs::ScopedSession scoped(&session);
    (void)sim::run_microbench_sweep(jobs, opt);
  }
  const auto merged = session.metrics().merged();
  const auto& counters = merged.counters();
  const auto hits = counters.find("sweep.cache_hits");
  ASSERT_NE(hits, counters.end());
  EXPECT_EQ(hits->second, jobs.size());
}

}  // namespace
}  // namespace sempe
