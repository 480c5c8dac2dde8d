// Unit tests for src/util: RNG determinism and distributions, thread pool,
// parallel helpers, statistics, tables, CSV, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace wnf {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal());
  const auto s = acc.summary();
  EXPECT_NEAR(s.mean, 0.0, 0.02);
  EXPECT_NEAR(s.stddev, 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(3.0, 0.5));
  const auto s = acc.summary();
  EXPECT_NEAR(s.mean, 3.0, 0.02);
  EXPECT_NEAR(s.stddev, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SignIsBalanced) {
  Rng rng(23);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.sign();
  EXPECT_NEAR(sum / 20000.0, 0.0, 0.03);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = rng.sample_indices(50, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    for (std::size_t index : sample) EXPECT_LT(index, 50u);
  }
}

TEST(Rng, SampleIndicesFullRange) {
  Rng rng(31);
  const auto sample = rng.sample_indices(8, 8);
  ASSERT_EQ(sample.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleIndicesZero) {
  Rng rng(31);
  EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

TEST(Rng, SampleIndicesUniformCoverage) {
  // Every index should be chosen roughly equally often.
  Rng rng(37);
  std::vector<int> hits(10, 0);
  for (int trial = 0; trial < 10000; ++trial) {
    for (std::size_t index : rng.sample_indices(10, 3)) ++hits[index];
  }
  for (int count : hits) EXPECT_NEAR(count, 3000, 300);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(43);
  Rng child_a = parent.split();
  Rng child_b = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child_a.next_u64() == child_b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, OffsetRange) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum.fetch_add(long(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + .. + 19
}

TEST(ParallelFor, ChunksCoverRangeOnceInContiguousPieces) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::atomic<int>> hits(103);
  parallel_for_chunks(pool, 7, 110, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i - 7].fetch_add(1);
    std::lock_guard lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Non-empty [lo, hi) pieces that tile the range end to end, at most four
  // per worker, so a body can hold per-chunk state over several indices.
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 4 * pool.size());
  EXPECT_EQ(chunks.front().first, 7u);
  EXPECT_EQ(chunks.back().second, 110u);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_LT(chunks[c].first, chunks[c].second);
    if (c > 0) EXPECT_EQ(chunks[c - 1].second, chunks[c].first);
  }
}

TEST(ParallelFor, ChunksRunSeriallyOnOneWorkerPool) {
  ThreadPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::thread::id> threads;
  parallel_for_chunks(pool, 3, 50, [&](std::size_t lo, std::size_t hi) {
    chunks.emplace_back(lo, hi);
    threads.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks.front(), std::make_pair(std::size_t{3}, std::size_t{50}));
  EXPECT_EQ(threads.front(), std::this_thread::get_id());

  bool touched = false;
  parallel_for_chunks(pool, 5, 5, [&](std::size_t, std::size_t) {
    touched = true;
  });
  EXPECT_FALSE(touched);
}

TEST(ParallelSum, MatchesSerialSum) {
  ThreadPool pool(4);
  const double total =
      parallel_sum(pool, 1000, [](std::size_t i) { return double(i); });
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  const auto s = acc.summary();
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, MergeEqualsCombined) {
  Rng rng(47);
  Accumulator combined;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    combined.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.summary().mean, combined.summary().mean, 1e-9);
  EXPECT_NEAR(left.summary().stddev, combined.summary().stddev, 1e-9);
  EXPECT_EQ(left.summary().count, combined.summary().count);
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

TEST(Table, FormatsRowsAndAlignment) {
  Table table({"a", "value"});
  table.add_row({"x", "1.5"});
  table.add_row({"longer", "2"});
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, NumAndSciFormat) {
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::num(0.25, 2), "0.25");
  const std::string sci = Table::sci(1234.5, 2);
  EXPECT_NE(sci.find("e+03"), std::string::npos);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/wnf_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    ASSERT_TRUE(csv.ok());
    csv.add_row(std::vector<double>{1.0, 2.5});
    csv.add_row(std::vector<std::string>{"has,comma", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\",\"has\"\"quote\"");
}

TEST(Cli, ParsesTypedValues) {
  const char* argv[] = {"prog", "trials=50", "lr=0.5", "name=net", "fast=true"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("trials", 1), 50);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.5);
  EXPECT_EQ(args.get_string("name", ""), "net");
  EXPECT_TRUE(args.get_bool("fast", false));
  args.reject_unknown();  // all keys were requested
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("trials", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.25), 0.25);
  EXPECT_EQ(args.get_string("name", "d"), "d");
  EXPECT_FALSE(args.get_bool("fast", false));
}

}  // namespace
}  // namespace wnf
