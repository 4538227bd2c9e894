#include "core/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "core/aggregation.h"

namespace desis {
namespace {

TEST(AggregationTable, OperatorsForMatchesPaperTable1) {
  EXPECT_EQ(OperatorsFor(AggregationFunction::kSum),
            MaskOf(OperatorKind::kSum));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kCount),
            MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kAverage),
            MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kProduct),
            MaskOf(OperatorKind::kMultiply));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kGeometricMean),
            MaskOf(OperatorKind::kMultiply) | MaskOf(OperatorKind::kCount));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMax),
            MaskOf(OperatorKind::kDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMin),
            MaskOf(OperatorKind::kDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kMedian),
            MaskOf(OperatorKind::kNonDecomposableSort));
  EXPECT_EQ(OperatorsFor(AggregationFunction::kQuantile),
            MaskOf(OperatorKind::kNonDecomposableSort));
}

TEST(AggregationTable, Decomposability) {
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kSum));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kAverage));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kMin));
  EXPECT_TRUE(IsDecomposable(AggregationFunction::kGeometricMean));
  EXPECT_FALSE(IsDecomposable(AggregationFunction::kMedian));
  EXPECT_FALSE(IsDecomposable(AggregationFunction::kQuantile));
}

TEST(AggregationTable, SharedOperatorsReduceWork) {
  // avg + sum need only {sum, count}: 2 operator executions per event, not 3.
  OperatorMask mask = OperatorsFor(AggregationFunction::kAverage) |
                      OperatorsFor(AggregationFunction::kSum);
  EXPECT_EQ(OperatorCount(mask), 2);
  // quantile + max share nothing extra over quantile alone... they need
  // non-decomposable sort + decomposable sort = 2.
  mask = OperatorsFor(AggregationFunction::kQuantile) |
         OperatorsFor(AggregationFunction::kMax);
  EXPECT_EQ(OperatorCount(mask), 2);
  // median + quantile share a single non-decomposable sort.
  mask = OperatorsFor(AggregationFunction::kMedian) |
         OperatorsFor(AggregationFunction::kQuantile);
  EXPECT_EQ(OperatorCount(mask), 1);
}

TEST(Operators, SumCountMultiply) {
  SumState sum;
  CountState count;
  MultiplyState mult;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    sum.Add(v);
    count.Add(v);
    mult.Add(v);
  }
  EXPECT_DOUBLE_EQ(sum.sum, 10.0);
  EXPECT_EQ(count.count, 4u);
  EXPECT_DOUBLE_EQ(mult.product, 24.0);

  SumState sum2;
  sum2.Add(5.0);
  sum.Merge(sum2);
  EXPECT_DOUBLE_EQ(sum.sum, 15.0);
}

TEST(Operators, MinMaxSharedState) {
  MinMaxState mm;
  for (double v : {3.0, -1.0, 7.0, 2.0}) mm.Add(v);
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 7.0);

  MinMaxState other;
  other.Add(-5.0);
  other.Add(100.0);
  mm.Merge(other);
  EXPECT_DOUBLE_EQ(mm.min, -5.0);
  EXPECT_DOUBLE_EQ(mm.max, 100.0);
}

TEST(Operators, SortedStateMedianOdd) {
  SortedState s;
  for (double v : {5.0, 1.0, 3.0}) s.Add(v);
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(Operators, SortedStateMedianEven) {
  SortedState s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.Add(v);
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
}

TEST(Operators, SortedStateQuantiles) {
  SortedState s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  s.Seal();
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 50.5);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 1e-9);
}

TEST(Operators, SortedStateMergeKeepsOrder) {
  SortedState a;
  SortedState b;
  for (double v : {9.0, 1.0, 5.0}) a.Add(v);
  for (double v : {2.0, 8.0}) b.Add(v);
  a.Seal();
  b.Seal();
  a.Merge(b);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.NthValue(i - 1), a.NthValue(i));
  }
}

TEST(PartialAggregate, AddReturnsExecutedOperatorCount) {
  PartialAggregate agg(OperatorsFor(AggregationFunction::kAverage) |
                       OperatorsFor(AggregationFunction::kSum));
  // avg+sum collapse to {sum, count}: exactly 2 executions per event.
  EXPECT_EQ(agg.Add(1.0), 2);

  PartialAggregate all(
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort));
  EXPECT_EQ(all.Add(2.0), 5);
}

TEST(PartialAggregate, FinalizeEveryFunctionFromSharedState) {
  PartialAggregate agg(
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort));
  for (double v : {2.0, 8.0, 4.0}) agg.Add(v);
  agg.Seal();

  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kSum, 0}), 14.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kCount, 0}), 3.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kAverage, 0}),
                   14.0 / 3.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kProduct, 0}), 64.0);
  EXPECT_NEAR(agg.Finalize({AggregationFunction::kGeometricMean, 0}),
              std::cbrt(64.0), 1e-9);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMin, 0}), 2.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMax, 0}), 8.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kMedian, 0}), 4.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kQuantile, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(agg.Finalize({AggregationFunction::kQuantile, 1.0}), 8.0);
}

TEST(PartialAggregate, MergeEqualsSingleShot) {
  // Property: F(X0..n) == G(F(X0..i), F(Xi..n)) for decomposable operators.
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate whole(mask);
  PartialAggregate left(mask);
  PartialAggregate right(mask);
  const double values[] = {5, 3, 9, 1, 7, 2, 8, 6};
  for (int i = 0; i < 8; ++i) {
    whole.Add(values[i]);
    (i < 4 ? left : right).Add(values[i]);
  }
  whole.Seal();
  left.Seal();
  right.Seal();
  left.Merge(right);

  for (AggregationFunction fn :
       {AggregationFunction::kSum, AggregationFunction::kCount,
        AggregationFunction::kAverage, AggregationFunction::kMin,
        AggregationFunction::kMax, AggregationFunction::kMedian}) {
    EXPECT_DOUBLE_EQ(whole.Finalize({fn, 0.5}), left.Finalize({fn, 0.5}))
        << ToString(fn);
  }
}

TEST(PartialAggregate, MergeSubsetMaskReadsOnlyNeededOperators) {
  // A slice partial carries the group's union mask; assembling a sum-only
  // window must not touch the (expensive) sorted state.
  const OperatorMask group_mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate slice(group_mask);
  for (double v : {1.0, 2.0, 3.0}) slice.Add(v);
  slice.Seal();

  PartialAggregate acc(MaskOf(OperatorKind::kSum));
  acc.Seal();
  acc.Merge(slice);
  EXPECT_DOUBLE_EQ(acc.Finalize({AggregationFunction::kSum, 0}), 6.0);
  EXPECT_EQ(acc.sorted_state().size(), 0u);
}

TEST(PartialAggregate, SerializeRoundTrip) {
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kMultiply) |
      MaskOf(OperatorKind::kDecomposableSort) |
      MaskOf(OperatorKind::kNonDecomposableSort);
  PartialAggregate agg(mask);
  for (double v : {3.0, 1.0, 4.0, 1.5}) agg.Add(v);
  agg.Seal();

  ByteWriter out;
  agg.SerializeTo(out);
  ByteReader in(out.bytes());
  PartialAggregate back = PartialAggregate::DeserializeFrom(in);
  EXPECT_TRUE(in.AtEnd());

  EXPECT_EQ(back.mask(), mask);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kSum, 0}), 9.5);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kCount, 0}), 4.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMin, 0}), 1.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMax, 0}), 4.0);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kMedian, 0}), 2.25);
}

TEST(PartialAggregate, EmptyPartialSerializeRoundTrip) {
  PartialAggregate agg(MaskOf(OperatorKind::kSum));
  ByteWriter out;
  agg.SerializeTo(out);
  ByteReader in(out.bytes());
  PartialAggregate back = PartialAggregate::DeserializeFrom(in);
  EXPECT_DOUBLE_EQ(back.Finalize({AggregationFunction::kSum, 0}), 0.0);
}

TEST(PartialAggregate, EmptySortStateFinalizesToZero) {
  PartialAggregate agg(MaskOf(OperatorKind::kNonDecomposableSort));
  agg.Seal();
  EXPECT_EQ(agg.Finalize({AggregationFunction::kMedian, 0}), 0.0);
  EXPECT_EQ(agg.Finalize({AggregationFunction::kQuantile, 0.9}), 0.0);
  EXPECT_EQ(agg.Finalize({AggregationFunction::kMin, 0}), 0.0);
  EXPECT_EQ(agg.Finalize({AggregationFunction::kMax, 0}), 0.0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

SortedState SealedRun(const std::vector<double>& values) {
  SortedState run;
  run.AddN(values.data(), values.size());
  run.Seal();
  return run;
}

// Sorted-array median and type-7 quantile, written out as the oracle.
double OracleMedian(const std::vector<double>& v) {
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double OracleQuantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  if (q <= 0.0) return v.front();
  if (q >= 1.0) return v.back();
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v[lo];
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

constexpr double kQuantiles[] = {0, 1e-9, 0.25, 0.5, 0.75, 0.9, 0.99, 1};

// Every read of `runs` must equal, bit for bit, the same read of the array
// `merged` (the in-order merge of the same runs).
void ExpectReadsLikeMerged(const SortedRuns& runs, const SortedState& merged) {
  const std::vector<double>& v = merged.values();
  ASSERT_EQ(runs.size(), v.size());
  for (size_t k = 0; k < v.size(); ++k) {
    ASSERT_TRUE(SameBits(runs.NthValue(k), v[k])) << "rank " << k;
  }
  EXPECT_TRUE(SameBits(runs.MinValue(), v.empty() ? 0.0 : v.front()));
  EXPECT_TRUE(SameBits(runs.MaxValue(), v.empty() ? 0.0 : v.back()));
  EXPECT_TRUE(SameBits(runs.Median(), OracleMedian(v)));
  for (double q : kQuantiles) {
    EXPECT_TRUE(SameBits(runs.Quantile(q), OracleQuantile(v, q))) << "q=" << q;
  }
}

TEST(SortedRuns, SelectionReadsLikeTheInOrderMerge) {
  Rng rng(20231);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    // Even trials draw from 43 values (heavy duplicates), odd ones from a
    // wide range; both draw negatives and both zeros often.
    const bool narrow = trial % 2 == 0;
    auto draw = [&]() -> double {
      switch (rng.NextBounded(8)) {
        case 0: return -0.0;
        case 1: return 0.0;
        default:
          return narrow
                     ? static_cast<double>(
                           static_cast<int64_t>(rng.NextBounded(41)) - 20) /
                           2
                     : static_cast<double>(
                           static_cast<int64_t>(rng.NextBounded(1 << 20)) -
                           (1 << 19)) /
                           7;
      }
    };
    std::vector<SortedState> states(rng.NextBounded(7));
    for (SortedState& state : states) {
      std::vector<double> values(rng.NextBounded(2001));
      for (double& v : values) v = draw();
      state = SealedRun(values);
    }
    // Runs join in visit order; a prepended run stands for
    // MergeCompatible's narrowing, which merges into a copy of the source.
    SortedRuns runs;
    SortedState merged;
    merged.Seal();
    for (const SortedState& state : states) {
      if (rng.NextBounded(4) == 0) {
        runs.Prepend(state);
        SortedState first = state;
        first.Merge(merged);
        merged = std::move(first);
      } else {
        runs.Append(state);
        merged.Merge(state);
      }
    }
    ExpectReadsLikeMerged(runs, merged);
  }
}

TEST(SortedRuns, SketchRunMergesInOrder) {
  Rng rng(7);
  auto values = [&](size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng.NextBounded(1000));
    return v;
  };
  SortedState sketch;
  sketch.EnableSketch(mem::TDigest::kDefaultCompression);
  const std::vector<double> sketched = values(5000);
  sketch.AddN(sketched.data(), sketched.size());
  sketch.Seal();
  const SortedState states[] = {SealedRun(values(800)), sketch,
                                SealedRun(values(1200))};
  SortedRuns runs;
  SortedState merged;
  merged.Seal();
  for (const SortedState& state : states) {
    runs.Append(state);
    merged.Merge(state);
  }
  ASSERT_TRUE(merged.sketch());
  EXPECT_EQ(runs.size(), merged.size());
  EXPECT_TRUE(SameBits(runs.MinValue(), merged.digest().min()));
  EXPECT_TRUE(SameBits(runs.MaxValue(), merged.digest().max()));
  EXPECT_TRUE(SameBits(runs.Median(), merged.digest().Quantile(0.5)));
  for (double q : kQuantiles) {
    EXPECT_TRUE(SameBits(runs.Quantile(q), merged.digest().Quantile(q)))
        << "q=" << q;
  }
}

TEST(PartialAggregate, WindowMergeMatchesInOrderMergeWhenNarrowed) {
  // The second partial lacks COUNT (sealed before a runtime widening), so
  // the window narrows to it and its sort values come first among equals:
  // MIN must read its -0.0, not the first partial's +0.0.
  const OperatorMask narrow = MaskOf(OperatorKind::kSum) |
                              MaskOf(OperatorKind::kNonDecomposableSort);
  const OperatorMask wide =
      static_cast<OperatorMask>(narrow | MaskOf(OperatorKind::kCount));
  auto partial = [](OperatorMask mask, std::vector<double> values) {
    PartialAggregate p(mask);
    p.AddN(values.data(), values.size());
    p.Seal();
    return p;
  };
  const PartialAggregate partials[] = {partial(wide, {0.0, 3.0, 1.0}),
                                       partial(narrow, {-0.0, 2.0}),
                                       partial(wide, {5.0, 0.0, 4.0})};
  PartialAggregate merged(wide);
  merged.Seal();
  PartialAggregate window(wide);
  SortedRuns runs;
  for (const PartialAggregate& p : partials) {
    PartialAggregate::MergeCompatible(merged, p);
    PartialAggregate::MergeCompatible(window, runs, p);
  }
  ASSERT_EQ(window.mask(), narrow);
  ASSERT_EQ(merged.mask(), narrow);
  using F = AggregationFunction;
  for (const AggregationSpec spec :
       {AggregationSpec{F::kSum, 0}, AggregationSpec{F::kMin, 0},
        AggregationSpec{F::kMax, 0}, AggregationSpec{F::kMedian, 0},
        AggregationSpec{F::kQuantile, 0.3}}) {
    EXPECT_TRUE(
        SameBits(window.Finalize(spec, runs), merged.Finalize(spec)))
        << ToString(spec.fn);
  }
  EXPECT_TRUE(SameBits(window.Finalize({F::kMin, 0}, runs), -0.0));
}

// Property sweep: merged quantiles equal whole-set quantiles for any split.
class QuantileMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMergeProperty, SplitInvariant) {
  const int split = GetParam();
  const int n = 64;
  PartialAggregate whole(MaskOf(OperatorKind::kNonDecomposableSort));
  PartialAggregate left(MaskOf(OperatorKind::kNonDecomposableSort));
  PartialAggregate right(MaskOf(OperatorKind::kNonDecomposableSort));
  uint64_t state = 42;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = static_cast<double>(state % 1000);
    whole.Add(v);
    (i < split ? left : right).Add(v);
  }
  whole.Seal();
  left.Seal();
  right.Seal();
  left.Merge(right);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(whole.Finalize({AggregationFunction::kQuantile, q}),
                     left.Finalize({AggregationFunction::kQuantile, q}))
        << "q=" << q << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, QuantileMergeProperty,
                         ::testing::Values(0, 1, 7, 16, 32, 48, 63, 64));

}  // namespace
}  // namespace desis
