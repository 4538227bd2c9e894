#include "core/operators.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace desis {

void SortedState::Add(double v) {
  assert(!sealed_);
  if (digest_) {
    digest_->Add(v);
    return;
  }
  values_.push_back(v);
}

void SortedState::AddN(const double* v, size_t n) {
  assert(!sealed_);
  if (digest_) {
    digest_->AddN(v, n);
    return;
  }
  values_.insert(values_.end(), v, v + n);
}

void SortedState::Seal() {
  if (!sealed_) {
    if (digest_) {
      digest_->Compress();
      represented_ = digest_->count();
      sealed_ = true;
      return;
    }
    std::sort(values_.begin(), values_.end());
    represented_ = values_.size();
    sealed_ = true;
  }
}

void SortedState::EnableSketch(double compression) {
  assert(!sealed_ && values_.empty());
  digest_.emplace(compression);
}

void SortedState::Reserve(size_t additional) {
  if (digest_) return;
  values_.reserve(values_.size() + additional);
}

std::vector<double> SortedState::TakeSortedRun() {
  assert(!sealed_ && !digest_);
  std::sort(values_.begin(), values_.end());
  std::vector<double> run;
  run.swap(values_);  // swap (not move) guarantees the capacity is released
  return run;
}

std::vector<double> SortedState::TakeSealedValues() {
  assert(sealed_ && !digest_);
  std::vector<double> out;
  out.swap(values_);
  return out;
}

void SortedState::AdoptSorted(std::vector<double> sorted,
                              uint64_t represented) {
  assert(!digest_);
  values_ = std::move(sorted);
  represented_ = represented;
  sealed_ = true;
}

void SortedState::Merge(const SortedState& other) {
  assert(sealed_ && other.sealed_);
  // Sketch infects the merge: once either side is a digest the exact ranks
  // are gone, so the result is a digest. Safe because sketch lanes are
  // per-group static — exact queries never assemble over sketch slices
  // (a sketch flip is a structural change, activation-gated like any other).
  if (digest_ || other.digest_) {
    if (!digest_) {
      mem::TDigest converted(other.digest_->compression());
      converted.AddN(values_.data(), values_.size());
      values_.clear();
      values_.shrink_to_fit();
      digest_ = std::move(converted);
    }
    if (other.digest_) {
      digest_->Merge(*other.digest_);
    } else {
      digest_->AddN(other.values_.data(), other.values_.size());
    }
    digest_->Compress();
    represented_ += other.represented_;
    return;
  }
  const size_t mid = values_.size();
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  std::inplace_merge(values_.begin(), values_.begin() + mid, values_.end());
  represented_ += other.represented_;
}

double SortedState::Median() const {
  assert(sealed_);
  return SortedRuns(*this).Median();
}

double SortedState::Quantile(double q) const {
  assert(sealed_);
  return SortedRuns(*this).Quantile(q);
}

void SortedState::SerializeTo(ByteWriter& out) const {
  // Mode byte: bit 0 = sealed, bit 1 = sketch. Exact states keep writing
  // 0/1 exactly as before — the wire format (and thus bytes_sent baselines)
  // only changes for lanes that opted into the sketch.
  out.WriteU8(static_cast<uint8_t>((sealed_ ? 1 : 0) | (digest_ ? 2 : 0)));
  if (digest_) {
    out.WriteU64(represented_);
    digest_->SerializeTo(out);
    return;
  }
  out.WriteU64(represented_);
  out.WritePodVector(values_);
}

SortedState SortedState::DeserializeFrom(ByteReader& in) {
  SortedState state;
  const uint8_t mode = in.ReadU8();
  state.sealed_ = (mode & 1) != 0;
  if ((mode & 2) != 0) {
    state.represented_ = in.ReadU64();
    state.digest_ = mem::TDigest::DeserializeFrom(in);
    return state;
  }
  state.represented_ = in.ReadU64();
  state.values_ = in.ReadPodVector<double>();
  return state;
}

void SortedRuns::Append(const SortedState& run) {
  assert(whole_ == nullptr && run.sealed());
  if (!merged_ && run.sketch()) StartMerging();
  if (merged_) {
    merged_->Merge(run);
    return;
  }
  runs_.push_back(&run);
  size_ += run.size();
}

void SortedRuns::Prepend(const SortedState& run) {
  assert(whole_ == nullptr && run.sealed());
  if (!merged_ && run.sketch()) StartMerging();
  if (merged_) {
    SortedState first = run;
    first.Merge(*merged_);
    merged_ = std::move(first);
    return;
  }
  runs_.insert(runs_.begin(), &run);
  size_ += run.size();
}

void SortedRuns::Clear() {
  runs_.clear();
  size_ = 0;
  merged_.reset();
}

const SortedState& SortedRuns::Keep(SortedState run) {
  kept_.push_front(std::move(run));
  return kept_.front();
}

void SortedRuns::StartMerging() {
  merged_.emplace();
  merged_->Seal();
  for (const SortedState* run : runs_) merged_->Merge(*run);
  runs_.clear();
  size_ = 0;
}

size_t SortedRuns::size() const {
  const SortedState* whole = Whole();
  return whole != nullptr ? whole->size() : size_;
}

double SortedRuns::NthValue(size_t k) const {
  assert(k < size());
  if (const SortedState* whole = Whole()) return whole->NthValue(k);
  if (runs_.size() == 1) return runs_[0]->NthValue(k);
  return Select(k);
}

double SortedRuns::Select(size_t k) const {
  // Per run: the live range [lo, hi) and, each round, the values equal to
  // the pivot [eq_lo, eq_hi). The live values of all runs form one
  // contiguous stretch of the merged order; k is the rank within it.
  struct Range {
    const double* lo;
    const double* hi;
    const double* eq_lo;
    const double* eq_hi;
  };
  std::vector<Range> live;
  live.reserve(runs_.size());
  for (const SortedState* run : runs_) {
    const double* data = run->values().data();
    live.push_back({data, data + run->values().size(), data, data});
  }
  for (;;) {
    size_t longest = 0;
    for (size_t i = 1; i < live.size(); ++i) {
      if (live[i].hi - live[i].lo > live[longest].hi - live[longest].lo) {
        longest = i;
      }
    }
    const Range& pivot_run = live[longest];
    assert(pivot_run.hi > pivot_run.lo);
    const double* pivot_at = pivot_run.lo + (pivot_run.hi - pivot_run.lo) / 2;
    const double pivot = *pivot_at;
    size_t below = 0;
    size_t through = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      Range& r = live[i];
      r.eq_lo = std::lower_bound(r.lo, r.hi, pivot);
      r.eq_hi = std::upper_bound(r.eq_lo, r.hi, pivot);
      if (i == longest) {
        // The pivot's own run brackets it even if the values are not
        // ordered (NaN), so every round shrinks the longest range.
        r.eq_lo = std::min(r.eq_lo, pivot_at);
        r.eq_hi = std::max(r.eq_hi, pivot_at + 1);
      }
      below += static_cast<size_t>(r.eq_lo - r.lo);
      through += static_cast<size_t>(r.eq_hi - r.lo);
    }
    if (k < below) {
      for (Range& r : live) r.hi = r.eq_lo;
    } else if (k >= through) {
      k -= through;
      for (Range& r : live) r.lo = r.eq_hi;
    } else {
      // Equal values order by run, then by position: walk the runs.
      k -= below;
      for (const Range& r : live) {
        const auto n = static_cast<size_t>(r.eq_hi - r.eq_lo);
        if (k < n) return r.eq_lo[k];
        k -= n;
      }
    }
  }
}

double SortedRuns::MinValue() const {
  if (const SortedState* whole = Whole()) {
    return whole->size() == 0 ? 0.0 : whole->MinValue();
  }
  // The merged front: the smallest value, the earliest run among equals.
  const SortedState* best = nullptr;
  for (const SortedState* run : runs_) {
    if (run->size() != 0 &&
        (best == nullptr || run->MinValue() < best->MinValue())) {
      best = run;
    }
  }
  return best == nullptr ? 0.0 : best->MinValue();
}

double SortedRuns::MaxValue() const {
  if (const SortedState* whole = Whole()) {
    return whole->size() == 0 ? 0.0 : whole->MaxValue();
  }
  // The merged back: the largest value, the latest run among equals.
  const SortedState* best = nullptr;
  for (const SortedState* run : runs_) {
    if (run->size() != 0 &&
        (best == nullptr || !(run->MaxValue() < best->MaxValue()))) {
      best = run;
    }
  }
  return best == nullptr ? 0.0 : best->MaxValue();
}

double SortedRuns::Median() const {
  const size_t n = size();
  if (n == 0) return 0.0;
  const SortedState* whole = Whole();
  if (whole != nullptr && whole->sketch()) return whole->digest().Quantile(0.5);
  if (n % 2 == 1) return NthValue(n / 2);
  return 0.5 * (NthValue(n / 2 - 1) + NthValue(n / 2));
}

double SortedRuns::Quantile(double q) const {
  const size_t n = size();
  if (n == 0) return 0.0;
  const SortedState* whole = Whole();
  if (whole != nullptr && whole->sketch()) return whole->digest().Quantile(q);
  if (q <= 0.0) return MinValue();
  if (q >= 1.0) return MaxValue();
  // Linear interpolation between closest ranks (type-7 quantile).
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double at_lo = NthValue(lo);
  if (lo + 1 >= n) return at_lo;
  const double at_hi = NthValue(lo + 1);
  return at_lo + frac * (at_hi - at_lo);
}

SortedState SortedRuns::Merged() const {
  if (const SortedState* whole = Whole()) return *whole;
  SortedState out;
  out.Seal();
  for (const SortedState* run : runs_) out.Merge(*run);
  return out;
}

int PartialAggregate::Add(double v) {
  int executed = 0;
  if (MaskHas(mask_, OperatorKind::kSum)) {
    sum_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kCount)) {
    count_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    multiply_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    minmax_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.Add(v);
    ++executed;
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    sum_squares_.Add(v);
    ++executed;
  }
  return executed;
}

uint64_t PartialAggregate::AddN(const double* values, size_t n) {
  uint64_t executed = 0;
  if (MaskHas(mask_, OperatorKind::kSum)) {
    sum_.AddN(values, n);
    executed += n;
  }
  if (MaskHas(mask_, OperatorKind::kCount)) {
    count_.AddN(values, n);
    executed += n;
  }
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    multiply_.AddN(values, n);
    executed += n;
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    minmax_.AddN(values, n);
    executed += n;
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.AddN(values, n);
    executed += n;
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    sum_squares_.AddN(values, n);
    executed += n;
  }
  return executed;
}

void PartialAggregate::Seal() {
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) sorted_.Seal();
}

void PartialAggregate::Merge(const PartialAggregate& other) {
  MergeUnsorted(other);
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.Merge(other.sorted_);
  }
}

void PartialAggregate::MergeUnsorted(const PartialAggregate& other) {
  assert((mask_ & ~other.mask_) == 0);
  if (MaskHas(mask_, OperatorKind::kSum)) sum_.Merge(other.sum_);
  if (MaskHas(mask_, OperatorKind::kCount)) count_.Merge(other.count_);
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    multiply_.Merge(other.multiply_);
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    minmax_.Merge(other.minmax_);
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    sum_squares_.Merge(other.sum_squares_);
  }
}

void PartialAggregate::MergeCompatible(PartialAggregate& dst,
                                       SortedRuns& runs,
                                       const PartialAggregate& src,
                                       std::optional<SortedState> restored) {
  const SortedState& run =
      restored ? runs.Keep(std::move(*restored)) : src.sorted_;
  if ((dst.mask_ & ~src.mask_) == 0) {
    dst.MergeUnsorted(src);
    if (MaskHas(dst.mask_, OperatorKind::kNonDecomposableSort)) {
      runs.Append(run);
    }
    return;
  }
  // Narrowed to src's mask, with src's states first (see the two-argument
  // form).
  PartialAggregate narrowed(src.mask_);
  narrowed.sum_ = src.sum_;
  narrowed.sum_squares_ = src.sum_squares_;
  narrowed.count_ = src.count_;
  narrowed.multiply_ = src.multiply_;
  narrowed.minmax_ = src.minmax_;
  narrowed.MergeUnsorted(dst);
  if (MaskHas(narrowed.mask_, OperatorKind::kNonDecomposableSort)) {
    runs.Prepend(run);
  } else {
    runs.Clear();
  }
  dst = std::move(narrowed);
}

double PartialAggregate::Finalize(const AggregationSpec& spec,
                                  const SortedRuns& runs) const {
  assert((ResolveNeeded(OperatorsFor(spec.fn), mask_) & ~mask_) == 0);
  switch (spec.fn) {
    case AggregationFunction::kSum:
      return sum_.sum;
    case AggregationFunction::kCount:
      return static_cast<double>(count_.count);
    case AggregationFunction::kAverage:
      return count_.count == 0 ? 0.0
                               : sum_.sum / static_cast<double>(count_.count);
    case AggregationFunction::kProduct:
      return multiply_.product;
    case AggregationFunction::kGeometricMean:
      return count_.count == 0
                 ? 0.0
                 : std::pow(multiply_.product,
                            1.0 / static_cast<double>(count_.count));
    case AggregationFunction::kMin:
      // When a non-decomposable sort subsumed the decomposable one
      // (ReduceMask), extrema come from the sorted state.
      if (!MaskHas(mask_, OperatorKind::kDecomposableSort)) {
        return runs.MinValue();
      }
      return minmax_.min;
    case AggregationFunction::kMax:
      if (!MaskHas(mask_, OperatorKind::kDecomposableSort)) {
        return runs.MaxValue();
      }
      return minmax_.max;
    case AggregationFunction::kMedian:
      return runs.Median();
    case AggregationFunction::kQuantile:
      return runs.Quantile(spec.quantile);
    case AggregationFunction::kVariance:
    case AggregationFunction::kStdDev: {
      if (count_.count == 0) return 0.0;
      const double n = static_cast<double>(count_.count);
      const double mean = sum_.sum / n;
      const double variance =
          std::max(0.0, sum_squares_.sum_sq / n - mean * mean);
      return spec.fn == AggregationFunction::kVariance ? variance
                                                       : std::sqrt(variance);
    }
  }
  return 0.0;
}

void PartialAggregate::SerializeTo(ByteWriter& out) const {
  out.WriteU8(mask_);
  if (MaskHas(mask_, OperatorKind::kSum)) out.WriteDouble(sum_.sum);
  if (MaskHas(mask_, OperatorKind::kCount)) out.WriteU64(count_.count);
  if (MaskHas(mask_, OperatorKind::kMultiply)) {
    out.WriteDouble(multiply_.product);
  }
  if (MaskHas(mask_, OperatorKind::kDecomposableSort)) {
    out.WriteDouble(minmax_.min);
    out.WriteDouble(minmax_.max);
  }
  if (MaskHas(mask_, OperatorKind::kNonDecomposableSort)) {
    sorted_.SerializeTo(out);
  }
  if (MaskHas(mask_, OperatorKind::kSumSquares)) {
    out.WriteDouble(sum_squares_.sum_sq);
  }
}

PartialAggregate PartialAggregate::DeserializeFrom(ByteReader& in) {
  PartialAggregate agg(in.ReadU8());
  if (MaskHas(agg.mask_, OperatorKind::kSum)) {
    agg.sum_.sum = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kCount)) {
    agg.count_.count = in.ReadU64();
  }
  if (MaskHas(agg.mask_, OperatorKind::kMultiply)) {
    agg.multiply_.product = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kDecomposableSort)) {
    agg.minmax_.min = in.ReadDouble();
    agg.minmax_.max = in.ReadDouble();
  }
  if (MaskHas(agg.mask_, OperatorKind::kNonDecomposableSort)) {
    agg.sorted_ = SortedState::DeserializeFrom(in);
  }
  if (MaskHas(agg.mask_, OperatorKind::kSumSquares)) {
    agg.sum_squares_.sum_sq = in.ReadDouble();
  }
  return agg;
}

}  // namespace desis
