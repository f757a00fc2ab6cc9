#include "exec/operators.h"

#include <algorithm>

namespace dtl::exec {

// --- RowKeyHash / RowKeyEq --------------------------------------------------------

size_t RowKeyHash::operator()(const Row& key) const {
  size_t h = 0;
  for (const Value& v : key) h = h * 1315423911u + v.HashCode();
  return h;
}

bool RowKeyEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

// --- MaterializingOperator ---------------------------------------------------------

bool MaterializingOperator::Next(table::RowBatch* batch) {
  if (!materialized_) {
    materialized_ = true;
    Result<std::vector<Row>> rows = Materialize();
    if (!rows.ok()) {
      status_ = rows.status();
      return false;
    }
    rows_ = std::move(*rows);
  }
  if (next_ >= rows_.size()) {
    rows_.clear();
    return false;
  }
  const size_t n = std::min(rows_.size() - next_, table::kDefaultBatchRows);
  const size_t width = rows_[next_].size();
  batch->Reset(width, n);
  for (size_t c = 0; c < width; ++c) {
    std::vector<Value> column;
    column.reserve(n);
    for (size_t r = next_; r < next_ + n; ++r) column.push_back(std::move(rows_[r][c]));
    batch->column(c).SetOwned(std::move(column));
  }
  next_ += n;
  return true;
}

// --- BatchFilterOperator -----------------------------------------------------------

bool BatchFilterOperator::Next(table::RowBatch* batch) {
  while (child_->Next(batch)) {
    batch->FilterSelected(pred_, &scratch_, &drops_);
    if (!batch->empty()) return true;
  }
  return false;
}

// --- HashJoinOperator --------------------------------------------------------------

HashJoinOperator::HashJoinOperator(std::unique_ptr<BatchOperator> probe,
                                   std::unique_ptr<BatchOperator> build,
                                   std::vector<ValueFn> probe_keys,
                                   std::vector<ValueFn> build_keys, size_t build_width,
                                   Kind kind)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      build_width_(build_width),
      kind_(kind) {}

bool HashJoinOperator::MakeKey(const Row& row, const std::vector<ValueFn>& fns) {
  key_.clear();
  bool has_null = false;
  for (const auto& fn : fns) {
    key_.push_back(fn(row));
    has_null |= key_.back().is_null();
  }
  // SQL join semantics: NULL keys never match.
  return !has_null;
}

Status HashJoinOperator::BuildTable() {
  table::RowBatch batch;
  while (build_->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &scratch_);
      if (!MakeKey(scratch_, build_keys_)) continue;
      auto it = hash_.find(key_);
      if (it == hash_.end()) it = hash_.emplace(key_, std::vector<Row>()).first;
      it->second.push_back(scratch_);
    }
  }
  DTL_RETURN_NOT_OK(build_->status());
  built_ = true;
  return Status::OK();
}

bool HashJoinOperator::Next(table::RowBatch* batch) {
  if (!built_) {
    status_ = BuildTable();
    if (!status_.ok()) return false;
  }
  while (true) {
    if (matches_ == nullptr && next_probe_ >= in_.size()) {
      if (!probe_->Next(&in_)) {
        status_ = probe_->status();
        return false;
      }
      next_probe_ = 0;
    }
    const size_t probe_width = in_.num_columns();
    cols_.resize(probe_width + build_width_);
    for (auto& col : cols_) col.clear();
    // Appends scratch_ (the current probe row) ++ `build_row` (NULLs if null).
    auto emit = [&](const Row* build_row) {
      for (size_t c = 0; c < probe_width; ++c) cols_[c].push_back(scratch_[c]);
      for (size_t c = 0; c < build_width_; ++c) {
        cols_[probe_width + c].push_back(build_row != nullptr ? (*build_row)[c]
                                                              : Value::Null());
      }
    };
    size_t n = 0;
    while (n < table::kDefaultBatchRows) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        emit(&(*matches_)[match_index_++]);
        ++n;
        continue;
      }
      matches_ = nullptr;
      if (next_probe_ >= in_.size()) break;
      in_.MaterializeRow(next_probe_++, &scratch_);
      if (MakeKey(scratch_, probe_keys_)) {
        auto it = hash_.find(key_);
        if (it != hash_.end()) {
          matches_ = &it->second;
          match_index_ = 0;
          continue;
        }
      }
      if (kind_ == Kind::kLeftOuter) {
        emit(nullptr);
        ++n;
      }
    }
    if (n == 0) continue;
    batch->Reset(cols_.size(), n);
    for (size_t c = 0; c < cols_.size(); ++c) {
      batch->column(c).SetOwned(std::move(cols_[c]));
    }
    return true;
  }
}

// --- AggState ----------------------------------------------------------------------

Status AggState::Update(const AggSpec& spec, const Row& in) {
  if (spec.kind == AggKind::kCountStar) {
    ++count;
    return Status::OK();
  }
  Value v = spec.input(in);
  if (v.is_null()) return Status::OK();  // SQL: aggregates skip NULLs
  switch (spec.kind) {
    case AggKind::kCount:
      ++count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      ++count;
      if (v.is_double()) {
        sum_is_double = true;
        sum += v.AsDouble();
      } else if (v.is_int64()) {
        isum += v.AsInt64();
        sum += static_cast<double>(v.AsInt64());
      } else {
        return Status::InvalidArgument("SUM/AVG over non-numeric value");
      }
      break;
    }
    case AggKind::kMin:
      if (!seen || v.Compare(min) < 0) min = v;
      seen = true;
      break;
    case AggKind::kMax:
      if (!seen || v.Compare(max) > 0) max = v;
      seen = true;
      break;
    case AggKind::kCountStar:
      break;
  }
  return Status::OK();
}

void AggState::Merge(AggKind kind, const AggState& other) {
  count += other.count;
  // SUM/AVG partials: the double lane accumulates everything, the int lane
  // only ints; promotion sticks if ANY worker saw a double — identical to
  // the order the serial loop would have seen.
  sum += other.sum;
  isum += other.isum;
  sum_is_double |= other.sum_is_double;
  if (kind == AggKind::kMin && other.seen) {
    if (!seen || other.min.Compare(min) < 0) min = other.min;
    seen = true;
  }
  if (kind == AggKind::kMax && other.seen) {
    if (!seen || other.max.Compare(max) > 0) max = other.max;
    seen = true;
  }
}

Value AggState::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return Value::Int64(count);
    case AggKind::kSum:
      if (count == 0) return Value::Null();
      return sum_is_double ? Value::Double(sum) : Value::Int64(isum);
    case AggKind::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Double(sum / static_cast<double>(count));
    case AggKind::kMin:
      return seen ? min : Value::Null();
    case AggKind::kMax:
      return seen ? max : Value::Null();
  }
  return Value::Null();
}

// --- HashAggregateOperator ---------------------------------------------------------

Result<std::vector<Row>> HashAggregateOperator::Materialize() {
  std::unordered_map<Row, std::vector<AggState>, RowKeyHash, RowKeyEq> groups;
  if (group_keys_.empty()) {
    groups.emplace(Row{}, std::vector<AggState>(aggs_.size()));  // global aggregate
  }
  table::RowBatch batch;
  Row in;
  Row key;
  while (child_->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &in);
      key.clear();
      for (const auto& fn : group_keys_) key.push_back(fn(in));
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(key, std::vector<AggState>(aggs_.size())).first;
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        DTL_RETURN_NOT_OK(it->second[a].Update(aggs_[a], in));
      }
    }
  }
  DTL_RETURN_NOT_OK(child_->status());

  std::vector<Row> results;
  results.reserve(groups.size());
  for (auto& [group, states] : groups) {
    Row out = group;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out.push_back(states[a].Finalize(aggs_[a].kind));
    }
    results.push_back(std::move(out));
  }
  // Groups in key order (deterministic output).
  std::sort(results.begin(), results.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < group_keys_.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return results;
}

// --- SortOperator ------------------------------------------------------------------

Result<std::vector<Row>> SortOperator::Materialize() {
  // Each row's sort keys are evaluated once, next to the row.
  struct Keyed {
    Row keys;
    Row row;
  };
  std::vector<Keyed> keyed;
  table::RowBatch batch;
  while (child_->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Keyed& k = keyed.emplace_back();
      batch.MaterializeRow(i, &k.row);
      k.keys.reserve(keys_.size());
      for (const auto& fn : keys_) k.keys.push_back(fn(k.row));
    }
  }
  DTL_RETURN_NOT_OK(child_->status());
  std::stable_sort(keyed.begin(), keyed.end(), [this](const Keyed& a, const Keyed& b) {
    for (size_t i = 0; i < keys_.size(); ++i) {
      int c = a.keys[i].Compare(b.keys[i]);
      if (c != 0) return ascending_[i] ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Row> rows;
  rows.reserve(keyed.size());
  for (Keyed& k : keyed) rows.push_back(std::move(k.row));
  return rows;
}

// --- BatchProjectOperator ----------------------------------------------------------

BatchProjectOperator::BatchProjectOperator(std::unique_ptr<BatchOperator> child,
                                           std::vector<ValueFn> exprs,
                                           std::vector<int> column_refs)
    : child_(std::move(child)),
      exprs_(std::move(exprs)),
      column_refs_(std::move(column_refs)) {
  all_refs_ = !column_refs_.empty() &&
              std::all_of(column_refs_.begin(), column_refs_.end(),
                          [](int r) { return r >= 0; });
}

bool BatchProjectOperator::Next(table::RowBatch* batch) {
  if (!child_->Next(&in_)) return false;
  if (all_refs_) {
    // Zero-copy: point each output column at the referenced input column and
    // forward the selection. `in_` is a member, so the views stay valid until
    // the next call, and the anchor keeps any stripe storage alive.
    batch->Reset(exprs_.size(), in_.num_rows());
    for (size_t i = 0; i < column_refs_.size(); ++i) {
      const table::ColumnVector& src = in_.column(static_cast<size_t>(column_refs_[i]));
      if (src.data() != nullptr) batch->column(i).SetView(src.data(), in_.num_rows());
    }
    if (in_.has_selection()) {
      std::vector<uint32_t> selection;
      selection.reserve(in_.size());
      for (size_t i = 0; i < in_.size(); ++i) {
        selection.push_back(static_cast<uint32_t>(in_.row_index(i)));
      }
      batch->SetSelection(std::move(selection));
    }
    batch->SetAnchor(in_.anchor());
    return true;
  }
  // General expressions: one scratch-row materialization per visible row.
  const size_t n = in_.size();
  cols_.resize(exprs_.size());
  for (auto& col : cols_) {
    col.clear();
    col.reserve(n);
  }
  for (size_t i = 0; i < n; ++i) {
    in_.MaterializeRow(i, &scratch_);
    for (size_t e = 0; e < exprs_.size(); ++e) cols_[e].push_back(exprs_[e](scratch_));
  }
  batch->Reset(exprs_.size(), n);
  for (size_t e = 0; e < exprs_.size(); ++e) batch->column(e).SetOwned(std::move(cols_[e]));
  return true;
}

Result<std::vector<Row>> CollectBatches(BatchOperator* op) {
  std::vector<Row> rows;
  table::RowBatch batch;
  while (op->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Row& row = rows.emplace_back();
      batch.MaterializeRow(i, &row);
    }
  }
  DTL_RETURN_NOT_OK(op->status());
  return rows;
}

}  // namespace dtl::exec
