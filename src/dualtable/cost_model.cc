#include "dualtable/cost_model.h"

#include <algorithm>
#include <cmath>

namespace dtl::dual {

table::PlanDecision CostModel::DecideUpdate(uint64_t table_bytes, double alpha) const {
  const double d = static_cast<double>(table_bytes);
  const double k = params_.k;
  table::PlanDecision out;
  out.cost_overwrite_seconds =
      params_.overwrite_cost_scale * (MasterWrite(d) + k * MasterRead(d));
  out.cost_edit_seconds =
      params_.edit_cost_scale *
      (AttachedWrite(alpha * d) + k * (AttachedRead(alpha * d) + MasterRead(d)));
  out.cost_difference_seconds = out.cost_overwrite_seconds - out.cost_edit_seconds;
  out.plan = out.cost_difference_seconds > 0 ? table::DmlPlan::kEdit
                                             : table::DmlPlan::kOverwrite;
  return out;
}

table::PlanDecision CostModel::DecideDelete(uint64_t table_bytes, double beta,
                                     double avg_row_bytes) const {
  const double d_total = static_cast<double>(table_bytes);
  const double k = params_.k;
  const double marker_ratio =
      avg_row_bytes > 0 ? params_.delete_marker_bytes / avg_row_bytes : 1.0;
  table::PlanDecision out;
  // OVERWRITE keeps (1-β) of the data; its following reads also shrink.
  out.cost_overwrite_seconds =
      params_.overwrite_cost_scale *
      (MasterWrite((1.0 - beta) * d_total) + k * MasterRead((1.0 - beta) * d_total));
  const double marker_bytes = beta * d_total * marker_ratio;
  out.cost_edit_seconds =
      params_.edit_cost_scale * (AttachedWrite(marker_bytes) +
                                 k * (AttachedRead(marker_bytes) + MasterRead(d_total)));
  out.cost_difference_seconds = out.cost_overwrite_seconds - out.cost_edit_seconds;
  out.plan = out.cost_difference_seconds > 0 ? table::DmlPlan::kEdit
                                             : table::DmlPlan::kOverwrite;
  return out;
}

double CostModel::UpdateCrossoverRatio(uint64_t table_bytes) const {
  // Eq. 1 is linear in alpha; solve scaled CostU(alpha) = 0:
  //   os·(MW + k·MR) = es·(α·AW + k·α·AR + k·MR)
  // With os == es the k·MR terms cancel and this reduces to the paper's
  // MW / (AW + k·AR).
  const double d = static_cast<double>(table_bytes);
  const double os = params_.overwrite_cost_scale;
  const double es = params_.edit_cost_scale;
  const double denom = es * (AttachedWrite(d) + params_.k * AttachedRead(d));
  if (denom <= 0) return 1.0;
  const double numer =
      os * MasterWrite(d) + (os - es) * params_.k * MasterRead(d);
  return std::clamp(numer / denom, 0.0, 1.0);
}

double CostModel::DeleteCrossoverRatio(uint64_t table_bytes,
                                       double avg_row_bytes) const {
  // Eq. 2 is linear in beta as well: solve
  //   os·(1-β)·(MW + k·MR) = es·(β·(m/d)·(AW + k·AR) + k·MR).
  const double d_total = static_cast<double>(table_bytes);
  const double os = params_.overwrite_cost_scale;
  const double es = params_.edit_cost_scale;
  const double marker_ratio =
      avg_row_bytes > 0 ? params_.delete_marker_bytes / avg_row_bytes : 1.0;
  const double master_cost =
      MasterWrite(d_total) + params_.k * MasterRead(d_total);
  const double denom =
      os * master_cost +
      es * marker_ratio * (AttachedWrite(d_total) + params_.k * AttachedRead(d_total));
  if (denom <= 0) return 1.0;
  const double numer = os * master_cost - es * params_.k * MasterRead(d_total);
  return std::clamp(numer / denom, 0.0, 1.0);
}

void CostModel::Calibrate(bool edit_plan, double predicted, double measured,
                          double gain) {
  if (gain <= 0 || predicted <= 0 || measured <= 0) return;
  // Multiplicative EWMA in log space: the fixed point is scale where the
  // scaled prediction equals the modelled actuals. Clamped so one wild
  // measurement (e.g. a cache-empty first statement) cannot blow the scale
  // out of a recoverable range.
  double* scale = edit_plan ? &params_.edit_cost_scale : &params_.overwrite_cost_scale;
  const double step = std::pow(measured / predicted, std::clamp(gain, 0.0, 1.0));
  *scale = std::clamp(*scale * step, 1e-3, 1e3);
}

}  // namespace dtl::dual
