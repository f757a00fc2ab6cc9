// The DualTable cost model (paper §IV). For an UPDATE with ratio α over a
// table of D bytes followed by k full reads:
//
//   Cost_OVERWRITE = C^M_Write(D) + k·C^M_Read(D)
//   Cost_EDIT      = C^A_Write(αD) + k·(C^A_Read(αD) + C^M_Read(D))
//   CostU = Cost_OVERWRITE − Cost_EDIT
//         = C^M_Write(D) − α·(C^A_Write(D) + k·C^A_Read(D))          (Eq. 1)
//
// For a DELETE with ratio β, average row size d, and marker size m:
//
//   CostD = C^M_Write(D) − β·(C^M_Write(D) + k·C^M_Read(D)
//           + (m/d)·C^A_Write(D) + k·(m/d)·C^A_Read(D))              (Eq. 2)
//
// Positive cost difference ⇒ the EDIT plan is cheaper.
#pragma once

#include <cstdint>

#include "fs/cluster_model.h"
#include "table/spec.h"

namespace dtl::dual {

struct CostModelParams {
  /// Number of full-table reads expected after the modification ("set by the
  /// designer, or inferred from the HiveQL code").
  double k = 1.0;
  /// Size m of one delete marker in the attached table, bytes. Determined
  /// "via data sampling": 8-byte record-ID key + qualifier + framing.
  double delete_marker_bytes = 20.0;
  /// Closed-loop calibration coefficients (DESIGN.md §12): each plan's
  /// predicted seconds are multiplied by its scale before the EDIT-vs-
  /// OVERWRITE comparison. 1.0 = the open-loop paper model; CostAudit
  /// feedback (DualTable cost_calibration_gain) nudges the executed plan's
  /// scale toward measured/predicted so the planner converges on observed
  /// hardware.
  double edit_cost_scale = 1.0;
  double overwrite_cost_scale = 1.0;
};

class CostModel {
 public:
  CostModel(const fs::ClusterModel* cluster, CostModelParams params)
      : cluster_(cluster), params_(params) {}

  const CostModelParams& params() const { return params_; }
  CostModelParams* mutable_params() { return &params_; }

  /// Eq. 1. `alpha` is the update ratio in (0, 1).
  table::PlanDecision DecideUpdate(uint64_t table_bytes, double alpha) const;

  /// Eq. 2. `beta` is the delete ratio; `avg_row_bytes` is d.
  table::PlanDecision DecideDelete(uint64_t table_bytes, double beta,
                            double avg_row_bytes) const;

  /// Update ratio at which Eq. 1 changes sign (analytic crossover), used by
  /// the cost-model ablation bench.
  double UpdateCrossoverRatio(uint64_t table_bytes) const;

  /// Delete ratio at which Eq. 2 changes sign.
  double DeleteCrossoverRatio(uint64_t table_bytes, double avg_row_bytes) const;

  /// One calibration step: multiplies the executed plan's scale by
  /// (measured/predicted)^gain (a multiplicative EWMA in log space).
  /// `predicted`/`measured` are the already-scaled prediction and the
  /// modelled actuals of the SAME statement; `edit_plan` names which scale to
  /// nudge. No-op when gain <= 0 or either input is non-positive.
  void Calibrate(bool edit_plan, double predicted, double measured, double gain);

 private:
  double MasterRead(double bytes) const {
    return cluster_->ReadSeconds(fs::Channel::kHdfs, static_cast<uint64_t>(bytes));
  }
  double MasterWrite(double bytes) const {
    return cluster_->WriteSeconds(fs::Channel::kHdfs, static_cast<uint64_t>(bytes));
  }
  double AttachedRead(double bytes) const {
    return cluster_->ReadSeconds(fs::Channel::kHBase, static_cast<uint64_t>(bytes));
  }
  double AttachedWrite(double bytes) const {
    return cluster_->WriteSeconds(fs::Channel::kHBase, static_cast<uint64_t>(bytes));
  }

  const fs::ClusterModel* cluster_;
  CostModelParams params_;
};

}  // namespace dtl::dual
