// Robust evaluation shared by every workload: each one evaluates its model
// on held-out synth-digits against clean, FGSM and PGD inputs at the
// bench-preset evaluation budgets.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "data/dataset.hpp"
#include "eval/evaluator.hpp"
#include "eval/experiments.hpp"
#include "replay.hpp"

namespace perf {

inline constexpr std::int64_t kEvalBatch = 100;
inline constexpr std::int64_t kHeldOut = 500;

/// The bench-preset digits scale with the sample counts fixed here, so the
/// ZKG_TRAIN / ZKG_TEST overrides of eval::scale_for() cannot change the
/// benchmark's work.
zkg::eval::ExperimentScale digits_scale(std::int64_t train_samples);

/// Evaluator passes (clean + FGSM + PGD over the held-out set) of one
/// model. Construction runs one untimed warm-up pass: the evaluation batch
/// shapes are new to the buffer pool and the layers' scratch. Every
/// evaluation batch counts as an attempted operation.
class EvalSession {
 public:
  EvalSession(models::Classifier& model, const zkg::data::Dataset& test,
              const zkg::eval::ExperimentScale& scale, std::uint64_t seed,
              Report& report);

  /// One timed pass.
  void pass();

  std::size_t passes() const { return pass_s_.size(); }
  double median_pass_s() const;
  /// Held-out samples per second of the median pass.
  double samples_per_s() const;
  std::int64_t batches() const { return batches_; }
  /// Accuracies of the latest pass.
  const zkg::eval::Evaluation& last() const { return last_; }

 private:
  void run();

  models::Classifier& model_;
  const zkg::data::Dataset& test_;
  zkg::attacks::Fgsm fgsm_;
  zkg::Rng pgd_rng_;
  zkg::attacks::Pgd pgd_;
  zkg::eval::Evaluator evaluator_{kEvalBatch};
  Report& report_;
  std::vector<double> pass_s_;
  zkg::eval::Evaluation last_;
  std::int64_t batches_ = 0;
};

/// One traced evaluation pass after an untraced warm-up; reports
/// eval.batch_ms (self time) and eval.attack_gen_ms per evaluation batch
/// from the library's spans.
void report_traced_evaluation(models::Classifier& model,
                              const zkg::data::Dataset& test,
                              const zkg::eval::ExperimentScale& scale,
                              std::uint64_t seed, Report& report);

/// Times the evaluation attacks on one evaluation batch and reports
/// attacks.fgsm_eval_ms and attacks.pgd_eval_ms.
void replay_eval_attacks(Replay& replay, models::Classifier& model,
                         const zkg::data::Dataset& test,
                         const zkg::eval::ExperimentScale& scale,
                         std::uint64_t seed, Report& report);

}  // namespace perf
