#include "evaluation.hpp"

#include "obs/telemetry.hpp"
#include "stats.hpp"

namespace perf {

using namespace zkg;

eval::ExperimentScale digits_scale(std::int64_t train_samples) {
  eval::ExperimentScale scale = eval::scale_for(data::DatasetId::kDigits);
  scale.model_preset = models::Preset::kBench;
  scale.train_samples = train_samples;
  scale.test_samples = kHeldOut;
  return scale;
}

EvalSession::EvalSession(models::Classifier& model, const data::Dataset& test,
                         const eval::ExperimentScale& scale,
                         std::uint64_t seed, Report& report)
    : model_(model),
      test_(test),
      fgsm_(scale.fgsm),
      pgd_rng_(seed + 3),
      pgd_(scale.pgd, pgd_rng_),
      report_(report) {
  run();
}

void EvalSession::run() {
  last_ = evaluator_.evaluate(model_, test_, {&fgsm_, &pgd_});
  const std::int64_t batches = (test_.size() + kEvalBatch - 1) / kEvalBatch;
  batches_ += batches;
  report_.attempted(batches);
}

void EvalSession::pass() {
  const double start = now_s();
  run();
  pass_s_.push_back(now_s() - start);
}

double EvalSession::median_pass_s() const {
  return percentile(pass_s_, 50.0);
}

double EvalSession::samples_per_s() const {
  return static_cast<double>(test_.size()) / median_pass_s();
}

void report_traced_evaluation(models::Classifier& model,
                              const data::Dataset& test,
                              const eval::ExperimentScale& scale,
                              std::uint64_t seed, Report& report) {
  EvalSession session(model, test, scale, seed, report);
  obs::Telemetry& telemetry = obs::Telemetry::global();
  telemetry.reset();
  telemetry.set_enabled(true);
  session.pass();
  telemetry.set_enabled(false);
  std::map<std::string, SpanTotal> spans = library_span_totals();
  const auto batches = static_cast<double>(spans["eval.batch"].count);
  report.metric("eval.batch_ms", spans["eval.batch"].self_s * 1e3 / batches,
                "ms");
  report.metric("eval.attack_gen_ms",
                spans["eval.attack_gen"].total_s * 1e3 / batches, "ms");
}

void replay_eval_attacks(Replay& replay, models::Classifier& model,
                         const data::Dataset& test,
                         const eval::ExperimentScale& scale,
                         std::uint64_t seed, Report& report) {
  const Tensor images = test.images.slice_rows(0, kEvalBatch);
  const std::vector<std::int64_t> labels(test.labels.begin(),
                                         test.labels.begin() + kEvalBatch);
  attacks::Fgsm fgsm(scale.fgsm);
  Rng pgd_rng(seed + 7);
  attacks::Pgd pgd(scale.pgd, pgd_rng);
  Tensor adv;
  for (int r = 0; r < 11; ++r) {
    replay.time("attacks.fgsm_eval",
                [&] { fgsm.generate_into(model, images, labels, adv); });
    replay.time("attacks.pgd_eval",
                [&] { pgd.generate_into(model, images, labels, adv); });
  }
  report.metric("attacks.fgsm_eval_ms", replay.median_ms("attacks.fgsm_eval"),
                "ms");
  report.metric("attacks.pgd_eval_ms", replay.median_ms("attacks.pgd_eval"),
                "ms");
}

}  // namespace perf
