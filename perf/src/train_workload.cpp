// Training workloads: zk-gandef-digits and pgd-adv-digits. Each trains
// its defense on synth-digits with the bench-preset LeNet, then evaluates
// the trained model on held-out data against clean, FGSM and PGD inputs.
// Both use the same data, model and seeds, so their throughput ratio is
// the paper's Figure 5 comparison.
#include <cmath>
#include <iostream>
#include <memory>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "data/batcher.hpp"
#include "data/preprocess.hpp"
#include "defense/registry.hpp"
#include "defense/zk_gandef.hpp"
#include "evaluation.hpp"
#include "nn/loss.hpp"
#include "obs/telemetry.hpp"
#include "optim/adam.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace perf {
namespace {

using namespace zkg;

constexpr std::int64_t kTrainSamples = 1600;
constexpr int kSetups = 3;          // set-up is timed this often per run
// Share of --seconds spent in the timed rounds of training + evaluation.
constexpr double kTimedShare = 0.8;
// Timed epochs run at least this often: PGD-Adv on this preset leaves its
// loss plateau only after about nine epochs, and the accuracy floor below
// must hold on every run.
constexpr int kMinTimedEpochs = 11;
constexpr double kAccuracyFloor = 0.5;
constexpr int kReplayReps = 25;


/// Counts steps and non-finite losses, and times every step from the
/// previous step's end (or the epoch's start) to its own end.
class StepObserver : public defense::TrainObserver {
 public:
  void begin_epoch() { last_s_ = now_s(); }
  void on_batch_end(const defense::Trainer&, std::int64_t, std::int64_t,
                    const defense::BatchStats& stats) override {
    const double t = now_s();
    step_ms.push_back((t - last_s_) * 1e3);
    last_s_ = t;
    ++steps;
    if (!std::isfinite(stats.classifier_loss) ||
        !std::isfinite(stats.discriminator_loss)) {
      ++non_finite;
    }
  }

  std::int64_t steps = 0;
  std::int64_t non_finite = 0;
  std::vector<double> step_ms;

 private:
  double last_s_ = 0.0;
};

/// Everything one set-up builds: data, model, trainer, batch stream, and
/// the trainer after its warm-up epoch.
struct Setup {
  eval::ExperimentScale scale;
  data::Dataset train;
  data::Dataset test;
  std::unique_ptr<models::Classifier> model;
  defense::TrainerPtr trainer;
  std::unique_ptr<data::Batcher> batcher;
  StepObserver observer;
  std::vector<float> epoch_losses;
  std::int64_t epochs = 0;

  /// Trains one epoch; returns its wall time in seconds.
  double run_epoch() {
    const double start = now_s();
    observer.begin_epoch();
    const defense::EpochStats stats = trainer->fit_epoch(*batcher, epochs++);
    epoch_losses.push_back(stats.classifier_loss);
    return now_s() - start;
  }
};

std::unique_ptr<Setup> set_up(bool zk, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->scale = digits_scale(kTrainSamples);
  Rng data_rng(seed);
  eval::PreparedData data =
      eval::prepare_data(data::DatasetId::kDigits, s->scale, data_rng);
  s->train = std::move(data.train);
  s->test = std::move(data.test);
  Rng model_rng(seed + 1);
  s->model = std::make_unique<models::Classifier>(
      eval::build_model_for(data::DatasetId::kDigits, s->scale, model_rng));
  defense::TrainConfig config = eval::base_train_config(s->scale, seed);
  config.epochs = 1;
  s->trainer = defense::make_trainer(
      zk ? defense::DefenseId::kZkGanDef : defense::DefenseId::kPgdAdv,
      *s->model, config);
  s->trainer->add_observer(&s->observer);
  Rng batch_rng(seed + 2);
  s->batcher = std::make_unique<data::Batcher>(s->train, config.batch_size,
                                               batch_rng);
  s->run_epoch();  // warm-up: shapes settle, the buffer pool fills
  return s;
}

/// Clean accuracy computed here from Classifier::forward logits, batched
/// like the Evaluator so that both see identical arithmetic.
double own_clean_accuracy(models::Classifier& model,
                          const data::Dataset& test) {
  std::int64_t correct = 0;
  for (std::int64_t b = 0; b < test.size(); b += kEvalBatch) {
    const std::int64_t e = std::min(b + kEvalBatch, test.size());
    const Tensor logits = model.forward(test.images.slice_rows(b, e), false);
    const std::int64_t classes = logits.dim(1);
    for (std::int64_t i = 0; i < e - b; ++i) {
      std::int64_t best = 0;
      for (std::int64_t c = 1; c < classes; ++c) {
        if (logits[i * classes + c] > logits[i * classes + best]) best = c;
      }
      correct += best == test.label(b + i) ? 1 : 0;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

/// Every example `attack` makes from the held-out set must lie in the
/// eps-ball around its clean image and inside the pixel range.
void check_attack_ball(Report& report, attacks::Attack& attack, float eps,
                       models::Classifier& model, const data::Dataset& test) {
  BallCheck total;
  for (std::int64_t b = 0; b < test.size(); b += kEvalBatch) {
    const std::int64_t e = std::min(b + kEvalBatch, test.size());
    const Tensor clean = test.images.slice_rows(b, e);
    const std::vector<std::int64_t> labels(test.labels.begin() + b,
                                           test.labels.begin() + e);
    const Tensor adv = attack.generate(model, clean, labels);
    const BallCheck c = check_linf_ball(adv.data(), clean.data(),
                                        clean.numel(), eps, data::kPixelMin,
                                        data::kPixelMax);
    total.outside_ball += c.outside_ball;
    total.outside_range += c.outside_range;
    total.non_finite += c.non_finite;
    total.max_deviation = std::max(total.max_deviation, c.max_deviation);
  }
  std::cout << "check: " << attack.name() << " max |adv - clean| = "
            << total.max_deviation << " (eps " << eps << ")\n";
  report.check(total.ok(), attack.name() + " examples leave the eps-ball or "
                               "the pixel range");
}

void check_outputs(Report& report, Setup& s, bool zk) {
  models::Classifier& model = *s.model;
  for (float loss : s.epoch_losses) {
    report.check(std::isfinite(loss), "non-finite epoch loss");
  }
  report.check(s.epoch_losses.back() < s.epoch_losses.front(),
               "final epoch loss is not below the first");

  eval::Evaluator evaluator(kEvalBatch);
  const double own = own_clean_accuracy(model, s.test);
  const double theirs = evaluator.clean_accuracy(model, s.test);
  std::cout << "check: clean accuracy " << own << " (Evaluator " << theirs
            << ", floor " << kAccuracyFloor << ")\n";
  report.check(own == theirs,
               "Evaluator::clean_accuracy differs from forward() logits");
  report.check(own > kAccuracyFloor, "clean accuracy below the floor");

  attacks::Fgsm fgsm(s.scale.fgsm);
  check_attack_ball(report, fgsm, s.scale.fgsm.epsilon, model, s.test);
  Rng pgd_rng(7);
  attacks::Pgd pgd(s.scale.pgd, pgd_rng);
  check_attack_ball(report, pgd, s.scale.pgd.epsilon, model, s.test);

  attacks::AttackBudget zero = s.scale.fgsm;
  zero.epsilon = 0.0f;
  attacks::Fgsm null_attack(zero);
  const eval::Evaluation e0 = evaluator.evaluate(model, s.test, {&null_attack});
  report.check(e0.attacks.at(0).test_accuracy == e0.clean_accuracy &&
                   e0.clean_accuracy == own,
               "an eps = 0 attack changed the accuracy");

  if (zk) {
    auto& gandef = dynamic_cast<defense::GanDefTrainerBase&>(*s.trainer);
    const Tensor logits = model.forward(s.test.images, false);
    const Tensor p = gandef.discriminator().probability(logits);
    bool in_range = true;
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      in_range = in_range && p[i] >= 0.0f && p[i] <= 1.0f;
    }
    report.check(in_range, "discriminator probability outside [0, 1]");
  }
}

void report_untraced(const Options& o, bool zk, Report& report) {
  // Set-up is timed kSetups times; the first also pays process start-up
  // (static initialisation, first allocations) from main().
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    if (s != nullptr) {
      report.attempted(s->observer.steps);
      report.failed(s->observer.non_finite);
    }
    const double start = i == 0 ? 0.0 : now_s();
    s = set_up(zk, o.seed);
    setup_s.push_back(now_s() - start);
  }

  // Rounds of one training epoch and one evaluation pass, so that both
  // sample the whole run: the host's speed drifts over seconds, and a
  // median over a long window rides out a slow stretch.
  EvalSession eval(*s->model, s->test, s->scale, o.seed, report);
  const std::int64_t first_step = s->observer.steps;
  const double start = now_s();
  std::vector<double> epoch_s;
  while (now_s() - start < o.seconds * kTimedShare ||
         static_cast<int>(epoch_s.size()) < kMinTimedEpochs) {
    epoch_s.push_back(s->run_epoch());
    eval.pass();
  }
  const double timed_s = now_s() - start;
  const std::int64_t steps = s->observer.steps - first_step;
  report.attempted(s->observer.steps);
  report.failed(s->observer.non_finite);
  const std::vector<double> step_ms(
      s->observer.step_ms.begin() + first_step, s->observer.step_ms.end());
  const Summary step = summarize(step_ms);

  check_outputs(report, *s, zk);

  const double train_rate =
      static_cast<double>(s->train.size()) / percentile(epoch_s, 50.0);
  std::cout << "train: " << epoch_s.size() << " epochs, " << steps
            << " steps, " << timed_s << " s with evaluation; median epoch "
            << percentile(epoch_s, 50.0) << " s; step p50 " << step.median
            << " ms, p" << step.tail_q << " " << step.tail << " ms (n="
            << step.count << ")\n"
            << "eval: " << eval.passes() << " passes, median "
            << eval.median_pass_s() << " s; final model accuracy clean "
            << eval.last().clean_accuracy << " FGSM "
            << eval.last().attack("FGSM").test_accuracy << " PGD "
            << eval.last().attack("PGD").test_accuracy << "\n"
            << "ops: training steps " << s->observer.steps << " (non-finite "
            << s->observer.non_finite << "), evaluation batches "
            << eval.batches() << "\n";
  report.metric("setup_s", percentile(setup_s, 50.0), "s");
  report.metric("throughput_per_s", train_rate, "1/s");
  report.metric("eval_samples_per_s", eval.samples_per_s(), "1/s");
  report.metric("p50_ms", step.median, "ms");
}

void report_traced(const Options& o, bool zk, Report& report) {
  std::unique_ptr<Setup> s = set_up(zk, o.seed);
  obs::Telemetry& telemetry = obs::Telemetry::global();

  // Alternate untraced and traced epochs: the untraced ones give the step
  // time the replay is compared with, the pair gives the tracing overhead.
  constexpr int kPairs = 3;
  double plain_s = 0.0;
  double traced_s = 0.0;
  std::int64_t plain_steps = 0;
  std::int64_t traced_steps = 0;
  telemetry.reset();
  BufferPool::global().reset_stats();
  for (int i = 0; i < kPairs; ++i) {
    std::int64_t before = s->observer.steps;
    plain_s += s->run_epoch();
    plain_steps += s->observer.steps - before;

    telemetry.set_enabled(true);
    before = s->observer.steps;
    traced_s += s->run_epoch();
    traced_steps += s->observer.steps - before;
    telemetry.set_enabled(false);
  }
  const PoolStats pool = BufferPool::global().stats();
  report.attempted(s->observer.steps);
  report.failed(s->observer.non_finite);
  const double step_ms = plain_s * 1e3 / static_cast<double>(plain_steps);
  const auto per_step = [&](double seconds) {
    return seconds * 1e3 / static_cast<double>(traced_steps);
  };
  std::uint64_t parallel_calls = 0;
  for (const auto& [name, value] : telemetry.counter_values()) {
    if (name == "parallel.calls") parallel_calls = value;
  }
  const std::map<std::string, SpanTotal> spans = library_span_totals();
  report.metric("common.parallel_calls_per_step",
                static_cast<double>(parallel_calls) /
                    static_cast<double>(traced_steps),
                "count");
  report.metric("tensor.pool_misses_per_step",
                static_cast<double>(pool.misses) /
                    static_cast<double>(plain_steps + traced_steps),
                "count");
  // Each trainer emits its own phases; run.py fills in the ones this
  // trainer does not have, so a phase that should be here and is not fails
  // the metric-name check.
  for (const char* phase : {"attack_gen", "disc_step", "classifier_step",
                            "forward_backward", "optimizer"}) {
    const auto it = spans.find("train." + std::string(phase));
    if (it == spans.end()) continue;
    report.metric(std::string("defense.") + phase + "_ms",
                  per_step(it->second.total_s), "ms");
  }
  report.metric("trace.overhead_pct",
                (traced_s / static_cast<double>(traced_steps)) /
                        (plain_s / static_cast<double>(plain_steps)) * 100.0 -
                    100.0,
                "%");

  if (!o.trace_dir.empty()) {
    write_trace(o.trace_dir + "/" + o.workload + ".library.jsonl", telemetry);
  }
  report_traced_evaluation(*s->model, s->test, s->scale, o.seed, report);

  // The replay: one training step's calls, from outside, at its shapes.
  obs::Telemetry replay_spans;
  Replay replay(replay_spans);
  models::Classifier& model = *s->model;
  const std::int64_t batch = s->batcher->batch_size();
  data::Batch fetched;
  Rng aug_rng(o.seed + 5);
  Tensor perturbed;
  Tensor combined;
  // kReplayReps full batches fit in one epoch of the training set.
  s->batcher->start_epoch();
  for (int r = 0; r < kReplayReps; ++r) {
    replay.time("data.batch_fetch", [&] { s->batcher->next_into(fetched); });
    if (zk) {
      replay.time("data.gaussian_augment", [&] {
        data::gaussian_augment_into(perturbed, fetched.images, aug_rng,
                                    s->scale.sigma);
      });
    }
  }
  report.check(fetched.size() == batch, "replayed batch is not full");
  concat_rows_into(combined, fetched.images, fetched.images);
  std::vector<std::int64_t> labels = fetched.labels;
  labels.insert(labels.end(), fetched.labels.begin(), fetched.labels.end());
  replay_layers(replay, model, combined, &labels, kReplayReps);

  optim::Adam classifier_adam(model.parameters());
  for (int r = 0; r < kReplayReps; ++r) {
    replay.time("optim.adam.classifier", [&] { classifier_adam.step(); });
  }
  if (zk) {
    auto& gandef = dynamic_cast<defense::GanDefTrainerBase&>(*s->trainer);
    models::Discriminator& disc = gandef.discriminator();
    const Tensor logits = model.forward(combined, false);
    Tensor flags({combined.dim(0), 1});
    for (std::int64_t i = batch; i < combined.dim(0); ++i) flags[i] = 1.0f;
    Tensor d_out, d_grad, d_in;
    for (int r = 0; r < kReplayReps; ++r) {
      replay.time("models.disc_fwd_bwd", [&] {
        disc.forward_into(logits, d_out, /*training=*/true);
        nn::bce_with_logits_into(d_out, flags, d_grad);
        disc.backward_into(d_grad, d_in);
      });
    }
    disc.zero_grad();
    optim::Adam disc_adam(disc.parameters());
    for (int r = 0; r < kReplayReps; ++r) {
      replay.time("optim.adam.disc", [&] { disc_adam.step(); });
    }
  } else {
    Rng attack_rng(o.seed + 6);
    attacks::Pgd pgd(s->scale.train_attack, attack_rng);
    Tensor adv;
    for (int r = 0; r < kReplayReps; ++r) {
      replay.time("attacks.pgd_train", [&] {
        pgd.generate_into(model, fetched.images, fetched.labels, adv);
      });
    }
  }

  replay_eval_attacks(replay, model, s->test, s->scale, o.seed, report);
  report.metric("tensor.gemm_gflops.train",
                lenet_gemm_gflops(replay, model, combined.dim(0), true,
                                  "tensor.gemm.train"),
                "GFLOP/s");
  replay_im2col(replay, model, combined.dim(0), true, kReplayReps);
  report.metric("common.parallel_for_us", parallel_for_us(replay), "us");

  // Replayed step: every call of one training step, as the trainer makes
  // them, against the untraced step time.
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  for (const char* layer : {"conv1", "conv2", "dense1", "dense2", "relu",
                            "other"}) {
    fwd_ms += replay.median_ms(std::string("nn.") + layer + ".fwd");
    bwd_ms += replay.median_ms(std::string("nn.") + layer + ".bwd");
  }
  double replayed = replay.median_ms("data.batch_fetch") + fwd_ms +
                    replay.median_ms("nn.loss") + bwd_ms +
                    replay.median_ms("optim.adam.classifier");
  if (zk) {
    // Two classifier forwards (discriminator and classifier updates), two
    // discriminator passes, one augmentation, one discriminator Adam step.
    replayed += fwd_ms + 2.0 * replay.median_ms("models.disc_fwd_bwd") +
                replay.median_ms("data.gaussian_augment") +
                replay.median_ms("optim.adam.disc");
  } else {
    replayed += replay.median_ms("attacks.pgd_train");
  }
  std::cout << "trace: untraced step " << step_ms << " ms, replayed step "
            << replayed << " ms\n";
  report.metric("trace.coverage_pct", replayed / step_ms * 100.0, "%");

  for (const std::string& name : layer_metric_names()) {
    report.metric(name + "_ms", replay.median_ms(name), "ms");
  }
  report.metric("tensor.im2col_ms", replay.median_ms("tensor.im2col"), "ms");
  report.metric("tensor.col2im_ms", replay.median_ms("tensor.col2im"), "ms");
  report.metric("data.batch_fetch_ms", replay.median_ms("data.batch_fetch"),
                "ms");
  report.metric("optim.adam_ms.classifier",
                replay.median_ms("optim.adam.classifier"), "ms");
  if (zk) {
    report.metric("models.disc_fwd_bwd_ms",
                  replay.median_ms("models.disc_fwd_bwd"), "ms");
    report.metric("data.gaussian_augment_ms",
                  replay.median_ms("data.gaussian_augment"), "ms");
    report.metric("optim.adam_ms.disc", replay.median_ms("optim.adam.disc"),
                  "ms");
  } else {
    report.metric("attacks.pgd_train_ms",
                  replay.median_ms("attacks.pgd_train"), "ms");
  }
  if (!o.trace_dir.empty()) {
    write_trace(o.trace_dir + "/" + o.workload + ".replay.jsonl",
                replay_spans);
  }
}

}  // namespace

void run_training_workload(const Options& options, bool zk_gandef,
                           Report& report) {
  if (options.trace) {
    report_traced(options, zk_gandef, report);
  } else {
    report_untraced(options, zk_gandef, report);
  }
}

}  // namespace perf
