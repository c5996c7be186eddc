// serve-open-loop: one generator thread sends single-image requests to an
// InferenceServer on a fixed schedule (an open loop: independent users,
// who do not wait for each other). The server hosts the bench-preset LeNet
// with the discriminator alarm head; the corpus mixes clean, FGSM and PGD
// held-out images in equal parts. The workload measures a fixed high rate,
// batched inference over the corpus and, in a closed loop, the rate at
// which the server answers when a full batch is always waiting; its traced
// run adds a low rate and a search of a fixed rate ladder.
// Inference only: batch 1 to kMaxBatch, no backward pass, no optimizer.
#include <atomic>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <string_view>
#include <thread>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "data/preprocess.hpp"
#include "evaluation.hpp"
#include "models/discriminator.hpp"
#include "models/session.hpp"
#include "obs/telemetry.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace perf {
namespace {

using namespace zkg;

// Server configuration and the traffic it is measured under. These rates
// and limits are part of the benchmark's definition; README.md lists them.
constexpr std::int64_t kMaxBatch = 32;
constexpr double kMaxDelayS = 0.004;
constexpr std::int64_t kMaxQueue = 1 << 16;
// kLowRate sends one request per 2.5 ms, so batches flush on the 4 ms
// deadline; kHighRate fills kMaxBatch in 3.2 ms, so they flush on size.
// kHighRate is well below the server's capacity (about 24 000 req/s on the
// reference host), so a host running at half speed still keeps up and the
// median latency does not explode into queueing.
constexpr double kLowRate = 400.0;
constexpr double kHighRate = 10000.0;
// The traced run also searches a fixed open-loop ladder, rung k at
// kLadderBase * kLadderStep^k req/s for kRungS seconds, for the highest rung
// that is sustained: p99 latency (from the due time) within
// kLatencyLimitMs, every request served, and at most kMaxBacklog requests
// unanswered when the last one is sent. It climbs kCoarse rungs at a time,
// then single rungs from the last sustained one.
constexpr double kLatencyLimitMs = 50.0;
constexpr std::size_t kMaxBacklog = 4 * kMaxBatch;
constexpr double kLadderBase = 16000.0;
constexpr double kLadderStep = 1.05;
constexpr int kCoarse = 5;
constexpr int kMaxRung = 60;
constexpr double kRungS = 1.0;
// The closed loop keeps kWindow requests outstanding, so the server always
// has a full batch waiting; each block sends kSaturatedRequests.
constexpr std::size_t kWindow = 4 * kMaxBatch;
constexpr std::size_t kSaturatedRequests = 8192;
// Served labels must equal the batched reference unless the reference's
// top-two logits are closer than this; alarm scores must match within
// kAlarmTolerance.
constexpr float kTieMargin = 1e-4f;
constexpr float kAlarmTolerance = 1e-5f;
constexpr int kSetups = 3;
// Every server gets this many untimed warm-up requests before its phase.
constexpr std::int64_t kWarmRequests = 2 * kMaxBatch;
// A request that has not resolved this long after its due time counts as
// unresolved, so a lost answer fails a check instead of hanging the run.
constexpr double kResolveLimitS = 10.0;
// The untraced run spends kRoundsShare of --seconds in rounds of
// kPassesPerRound batched inference passes, one high-rate block of kBlockS
// seconds and one closed-loop block, each block on a fresh server;
// eval_samples_per_s, p50_ms and throughput_per_s are medians over them.
constexpr double kBlockS = 0.5;
constexpr double kRoundsShare = 0.8;
constexpr std::size_t kMinRounds = 3;
constexpr int kPassesPerRound = 4;

/// The request corpus and the labels a batched forward pass gives it.
struct Corpus {
  std::vector<Tensor> images;  // [1, C, H, W] each
  std::vector<std::int64_t> label;
  std::vector<float> margin;  // top-1 minus top-2 logit
  std::vector<float> alarm;   // sigmoid(discriminator(logits))

  /// A served label must equal the reference unless the reference's
  /// top-two logits are a near tie; the alarm score must match closely.
  bool matches(std::size_t item, std::int64_t got_label,
               float got_alarm) const {
    return (got_label == label[item] || margin[item] < kTieMargin) &&
           std::fabs(got_alarm - alarm[item]) <= kAlarmTolerance;
  }
};

Corpus make_corpus(const eval::ExperimentScale& scale,
                   const data::Dataset& test, models::Classifier& model,
                   models::Discriminator& alarm_head, std::uint64_t seed) {
  attacks::Fgsm fgsm(scale.fgsm);
  Rng pgd_rng(seed + 4);
  attacks::Pgd pgd(scale.pgd, pgd_rng);
  const std::int64_t n = test.size();
  std::vector<Tensor> images;  // clean, FGSM, PGD chunks of kEvalBatch
  for (std::int64_t b = 0; b < n; b += kEvalBatch) {
    const std::int64_t e = std::min(b + kEvalBatch, n);
    const Tensor clean = test.images.slice_rows(b, e);
    const std::vector<std::int64_t> labels(test.labels.begin() + b,
                                           test.labels.begin() + e);
    images.push_back(clean);
    images.push_back(fgsm.generate(model, clean, labels));
    images.push_back(pgd.generate(model, clean, labels));
  }
  // The reference: a batched forward pass over each chunk.
  Corpus c;
  for (const Tensor& chunk : images) {
    const Tensor logits = model.forward(chunk, false);
    const Tensor alarm = alarm_head.probability(logits);
    const std::int64_t classes = logits.dim(1);
    for (std::int64_t i = 0; i < chunk.dim(0); ++i) {
      const float* row = logits.data() + i * classes;
      std::int64_t best = 0;
      for (std::int64_t k = 1; k < classes; ++k) {
        if (row[k] > row[best]) best = k;
      }
      float second = -INFINITY;
      for (std::int64_t k = 0; k < classes; ++k) {
        if (k != best) second = std::max(second, row[k]);
      }
      c.images.push_back(chunk.slice_rows(i, i + 1));
      c.label.push_back(best);
      c.margin.push_back(row[best] - second);
      c.alarm.push_back(alarm[i]);
    }
  }
  // Mix the three kinds of request in a seeded order.
  Rng order_rng(seed + 5);
  Corpus mixed;
  for (const std::int64_t i : order_rng.permutation(
           static_cast<std::int64_t>(c.images.size()))) {
    const auto k = static_cast<std::size_t>(i);
    mixed.images.push_back(c.images[k]);
    mixed.label.push_back(c.label[k]);
    mixed.margin.push_back(c.margin[k]);
    mixed.alarm.push_back(c.alarm[k]);
  }
  return mixed;
}

/// The corpus in full batches of kMaxBatch images, in corpus order: the
/// batches the server's engine forms at the high rate.
std::vector<Tensor> corpus_batches(const Corpus& c) {
  std::vector<Tensor> batches;
  const Tensor& first = c.images.front();
  const std::int64_t per = first.numel();
  const auto rows = static_cast<std::size_t>(kMaxBatch);
  for (std::size_t b = 0; b + rows <= c.images.size(); b += rows) {
    Tensor batch({kMaxBatch, first.dim(1), first.dim(2), first.dim(3)});
    for (std::size_t i = 0; i < rows; ++i) {
      std::copy_n(c.images[b + i].data(), per,
                  batch.data() + static_cast<std::int64_t>(i) * per);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct Setup {
  eval::ExperimentScale scale = digits_scale(0);
  data::Dataset test;
  std::unique_ptr<models::Classifier> model;
  std::unique_ptr<models::Discriminator> alarm;
  Corpus corpus;
  std::vector<Tensor> batches;
};

serve::ServeConfig server_config() {
  serve::ServeConfig config;
  config.max_batch = kMaxBatch;
  config.max_delay_s = kMaxDelayS;
  config.max_queue = kMaxQueue;
  return config;
}

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  Rng data_rng(seed);
  s->test = data::scale_pixels(data::make_synth_digits(kHeldOut, data_rng));
  Rng model_rng(seed + 1);
  s->model = std::make_unique<models::Classifier>(eval::build_model_for(
      data::DatasetId::kDigits, s->scale, model_rng));
  Rng disc_rng(seed + 2);
  s->alarm = std::make_unique<models::Discriminator>(
      s->model->spec().num_classes, disc_rng);
  s->corpus = make_corpus(s->scale, s->test, *s->model, *s->alarm, seed);
  s->batches = corpus_batches(s->corpus);
  // Warm-up requests: the engine thread, its session scratch and the
  // buffer pool see full batches before anything is timed.
  serve::InferenceServer server(*s->model, server_config(), s->alarm.get());
  std::vector<serve::RequestHandle> handles;
  for (std::int64_t i = 0; i < 4 * kMaxBatch; ++i) {
    handles.push_back(server.submit(s->corpus.images[
        static_cast<std::size_t>(i)]));
  }
  for (serve::RequestHandle& h : handles) h.get();
  server.stop();
  return s;
}

/// Outcome of one serving phase: an open-loop block at a fixed rate or a
/// closed-loop block.
struct Phase {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t served = 0;
  std::size_t refused = 0;   // Overloaded at submit
  std::size_t expired = 0;   // DeadlineExceeded
  std::size_t errors = 0;    // any other failure of an accepted request
  std::size_t submit_errors = 0;  // submit failed other than Overloaded
  std::size_t unresolved = 0;  // no answer within kResolveLimitS
  std::size_t wrong = 0;     // label or alarm differs from the reference
  std::size_t backlog = 0;   // open loop: unanswered when the last was sent
  double served_per_s = 0.0;
  Summary latency_ms;        // from due time, unanswered = +inf
  Summary sojourn_ms;        // from actual send
  Summary late_ms;           // generator lateness
  double p99_ms = 0.0;       // latency the ladder is judged on
  serve::ServerStats stats;
};

/// Untimed warm-up: the engine thread and a new server's session scratch
/// see full batches before anything is measured.
void warm_up(serve::InferenceServer& server, const Corpus& corpus) {
  std::vector<serve::RequestHandle> warm;
  for (std::int64_t i = 0; i < kWarmRequests; ++i) {
    warm.push_back(server.submit(corpus.images[static_cast<std::size_t>(i)]));
  }
  for (serve::RequestHandle& h : warm) h.get();
}

/// Waits for one answer, at most until `limit_s` on the now_s() clock, and
/// counts its outcome in `p`. Returns true when it was served.
bool collect(Phase& p, serve::RequestHandle handle, const Corpus& corpus,
             std::size_t item, double limit_s) {
  if (handle.future().wait_for(std::chrono::duration<double>(std::max(
          0.0, limit_s - now_s()))) != std::future_status::ready) {
    ++p.unresolved;
    return false;
  }
  try {
    const serve::Prediction got = handle.get();
    ++p.served;
    if (!corpus.matches(item, got.label, got.alarm_score)) ++p.wrong;
    return true;
  } catch (const serve::DeadlineExceeded&) {
    ++p.expired;
  } catch (const std::exception&) {
    ++p.errors;
  }
  return false;
}

Phase run_open_loop(Setup& s, double rate,
                    double seconds, std::size_t offset) {
  const Corpus& corpus = s.corpus;
  serve::InferenceServer server(*s.model, server_config(), s.alarm.get());
  warm_up(server, corpus);
  Phase p;
  p.rate = rate;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  const double start = now_s() + 0.001;
  OpenLoopLedger ledger(start, rate, n);
  std::vector<double> sent_s(n, 0.0);
  std::vector<serve::RequestHandle> handles(n);
  std::vector<char> refused(n, 0);
  std::atomic<std::size_t> published{0};

  // The collector waits on the futures in send order. The server answers
  // in arrival order too, so each answer is seen as soon as it is ready.
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (refused[i] != 0) continue;
      // Moved out of the vector so the handle is freed once answered, as
      // a client that is done with a request would.
      if (collect(p, std::move(handles[i]), corpus,
                  (offset + i) % corpus.images.size(),
                  ledger.due_s(i) + kResolveLimitS)) {
        const double done = now_s();
        ledger.answered(i, done);
        sent_s[i] = done - sent_s[i];  // now the sojourn
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    sleep_until_s(ledger.due_s(i));
    const double t = now_s();
    ledger.sent(i, t);
    sent_s[i] = t;
    try {
      handles[i] =
          server.submit(corpus.images[(offset + i) % corpus.images.size()]);
    } catch (const serve::Overloaded&) {
      refused[i] = 1;
      ++p.refused;
    } catch (const std::exception&) {
      refused[i] = 1;
      ++p.submit_errors;
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  const double last_sent_s = now_s();
  collector.join();
  const double end = now_s();
  p.stats = server.stats();
  server.stop();

  p.sent = n;
  p.served_per_s = static_cast<double>(p.served) / (end - start);
  std::vector<double> latency_ms;
  std::vector<double> sojourn_ms;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < n; ++i) {
    // Unanswered (infinite latency) requests count too, refused ones not.
    if (refused[i] == 0 &&
        ledger.due_s(i) + ledger.latency_s()[i] > last_sent_s) {
      ++p.backlog;
    }
    latency_ms.push_back(ledger.latency_s()[i] * 1e3);
    late_ms.push_back(ledger.late_s()[i] * 1e3);
    if (std::isfinite(ledger.latency_s()[i])) {
      sojourn_ms.push_back(sent_s[i] * 1e3);
    }
  }
  p.latency_ms = summarize(latency_ms);
  p.sojourn_ms = summarize(sojourn_ms);
  p.late_ms = summarize(late_ms);
  p.p99_ms = percentile(latency_ms, 99.0);
  return p;
}

/// Closed loop at saturation: one client keeps kWindow requests
/// outstanding and sends the next as soon as the oldest is answered, so
/// batches flush on size back to back. Measures answers per second.
Phase run_closed_loop(Setup& s, std::size_t offset) {
  const Corpus& corpus = s.corpus;
  serve::InferenceServer server(*s.model, server_config(), s.alarm.get());
  warm_up(server, corpus);
  Phase p;
  std::deque<std::pair<std::size_t, serve::RequestHandle>> window;
  std::size_t next = 0;
  const double start = now_s();
  while (next < kSaturatedRequests || !window.empty()) {
    while (next < kSaturatedRequests && window.size() < kWindow) {
      const std::size_t item = (offset + next++) % corpus.images.size();
      try {
        window.emplace_back(item, server.submit(corpus.images[item]));
      } catch (const serve::Overloaded&) {
        ++p.refused;
      } catch (const std::exception&) {
        ++p.submit_errors;
      }
    }
    if (window.empty()) continue;
    collect(p, std::move(window.front().second), corpus,
            window.front().first, now_s() + kResolveLimitS);
    window.pop_front();
  }
  p.served_per_s = static_cast<double>(p.served) / (now_s() - start);
  p.stats = server.stats();
  server.stop();
  p.sent = kSaturatedRequests;
  return p;
}

double mean_batch(const Phase& p) {
  return p.stats.batches == 0 ? 0.0
                              : static_cast<double>(p.stats.completed) /
                                    static_cast<double>(p.stats.batches);
}

void print_phase(const std::string& label, const Phase& p) {
  std::cout << "serve " << label << ": rate " << p.rate << "/s, sent "
            << p.sent << ", served " << p.served << ", refused " << p.refused
            << ", expired " << p.expired << ", errors "
            << p.errors + p.submit_errors << ", unresolved " << p.unresolved
            << ", wrong " << p.wrong << "; latency p50 "
            << p.latency_ms.median << " ms p" << p.latency_ms.tail_q << " "
            << p.latency_ms.tail << " ms; generator late p"
            << p.late_ms.tail_q << " " << p.late_ms.tail << " ms; mean batch "
            << mean_batch(p) << ", deadline flushes " << p.stats.deadline_flushes
            << ", size flushes " << p.stats.size_flushes << "\n";
}

/// Accounts a phase: every request is an attempted operation, and every
/// request must be served. What the client saw must agree with the
/// server's own counters (which also hold the phase's kWarmRequests
/// warm-up requests).
void account(Report& report, const Phase& p) {
  report.attempted(static_cast<std::int64_t>(p.sent));
  const std::size_t failed = p.wrong + p.errors + p.submit_errors +
                             p.unresolved + p.refused + p.expired;
  report.failed(static_cast<std::int64_t>(failed));
  report.check(p.wrong == 0, "a served label or alarm score differs from "
                             "the batched reference");
  report.check(p.unresolved == 0, "a request was not answered within " +
                                      std::to_string(kResolveLimitS) +
                                      " s of its due time");
  const auto warm = static_cast<std::uint64_t>(kWarmRequests);
  report.check(p.stats.rejected == p.refused &&
                   p.stats.accepted ==
                       warm + p.sent - p.refused - p.submit_errors &&
                   p.stats.completed ==
                       warm + p.served + p.expired + p.errors,
               "the server's accepted, rejected or completed count differs "
               "from what the client saw");
}

/// One pass of batched inference over the corpus: InferenceSession predict
/// plus alarm on every full batch of kMaxBatch, the call the server's
/// engine makes for a size-flushed batch, with no queue in front. Every
/// label and alarm score is checked against the reference; a batch with a
/// mismatch counts as failed. Returns the pass's seconds.
double batched_pass(const Setup& s, models::InferenceSession& session,
                    Report& report) {
  std::int64_t failed = 0;
  const double start = now_s();
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    const std::vector<std::int64_t>& labels = session.predict(s.batches[b]);
    const Tensor& alarm = session.alarm_scores();
    bool ok = true;
    for (std::int64_t i = 0; i < kMaxBatch; ++i) {
      const std::size_t item =
          b * static_cast<std::size_t>(kMaxBatch) + static_cast<std::size_t>(i);
      ok = ok && s.corpus.matches(item, labels[static_cast<std::size_t>(i)],
                                  alarm[i]);
    }
    failed += ok ? 0 : 1;
  }
  const double seconds = now_s() - start;
  report.attempted(static_cast<std::int64_t>(s.batches.size()));
  report.failed(failed);
  report.check(failed == 0, "a batched label or alarm score differs from "
                            "the reference");
  return seconds;
}

bool sustained(const Phase& p) {
  return p.served == p.sent && p.wrong == 0 &&
         p.p99_ms <= kLatencyLimitMs && p.backlog <= kMaxBacklog;
}

/// Stepped search up the fixed ladder; returns the last sustained rung. A
/// rung gets up to three tries, so that one host stall does not end the
/// search below the server's capacity.
Phase search_max_rate(Setup& s, Report& report) {
  Phase best;
  int k = 0;
  int step = kCoarse;
  while (true) {
    const double rate = kLadderBase * std::pow(kLadderStep, k);
    Phase p;
    for (int attempt = 0; attempt < 3; ++attempt) {
      p = run_open_loop(s, rate, kRungS, static_cast<std::size_t>(k) * 997);
      account(report, p);
      std::cout << "ladder rung " << k << ": " << rate << "/s "
                << (sustained(p) ? "sustained" : "not sustained") << " (p50 "
                << p.latency_ms.median << " ms, p99 " << p.p99_ms
                << " ms, backlog " << p.backlog << ")\n";
      if (sustained(p)) break;
    }
    if (sustained(p) && k + step <= kMaxRung) {
      best = p;
      k += step;
    } else if (step > 1 && k > 0) {
      k -= step - 1;
      step = 1;
    } else {
      break;
    }
  }
  return best;
}

void report_blocks(const std::string& label, const std::vector<Phase>& blocks,
                  Report& report) {
  std::size_t sent = 0;
  std::size_t served = 0;
  std::vector<double> p50;
  std::vector<double> tail;
  for (const Phase& b : blocks) {
    account(report, b);
    sent += b.sent;
    served += b.served;
    p50.push_back(b.latency_ms.median);
    tail.push_back(b.latency_ms.tail);
  }
  std::cout << "serve " << label << ": " << blocks.size() << " blocks at "
            << blocks.front().rate << "/s, sent " << sent << ", served "
            << served << "; median block p50 " << percentile(p50, 50.0)
            << " ms, median block p" << blocks.front().latency_ms.tail_q
            << " " << percentile(tail, 50.0) << " ms\n";
  print_phase(label + " (last block)", blocks.back());
}

void report_untraced(const Options& o, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    const double start = i == 0 ? 0.0 : now_s();
    s = set_up(o.seed);
    setup_s.push_back(now_s() - start);
  }

  // Rounds of batched passes, a high-rate block and a closed-loop block,
  // so that all three sample the whole run: the host's speed drifts over
  // seconds, and a median over a long window rides it out. The session's
  // first pass is an untimed warm-up.
  models::InferenceSession session(*s->model, s->alarm.get());
  batched_pass(*s, session, report);
  std::vector<double> pass_s;
  std::vector<Phase> highs;
  std::vector<double> saturated_rps;
  const double start = now_s();
  std::size_t offset = 0;
  while (now_s() - start < o.seconds * kRoundsShare ||
         highs.size() < kMinRounds) {
    for (int i = 0; i < kPassesPerRound; ++i) {
      pass_s.push_back(batched_pass(*s, session, report));
    }
    highs.push_back(run_open_loop(*s, kHighRate, kBlockS, offset));
    offset += highs.back().sent;
    const Phase saturated = run_closed_loop(*s, offset);
    account(report, saturated);
    saturated_rps.push_back(saturated.served_per_s);
    offset += saturated.sent;
  }
  report_blocks("high", highs, report);

  std::vector<double> p50;
  for (const Phase& h : highs) p50.push_back(h.latency_ms.median);
  const double images = static_cast<double>(
      s->batches.size() * static_cast<std::size_t>(kMaxBatch));
  std::cout << "closed loop: " << saturated_rps.size() << " blocks of "
            << kSaturatedRequests << " requests, median "
            << percentile(saturated_rps, 50.0) << " answers/s\n"
            << "batched: " << pass_s.size() << " passes of " << images
            << " images, median " << percentile(pass_s, 50.0) << " s\n";
  report.metric("setup_s", percentile(setup_s, 50.0), "s");
  report.metric("eval_samples_per_s", images / percentile(pass_s, 50.0),
                "1/s");
  report.metric("throughput_per_s", percentile(saturated_rps, 50.0), "1/s");
  report.metric("p50_ms", percentile(p50, 50.0), "ms");
}

void report_rate(Report& report, const std::string& tag, const Phase& p,
                 double batch_ms) {
  report.metric("serve.queue_wait_ms." + tag, p.sojourn_ms.median - batch_ms,
                "ms");
  report.metric("serve.batch_ms." + tag, batch_ms, "ms");
  report.metric("serve.mean_batch." + tag, mean_batch(p), "count");
  report.metric("serve.deadline_flushes." + tag,
                static_cast<double>(p.stats.deadline_flushes), "count");
  report.metric("serve.generator_late_ms." + tag, p.late_ms.tail, "ms");
}

void report_traced(const Options& o, Report& report) {
  std::unique_ptr<Setup> s = set_up(o.seed);
  obs::Telemetry& telemetry = obs::Telemetry::global();

  // The low rate, traced: batch time from the server's serve.batch spans.
  // The median, like the replay's, so that a host stall during one batch
  // does not move it.
  const auto batch_span_ms = [&telemetry] {
    std::vector<double> ms;
    for (const obs::SpanRecord& span : telemetry.spans()) {
      if (std::string_view(span.name) == "serve.batch") {
        ms.push_back(span.dur_s * 1e3);
      }
    }
    return percentile(ms, 50.0);
  };
  telemetry.reset();
  telemetry.set_enabled(true);
  const Phase low = run_open_loop(*s, kLowRate, o.seconds * 0.2, 0);
  telemetry.set_enabled(false);
  account(report, low);
  print_phase("low (traced)", low);
  report_rate(report, "low", low, batch_span_ms());
  report.metric("serve.latency_p50_ms.low", low.latency_ms.median, "ms");
  report.metric("serve.latency_tail_ms.low", low.latency_ms.tail, "ms");

  // The high rate runs in pairs of an untraced and a traced phase. The
  // server's own mean batch time of the two sides is the tracing overhead
  // on the serving path (both include the kWarmRequests warm-up batches);
  // pairing keeps the host's drift out of the comparison.
  constexpr int kPairs = 3;
  telemetry.reset();
  BufferPool::global().reset_stats();
  double batch_s[2] = {0.0, 0.0};  // untraced, traced: total batch seconds
  std::uint64_t batches[2] = {0, 0};
  Phase high;
  for (int i = 0; i < 2 * kPairs; ++i) {
    const bool traced = i % 2 == 1;
    telemetry.set_enabled(traced);
    high = run_open_loop(*s, kHighRate, o.seconds * 0.2 / kPairs, 7919);
    telemetry.set_enabled(false);
    account(report, high);
    batch_s[traced] +=
        high.stats.mean_batch_s * static_cast<double>(high.stats.batches);
    batches[traced] += high.stats.batches;
  }
  const std::uint64_t pool_misses = BufferPool::global().stats().misses;
  const double high_batch_ms = batch_span_ms();
  print_phase("high (last traced)", high);
  report_rate(report, "high", high, high_batch_ms);
  report.metric("serve.latency_tail_ms.high", high.latency_ms.tail, "ms");
  for (const auto& [name, value] : telemetry.counter_values()) {
    if (name == "parallel.calls") {
      report.metric("common.parallel_calls_per_step",
                    static_cast<double>(value) /
                        static_cast<double>(batches[1]),
                    "count");
    }
  }
  report.metric("tensor.pool_misses_per_step",
                static_cast<double>(pool_misses) /
                    static_cast<double>(batches[0] + batches[1]),
                "count");
  report.metric("trace.overhead_pct",
                (batch_s[1] / static_cast<double>(batches[1])) /
                        (batch_s[0] / static_cast<double>(batches[0])) *
                        100.0 -
                    100.0,
                "%");
  if (!o.trace_dir.empty()) {
    write_trace(o.trace_dir + "/" + o.workload + ".library.jsonl", telemetry);
  }

  obs::Telemetry replay_spans;
  Replay replay(replay_spans);
  models::Classifier& model = *s->model;
  models::InferenceSession session(model, s->alarm.get());
  const Tensor one = s->corpus.images[0];
  const Tensor full = s->test.images.slice_rows(0, kMaxBatch);
  for (int r = 0; r < 200; ++r) {
    replay.time("models.session.b1", [&] {
      session.predict(one);
      session.alarm_scores();
    });
  }
  for (int r = 0; r < 200; ++r) {
    replay.time("models.session.bmax", [&] {
      session.predict(full);
      session.alarm_scores();
    });
  }
  report.metric("models.session_ms.b1", replay.median_ms("models.session.b1"),
                "ms");
  report.metric("models.session_ms.bmax",
                replay.median_ms("models.session.bmax"), "ms");
  report.metric("tensor.gemm_gflops.serve_b1",
                lenet_gemm_gflops(replay, model, 1, false,
                                  "tensor.gemm.serve_b1"),
                "GFLOP/s");
  report.metric("tensor.gemm_gflops.serve_bmax",
                lenet_gemm_gflops(replay, model, kMaxBatch, false,
                                  "tensor.gemm.serve_bmax"),
                "GFLOP/s");
  replay_layers(replay, model, full, nullptr, 25);
  for (const std::string& name : layer_metric_names()) {
    if (name.find(".fwd") != std::string::npos) {
      report.metric(name + "_ms", replay.median_ms(name), "ms");
    }
  }
  replay_im2col(replay, model, kMaxBatch, false, 25);
  report.metric("tensor.im2col_ms", replay.median_ms("tensor.im2col"), "ms");
  report.metric("common.parallel_for_us", parallel_for_us(replay), "us");
  // A size-flushed batch at the high rate is one session call at kMaxBatch.
  report.metric("trace.coverage_pct",
                replay.median_ms("models.session.bmax") / high_batch_ms *
                    100.0,
                "%");
  if (!o.trace_dir.empty()) {
    write_trace(o.trace_dir + "/" + o.workload + ".replay.jsonl",
                replay_spans);
  }

  // Untraced: the highest sustained ladder rate. It spreads too much
  // between runs to carry a bound (README.md), so it is reported here.
  const Phase best = search_max_rate(*s, report);
  print_phase("max sustained", best);
  report.check(best.sent > 0, "the lowest ladder rung was not sustained");
  report.metric("serve.max_rate_rps", best.served_per_s, "1/s");
}

}  // namespace

void run_serve_workload(const Options& options, Report& report) {
  if (options.trace) {
    report_traced(options, report);
  } else {
    report_untraced(options, report);
  }
}

}  // namespace perf
