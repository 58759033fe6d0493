// Fault-injection resilience experiments over the NACU datapath.
//
// Tables:
//   (1) a 10k-trial randomized SEU/stuck-at campaign on the paper's Q4.11
//       unit — outcome matrix per surface, per-detector hit counts, and the
//       detection-coverage headline (fault/campaign.hpp);
//   (2) coverage per fault model in isolation (transients scrub away and
//       vote out; stuck-ats are where unrecoverable mass concentrates);
//   (3) end-to-end impact: QuantizedMlp classification accuracy as
//       stuck-at defects accumulate in the activation tables of a 10-bit
//       datapath (small enough that random upsets hit words the network
//       actually reads), with the invariant checker's verdict alongside —
//       detection fires from the very first defect, well before the
//       accuracy cliff. Transient SEUs under the same sweep barely register:
//       each one corrupts at most one read before the next scrub heals it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "bench_json.hpp"
#include "fault/campaign.hpp"
#include "nn/quantized_mlp.hpp"

namespace {

using namespace nacu;
using F = core::BatchNacu::Function;

double run_model_campaign(fault::FaultModel model, std::size_t trials) {
  fault::CampaignConfig config;
  config.trials = trials;
  config.seed = 2;
  config.models = {model};
  const fault::CampaignReport report =
      fault::CampaignRunner{config}.run();
  return report.detection_coverage();
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: campaign trial count (default 10000) so CI smoke runs
  // can dial the cost down (e.g. `bench_fault_resilience 300`). Below 1000
  // trials the slow MLP accuracy sweep (3) is skipped as well.
  std::size_t trials = 10000;
  if (argc > 1) {
    const long parsed = std::strtol(argv[1], nullptr, 10);
    if (parsed > 0) {
      trials = static_cast<std::size_t>(parsed);
    }
  }
  const std::size_t model_trials = std::min<std::size_t>(trials, 3000);
  benchjson::Writer writer{"nacu-bench-fault-v1"};
  const std::string fmt_name = core::config_for_bits(16).format.to_string();

  std::printf("=== (1) randomized campaign, Q4.11, all surfaces/models ===\n");
  {
    fault::CampaignConfig config;
    config.trials = trials;
    config.seed = 1;
    const fault::CampaignRunner runner{config};
    const auto start = std::chrono::steady_clock::now();
    const fault::CampaignReport report = runner.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("%s", report.summary().c_str());
    std::printf("  wall time %.2f s (%.0f trials/s), fingerprint %016llx\n",
                secs, static_cast<double>(report.trials) / secs,
                static_cast<unsigned long long>(report.fingerprint()));
    writer.add(benchjson::Record{}
                   .add("op", "campaign-all-models")
                   .add("format", fmt_name)
                   .add("trials", report.trials)
                   .add("trials_per_s",
                        static_cast<double>(report.trials) / secs)
                   .add("detection_coverage", report.detection_coverage()));
  }

  std::printf("\n=== (2) detection coverage per fault model ===\n");
  for (const fault::FaultModel model :
       {fault::FaultModel::TransientSeu, fault::FaultModel::StuckAt0,
        fault::FaultModel::StuckAt1}) {
    const double coverage = run_model_campaign(model, model_trials);
    std::printf("  %-12s coverage %.4f\n", fault::fault_model_name(model),
                coverage);
    std::string op_name = "campaign-";
    op_name += fault::fault_model_name(model);
    writer.add(benchjson::Record{}
                   .add("op", op_name)
                   .add("format", fmt_name)
                   .add("trials", model_trials)
                   .add("detection_coverage", coverage));
  }

  if (trials < 1000) {
    if (writer.write("BENCH_fault.json")) {
      std::printf("\nwrote BENCH_fault.json (accuracy sweep skipped at %zu "
                  "trials)\n", trials);
    }
    return 0;
  }

  std::printf("\n=== (3) QuantizedMlp accuracy vs accumulated table "
              "upsets ===\n");
  {
    nn::MlpConfig mlp_config;
    mlp_config.layer_sizes = {2, 16, 4};
    mlp_config.activation = nn::HiddenActivation::Sigmoid;
    mlp_config.epochs = 120;
    const nn::Dataset data = nn::make_blobs(120, 4);
    const nn::Split split = nn::train_test_split(data, 0.8);
    nn::Mlp mlp{mlp_config};
    mlp.train(split.train);

    const core::NacuConfig config = core::config_for_bits(10);
    nn::QuantizedMlp q{mlp, config};
    core::BatchNacu& engine = q.batch_unit();
    engine.warm(F::Sigmoid);
    engine.warm(F::Exp);
    const double clean_acc = q.accuracy(split.test);
    const fault::InvariantChecker checker{config};
    const auto words =
        static_cast<std::size_t>(config.format.max_raw() -
                                 config.format.min_raw() + 1);
    const int width = config.format.width();

    std::printf("  %s datapath, clean accuracy %.3f, %zu table words per "
                "function\n", config.format.to_string().c_str(), clean_acc,
                words);
    std::printf("  %8s %12s %12s %14s  %s\n", "faults", "stuck-at acc",
                "acc delta", "transient acc", "checker verdict (stuck-at)");
    std::mt19937_64 rng{99};
    for (const std::size_t count : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      // Draw one fault list, apply it twice: once as permanent stuck-ats,
      // once as transients that a scrub wipes away.
      std::vector<fault::Fault> defects;
      for (std::size_t k = 0; k < count; ++k) {
        const fault::Surface surface = (rng() % 2) == 0
                                           ? fault::Surface::TableSigmoid
                                           : fault::Surface::TableExp;
        defects.push_back({surface, rng() % words,
                           static_cast<int>(rng() %
                                            static_cast<std::size_t>(width)),
                           (rng() % 2) == 0 ? fault::FaultModel::StuckAt0
                                            : fault::FaultModel::StuckAt1});
      }
      fault::FaultInjector stuck;
      for (const fault::Fault& d : defects) {
        stuck.arm(d);
      }
      engine.attach_fault_port(&stuck);
      const double stuck_acc = q.accuracy(split.test);
      const fault::DetectionReport detected = checker.check_batch(engine);

      fault::FaultInjector transient;
      for (fault::Fault d : defects) {
        d.model = fault::FaultModel::TransientSeu;
        transient.arm(d);
      }
      engine.attach_fault_port(&transient);
      engine.scrub_table(F::Sigmoid);  // controller scrub heals transients
      engine.scrub_table(F::Exp);
      const double transient_acc = q.accuracy(split.test);
      engine.attach_fault_port(nullptr);
      std::printf("  %8zu %12.3f %+12.3f %14.3f  %s\n", count, stuck_acc,
                  stuck_acc - clean_acc, transient_acc,
                  detected.to_string().c_str());
      writer.add(benchjson::Record{}
                     .add("op", "mlp-accuracy-stuck-at")
                     .add("format", config.format.to_string())
                     .add("faults", count)
                     .add("accuracy", stuck_acc)
                     .add("clean_accuracy", clean_acc));
    }
  }
  if (writer.write("BENCH_fault.json")) {
    std::printf("\nwrote BENCH_fault.json\n");
  }
  return 0;
}
