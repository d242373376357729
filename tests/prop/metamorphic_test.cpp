// Metamorphic property harness (seeded, ≥200 instances per relation).
//
// Each relation states how a *transformed* instance must relate to the
// original — no expected outputs are pinned, so these tests hold even as
// the solver heuristics evolve:
//
//   relation                     oracle(s)
//   node relabeling invariance   brute force equality + certifier
//   time translation invariance  brute force equality + certifier
//   deadline relaxation          brute force monotone + certifier
//   ε relaxation                 certifier (feasible at ε ⇒ feasible at ε'≥ε)
//   cost scaling equivariance    brute force ×k exact + solver schedule ×k
//   edge addition                brute force monotone (more contacts never
//                                make the optimum worse)
//   robust ladder certifies      certifier accepts every rung's schedule
//   DTS permutation invariance   point-for-point equal DTS at τ ∈ {0, 1}
//                                after shuffling contact order and
//                                swapping each contact's endpoints
//
// A violation is shrunk with tests/prop/shrink.hpp before being reported,
// so the failure message carries a paste-able minimal reproducer plus the
// instance seed. Override the base seed with TVEG_PROP_SEED=<n>.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "core/eedcb.hpp"
#include "core/fr.hpp"
#include "core/tveg.hpp"
#include "fault/degrade.hpp"
#include "prop/prop_support.hpp"
#include "prop/shrink.hpp"
#include "support/rng.hpp"
#include "tools/certify/certify.hpp"

namespace tveg::prop {
namespace {

constexpr int kInstances = 200;
constexpr double kRelTol = 1e-9;

certify::Options certify_options(const core::TmedbInstance& instance,
                                 channel::ChannelModel model) {
  const channel::RadioParams& radio = instance.tveg->radio();
  certify::Options opt;
  opt.source = instance.source;
  opt.deadline = instance.deadline;
  opt.epsilon = instance.effective_epsilon();
  opt.tau = instance.tveg->latency();
  opt.budget = instance.budget;
  opt.targets = instance.targets;
  opt.model = model;
  opt.noise_density = radio.noise_density;
  opt.decoding_threshold_db = radio.decoding_threshold_db;
  opt.path_loss_exponent = radio.path_loss_exponent;
  opt.w_min = radio.w_min;
  opt.w_max = radio.w_max;
  return opt;
}

std::vector<certify::Transmission> to_certify(const core::Schedule& s) {
  std::vector<certify::Transmission> out;
  for (const core::Transmission& tx : s.transmissions())
    out.push_back({tx.relay, tx.time, tx.cost});
  return out;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a),
                                                 std::fabs(b)});
}

/// Runs `violates` over kInstances seeded traces; on a violation, shrinks
/// the trace and fails with a minimal reproducer.
void check_relation(const char* relation, std::uint64_t stream,
                    const Predicate& violates, int nodes_lo = 5,
                    int nodes_hi = 6) {
  const std::uint64_t base = base_seed();
  for (int i = 0; i < kInstances; ++i) {
    const std::uint64_t seed = support::stream_seed(base ^ stream, static_cast<std::uint64_t>(i));
    const int nodes = nodes_lo + static_cast<int>(seed % static_cast<std::uint64_t>(nodes_hi - nodes_lo + 1));
    const trace::ContactTrace t = gen_trace(seed, nodes);
    if (!violates(t)) continue;
    const trace::ContactTrace small = shrink_trace(t, violates);
    FAIL() << relation << " violated (instance " << i << ", seed " << seed
           << ", TVEG_PROP_SEED base " << base << "); shrunk reproducer:\n"
           << describe(small);
  }
}

// Guards the whole harness against vacuity: the generator must produce
// instances where the brute force finds a finite optimum and the solver
// covers everything, otherwise every relation above it passes trivially.
TEST(Metamorphic, GeneratedInstancesAreNonVacuous) {
  const std::uint64_t base = base_seed();
  int solvable = 0, covered = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed = support::stream_seed(base, static_cast<std::uint64_t>(i));
    const trace::ContactTrace t = gen_trace(seed, 5 + static_cast<int>(seed % 2));
    const channel::RadioParams radio = unit_radio();
    if (brute_force_opt(t, radio, 0, kHorizon)) ++solvable;
    const core::Tveg tveg(t, radio, {.model = channel::ChannelModel::kStep});
    if (core::run_eedcb(core::TmedbInstance{&tveg, 0, kHorizon},
                        core::EedcbOptions{})
            .covered_all)
      ++covered;
  }
  EXPECT_GE(solvable, 25);
  EXPECT_GE(covered, 25);
}

TEST(Metamorphic, NodeRelabelingInvariance) {
  check_relation("node-relabeling invariance", 0x01, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();
    const std::vector<NodeId> perm = rotation(t.node_count());
    const trace::ContactTrace rt = relabel(t, perm);

    // Oracle 1: the exact optimum is identical under relabeling.
    const auto a = brute_force_opt(t, radio, 0, kHorizon);
    const auto b = brute_force_opt(rt, radio, perm[0], kHorizon);
    if (a.has_value() != b.has_value()) return true;
    if (a && !close(*a, *b)) return true;

    // Oracle 2: the solver's schedule, relabeled, certifies on the
    // relabeled trace.
    const core::Tveg tveg(t, radio, {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, kHorizon};
    const auto outcome = core::run_eedcb(instance, core::EedcbOptions{});
    if (!outcome.covered_all) return false;
    std::vector<certify::Transmission> txs;
    for (const core::Transmission& tx : outcome.schedule.transmissions())
      txs.push_back({perm[static_cast<std::size_t>(tx.relay)], tx.time,
                     tx.cost});
    certify::Options opt = certify_options(instance, channel::ChannelModel::kStep);
    opt.source = perm[0];
    return !certify::verify(rt, txs, opt).feasible;
  });
}

TEST(Metamorphic, TimeTranslationInvariance) {
  constexpr Time kDelta = 2 * kSlot;
  check_relation("time-translation invariance", 0x02, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();
    const trace::ContactTrace st = translate(t, kDelta);

    const auto a = brute_force_opt(t, radio, 0, t.horizon());
    const auto b = brute_force_opt(st, radio, 0, t.horizon() + kDelta);
    if (a.has_value() != b.has_value()) return true;
    if (a && !close(*a, *b)) return true;

    const core::Tveg tveg(t, radio, {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, t.horizon()};
    const auto outcome = core::run_eedcb(instance, core::EedcbOptions{});
    if (!outcome.covered_all) return false;
    std::vector<certify::Transmission> txs;
    for (const core::Transmission& tx : outcome.schedule.transmissions())
      txs.push_back({tx.relay, tx.time + kDelta, tx.cost});
    certify::Options opt = certify_options(instance, channel::ChannelModel::kStep);
    opt.deadline = t.horizon() + kDelta;
    return !certify::verify(st, txs, opt).feasible;
  });
}

TEST(Metamorphic, DeadlineRelaxationMonotonicity) {
  constexpr Time kTight = 120.0, kLoose = 200.0;
  check_relation("deadline-relaxation monotonicity", 0x03, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();
    const auto tight = brute_force_opt(t, radio, 0, kTight);
    const auto loose = brute_force_opt(t, radio, 0, kLoose);
    // A schedule for the tight deadline is valid for the loose one, so the
    // loose optimum can only be cheaper.
    if (tight && (!loose || *loose > *tight * (1.0 + kRelTol))) return true;

    // And the solver's tight-deadline schedule certifies under the loose
    // deadline verbatim.
    const core::Tveg tveg(t, radio, {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, kTight};
    const auto outcome = core::run_eedcb(instance, core::EedcbOptions{});
    if (!outcome.covered_all) return false;
    certify::Options opt = certify_options(instance, channel::ChannelModel::kStep);
    opt.deadline = kLoose;
    return !certify::verify(t, to_certify(outcome.schedule), opt).feasible;
  });
}

TEST(Metamorphic, EpsilonRelaxationMonotonicity) {
  check_relation("epsilon-relaxation monotonicity", 0x04, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();  // epsilon = 0.01
    const core::Tveg tveg(t, radio,
                          {.model = channel::ChannelModel::kRayleigh});
    const core::TmedbInstance instance{&tveg, 0, kHorizon};
    const auto outcome = core::run_fr_eedcb(instance, core::EedcbOptions{});
    if (!outcome.feasible()) return false;
    // Feasible at ε must stay feasible at every ε' ≥ ε.
    for (const double eps : {0.02, 0.1, 0.5}) {
      certify::Options opt =
          certify_options(instance, channel::ChannelModel::kRayleigh);
      opt.epsilon = eps;
      if (!certify::verify(t, to_certify(outcome.schedule()), opt).feasible)
        return true;
    }
    return false;
  });
}

TEST(Metamorphic, CostScalingEquivariance) {
  constexpr double kScale = 4.0;  // power of two: scaling is FP-exact
  check_relation("cost-scaling equivariance", 0x05, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();
    channel::RadioParams scaled = radio;
    scaled.noise_density *= kScale;

    const auto a = brute_force_opt(t, radio, 0, kHorizon);
    const auto b = brute_force_opt(t, scaled, 0, kHorizon);
    if (a.has_value() != b.has_value()) return true;
    if (a && !close(*a * kScale, *b)) return true;

    // The solver must make identical decisions (every comparison scales
    // uniformly), so the schedules match transmission-for-transmission with
    // costs exactly ×kScale.
    const core::Tveg tveg1(t, radio, {.model = channel::ChannelModel::kStep});
    const core::Tveg tveg2(t, scaled,
                           {.model = channel::ChannelModel::kStep});
    const auto r1 = core::run_eedcb(core::TmedbInstance{&tveg1, 0, kHorizon},
                                    core::EedcbOptions{});
    const auto r2 = core::run_eedcb(core::TmedbInstance{&tveg2, 0, kHorizon},
                                    core::EedcbOptions{});
    if (r1.covered_all != r2.covered_all) return true;
    const auto& s1 = r1.schedule.transmissions();
    const auto& s2 = r2.schedule.transmissions();
    if (s1.size() != s2.size()) return true;
    for (std::size_t i = 0; i < s1.size(); ++i) {
      if (s1[i].relay != s2[i].relay || s1[i].time != s2[i].time) return true;
      if (!close(s1[i].cost * kScale, s2[i].cost)) return true;
    }
    return false;
  });
}

TEST(Metamorphic, EdgeAdditionNeverIncreasesOptimalCost) {
  check_relation("edge-addition monotonicity", 0x06, [](const trace::ContactTrace& t) {
    const channel::RadioParams radio = unit_radio();
    const auto denser = add_one_edge(t);
    if (!denser) return false;  // already complete
    const auto before = brute_force_opt(t, radio, 0, kHorizon);
    if (!before) return false;
    const auto after = brute_force_opt(*denser, radio, 0, kHorizon);
    // Extra contacts only add options: the optimum cannot get worse.
    return !after || *after > *before * (1.0 + kRelTol);
  });
}

TEST(Metamorphic, EveryRobustLadderRungCertifies) {
  int rung_index = 0;
  check_relation("robust-ladder schedules certify", 0x07, [&rung_index](const trace::ContactTrace& t) {
    const fault::SolverRung rung =
        std::array{fault::SolverRung::kEedcb, fault::SolverRung::kBip,
                   fault::SolverRung::kGreed}[static_cast<std::size_t>(
            rung_index++ % 3)];
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, kHorizon};
    fault::RobustSolveOptions opt;
    opt.start = rung;
    const auto outcome = fault::robust_solve(instance, tveg.build_dts(), opt);
    if (!outcome.result.covered_all) return false;
    return !certify::verify(
                t, to_certify(outcome.result.schedule),
                certify_options(instance, channel::ChannelModel::kStep))
                .feasible;
  });
}

TEST(Metamorphic, DtsIsInvariantUnderContactPermutation) {
  // The DTS is a function of the contact *set*: neither the order contacts
  // arrive in nor which endpoint a contact names first may move a point.
  check_relation("DTS contact-permutation invariance", 0x08, [](const trace::ContactTrace& t) {
    std::vector<trace::Contact> contacts = t.contacts();
    support::Rng rng(t.contact_count());
    rng.shuffle(contacts);
    trace::ContactTrace permuted(t.node_count(), t.horizon());
    for (const trace::Contact& c : contacts)
      permuted.add({c.b, c.a, c.start, c.end, c.distance});

    for (const Time tau : {0.0, 1.0}) {
      const core::Tveg::Options options{.model = channel::ChannelModel::kStep,
                                        .tau = tau};
      const DiscreteTimeSet a = core::Tveg(t, unit_radio(), options).build_dts();
      const DiscreteTimeSet b =
          core::Tveg(permuted, unit_radio(), options).build_dts();
      if (a.truncated() != b.truncated()) return true;
      for (NodeId v = 0; v < t.node_count(); ++v)
        if (a.points(v) != b.points(v)) return true;
    }
    return false;
  }, /*nodes_lo=*/5, /*nodes_hi=*/10);
}

}  // namespace
}  // namespace tveg::prop
