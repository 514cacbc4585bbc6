//===- tests/SaturationTests.cpp - rebuild modes, scheduling, parallelism -===//
//
// Contract tests for the saturation scaling machinery (deferred rebuilding,
// rule scheduling, parallel matching):
//
//  * eager and deferred rebuilding close every graph identically — same
//    class partition over the seed roots, same node/class counts, same
//    egg-style extraction cost (the graphs differ only in class numbering,
//    so extracted *terms* may pick different equal-cost representatives);
//  * the parallel match loop is bit-identical to the sequential one for
//    any thread count, statistics and extracted terms included
//    (saturation_tests_tsan rebuilds this binary under ThreadSanitizer and
//    reruns exactly these tests to gate the loop's data-race freedom);
//  * match budgets overflow, sit a round out, double, and still reach the
//    unbudgeted closure; phased rule sets advance and reach the unphased
//    closure; the queued-instance set dedups substitutions re-found within
//    a round;
//  * rebuild's congruence cascade is worklist-driven, so pathologically
//    deep parent chains cannot overflow the stack in either mode;
//  * semi-naive matching misses nothing: a fresh Matcher's first round is
//    a full scan, and over a graph the semi-naive matcher saturated to
//    quiescence it must not change the graph. The paper's programs also
//    pin their closures (sizes, instance counts, extraction costs) to the
//    values the full-rescan matcher produced.
//
// Equivalence runs are rounds-bounded with non-binding node/instance caps:
// a binding cap stops the modes at different frontiers (the deferred arm's
// end-of-round rebuild shrinks the live count back under the cap where the
// eager arm breaks mid-batch), which compares different total work — see
// bench_egraph_scale.cpp for the same regime at stress scale.
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "sexpr/Parser.h"
#include "verify/EGraphInvariants.h"
#include "verify/GmaGen.h"

// The TSan copy of this binary (saturation_tests_tsan) compiles only the
// match/egraph closure, not the baseline extractor and its ISA dependency;
// it defines DENALI_SATURATION_NO_EXTRACT to drop the extraction cross-
// checks (the race-freedom property under test does not involve them).
#ifndef DENALI_SATURATION_NO_EXTRACT
#include "alpha/ISA.h"
#include "baseline/EGraphExtract.h"
#include "driver/Superoptimizer.h"
#include "support/StringExtras.h"

#include <fstream>
#include <sstream>
#endif

#include <gtest/gtest.h>

using namespace denali;
using denali::egraph::ClassId;
using denali::ir::Builtin;

namespace {

/// The Figure 3/4 byteswap store chain — the densest clause generator
/// among the builtin axioms (select-over-store case splits).
ir::TermId swapChain(ir::Context &Ctx, unsigned N) {
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId R = Ctx.Terms.makeConst(0);
  for (unsigned I = 0; I < N; ++I)
    R = Ctx.Terms.makeBuiltin(
        Builtin::StoreB,
        {R, Ctx.Terms.makeConst(I),
         Ctx.Terms.makeBuiltin(Builtin::SelectB,
                               {A, Ctx.Terms.makeConst(N - 1 - I)})});
  return R;
}

/// A small GmaGen corpus plus a byteswap chain, loaded into one graph —
/// the bench_egraph_scale stress mix at unit-test scale.
std::vector<ir::TermId> stressSeeds(ir::Context &Ctx, unsigned Seed) {
  verify::GmaGenOptions GO;
  GO.MaxTargets = 2;
  GO.MaxDepth = 3;
  verify::GmaGen Gen(Ctx, Seed, GO);
  std::vector<ir::TermId> Seeds;
  for (unsigned I = 0; I < 2; ++I) {
    gma::GMA G = Gen.next();
    for (ir::TermId V : G.NewVals)
      Seeds.push_back(V);
    if (G.Guard)
      Seeds.push_back(*G.Guard);
  }
  Seeds.push_back(swapChain(Ctx, 3));
  return Seeds;
}

/// The paper's Figure 2 goal, reg6*4 + 1: small, and its builtin closure
/// quiesces under the default limits (SaturationTest.Figure2Alternatives),
/// which the budget/phase convergence tests need.
std::vector<ir::TermId> figure2Seeds(ir::Context &Ctx) {
  ir::TermId Mul = Ctx.Terms.makeBuiltin(
      Builtin::Mul64, {Ctx.Terms.makeVar("reg6"), Ctx.Terms.makeConst(4)});
  return {Ctx.Terms.makeBuiltin(Builtin::Add64,
                                {Mul, Ctx.Terms.makeConst(1)})};
}

/// Rounds-bounded limits with non-binding size caps (see file header).
match::MatchLimits roundsBounded(unsigned Rounds) {
  match::MatchLimits L;
  L.MaxRounds = Rounds;
  L.MaxNodes = 1u << 20;
  L.MaxInstancesPerRound = 1u << 20;
  return L;
}

/// One saturation arm: stats, the partition of the seed roots (index of
/// the first equal earlier root), invariants, and the extraction result
/// per root.
struct SatRun {
  match::MatchStats Stats;
  std::vector<unsigned> Partition;
  bool Inconsistent = false;
  bool InvariantsOk = false;
  std::string InvariantsMsg;
#ifndef DENALI_SATURATION_NO_EXTRACT
  std::vector<long long> ExtractCosts; ///< -1 = no machine-op term.
  std::vector<ir::TermId> ExtractTerms;
#endif
};

/// Runs a fresh Matcher — whose first round is a full scan — over \p G,
/// which a semi-naive run saturated to quiescence: if that run missed a
/// match, the full scan finds it and the graph changes.
void expectFullScanIsFixpoint(egraph::EGraph &G,
                              const std::vector<match::Axiom> &Axioms,
                              const match::MatchLimits &Limits) {
  const uint64_t Before = G.version();
  match::Matcher Fresh(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    Fresh.addElaborator(std::move(E));
  match::MatchStats S = Fresh.saturate(G, Limits);
  EXPECT_EQ(G.version(), Before);
  EXPECT_EQ(S.InstancesAsserted, 0u);
  EXPECT_EQ(S.RootsPruned, 0u); // Nothing is old to a fresh matcher.
  EXPECT_GT(S.MatchesFound, 0u);
  EXPECT_TRUE(S.Quiesced);
}

SatRun runSat(ir::Context &Ctx, const std::vector<ir::TermId> &Seeds,
              const match::MatchLimits &Limits,
              bool CheckFixpoint = false) {
  egraph::EGraph G(Ctx);
  std::vector<ClassId> Roots;
  Roots.reserve(Seeds.size());
  for (ir::TermId T : Seeds)
    Roots.push_back(G.addTerm(T));
  match::Matcher M(axioms::loadBuiltinAxioms(Ctx));
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));

  SatRun R;
  R.Stats = M.saturate(G, Limits);
  R.Inconsistent = G.isInconsistent();
  if (CheckFixpoint) {
    EXPECT_TRUE(R.Stats.Quiesced);
    if (R.Stats.Quiesced)
      expectFullScanIsFixpoint(G, M.axioms(), Limits);
  }
  R.Partition.assign(Roots.size(), 0);
  for (size_t I = 0; I < Roots.size(); ++I) {
    R.Partition[I] = static_cast<unsigned>(I);
    for (size_t J = 0; J < I; ++J)
      if (G.sameClass(Roots[I], Roots[J])) {
        R.Partition[I] = static_cast<unsigned>(J);
        break;
      }
  }
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  R.InvariantsOk = Rep.Ok;
  R.InvariantsMsg = Rep.toString();
#ifndef DENALI_SATURATION_NO_EXTRACT
  alpha::ISA Isa(Ctx);
  for (ClassId Root : Roots) {
    std::optional<baseline::ExtractResult> Ex =
        baseline::extractBestTerm(G, Isa, Root);
    R.ExtractCosts.push_back(Ex ? static_cast<long long>(Ex->Cost) : -1);
    R.ExtractTerms.push_back(Ex ? Ex->Term : 0);
  }
#endif
  return R;
}

/// Every field of MatchStats — the parallel arm's bit-identical contract.
void expectStatsIdentical(const match::MatchStats &A,
                          const match::MatchStats &B) {
  EXPECT_EQ(A.Rounds, B.Rounds);
  EXPECT_EQ(A.MatchesFound, B.MatchesFound);
  EXPECT_EQ(A.InstancesDeduped, B.InstancesDeduped);
  EXPECT_EQ(A.InstancesAsserted, B.InstancesAsserted);
  EXPECT_EQ(A.FinalNodes, B.FinalNodes);
  EXPECT_EQ(A.FinalClasses, B.FinalClasses);
  EXPECT_EQ(A.Quiesced, B.Quiesced);
  EXPECT_EQ(A.BudgetOverflows, B.BudgetOverflows);
  EXPECT_EQ(A.BudgetSkips, B.BudgetSkips);
  EXPECT_EQ(A.SeenHits, B.SeenHits);
  EXPECT_EQ(A.RootsPruned, B.RootsPruned);
  EXPECT_EQ(A.PhaseAdvances, B.PhaseAdvances);
  EXPECT_EQ(A.Merges, B.Merges);
  EXPECT_EQ(A.CongruenceMerges, B.CongruenceMerges);
  EXPECT_EQ(A.ConstantFolds, B.ConstantFolds);
  EXPECT_EQ(A.Rebuilds, B.Rebuilds);
  EXPECT_EQ(A.AdaptiveSeeded, B.AdaptiveSeeded);
  EXPECT_EQ(A.AdaptiveDemoted, B.AdaptiveDemoted);
  // Per-axiom attribution: every field except the wall-time *Ns pair is
  // deterministic and thread-count-independent.
  ASSERT_EQ(A.PerAxiom.size(), B.PerAxiom.size());
  for (size_t I = 0; I < A.PerAxiom.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(A.PerAxiom[I].Raw, B.PerAxiom[I].Raw);
    EXPECT_EQ(A.PerAxiom[I].Instances, B.PerAxiom[I].Instances);
    EXPECT_EQ(A.PerAxiom[I].Merges, B.PerAxiom[I].Merges);
    EXPECT_EQ(A.PerAxiom[I].Overflows, B.PerAxiom[I].Overflows);
    EXPECT_EQ(A.PerAxiom[I].Skips, B.PerAxiom[I].Skips);
    EXPECT_EQ(A.PerAxiom[I].FirstRound, B.PerAxiom[I].FirstRound);
    EXPECT_EQ(A.PerAxiom[I].LastRound, B.PerAxiom[I].LastRound);
  }
}

//===----------------------------------------------------------------------===
// Eager vs deferred rebuilding: same closure.
//===----------------------------------------------------------------------===

class EagerDeferredEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EagerDeferredEquivalence, SameClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = stressSeeds(Ctx, GetParam());

  match::MatchLimits Deferred = roundsBounded(3);
  match::MatchLimits Eager = Deferred;
  Eager.EagerRebuild = true;

  SatRun D = runSat(Ctx, Seeds, Deferred);
  SatRun E = runSat(Ctx, Seeds, Eager);
  ASSERT_FALSE(D.Inconsistent);
  ASSERT_FALSE(E.Inconsistent);
  EXPECT_TRUE(D.InvariantsOk) << D.InvariantsMsg;
  EXPECT_TRUE(E.InvariantsOk) << E.InvariantsMsg;

  EXPECT_EQ(E.Partition, D.Partition);
  EXPECT_EQ(E.Stats.FinalNodes, D.Stats.FinalNodes);
  EXPECT_EQ(E.Stats.FinalClasses, D.Stats.FinalClasses);
  EXPECT_EQ(E.Stats.MatchesFound, D.Stats.MatchesFound);
#ifndef DENALI_SATURATION_NO_EXTRACT
  // The closures are equal mod class renaming, so extraction must find
  // the same best cost per root (ties may break to different terms).
  EXPECT_EQ(E.ExtractCosts, D.ExtractCosts);
#endif
  // Deferred batches the per-assert repair cascades into one rebuild per
  // round, so it must run strictly fewer rebuild passes.
  EXPECT_LT(D.Stats.Rebuilds, E.Stats.Rebuilds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerDeferredEquivalence,
                         ::testing::Range(0u, 6u));

//===----------------------------------------------------------------------===
// Parallel matching: bit-identical to sequential for any thread count.
//===----------------------------------------------------------------------===

class ParallelDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelDeterminism, BitIdenticalToSequential) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = stressSeeds(Ctx, GetParam() + 50);

  match::MatchLimits Seq = roundsBounded(3);
  SatRun S = runSat(Ctx, Seeds, Seq);
  ASSERT_FALSE(S.Inconsistent);
  EXPECT_TRUE(S.InvariantsOk) << S.InvariantsMsg;

  for (unsigned Threads : {2u, 4u}) {
    match::MatchLimits Par = Seq;
    Par.Threads = Threads;
    SatRun P = runSat(Ctx, Seeds, Par);
    SCOPED_TRACE(Threads);
    ASSERT_FALSE(P.Inconsistent);
    EXPECT_TRUE(P.InvariantsOk) << P.InvariantsMsg;
    expectStatsIdentical(S.Stats, P.Stats);
    EXPECT_EQ(S.Partition, P.Partition);
#ifndef DENALI_SATURATION_NO_EXTRACT
    // Bit-identical graphs: even extraction tie-breaks must agree.
    EXPECT_EQ(S.ExtractTerms, P.ExtractTerms);
    EXPECT_EQ(S.ExtractCosts, P.ExtractCosts);
#endif
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, ::testing::Range(0u, 4u));

//===----------------------------------------------------------------------===
// Rule scheduling: budgets, phases, the queued-instance set.
//===----------------------------------------------------------------------===

TEST(SaturationSchedule, BudgetBackoffReachesUnbudgetedClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);

  SatRun Plain = runSat(Ctx, Seeds, match::MatchLimits());
  ASSERT_TRUE(Plain.Stats.Quiesced);
  EXPECT_EQ(Plain.Stats.BudgetOverflows, 0u);
  EXPECT_EQ(Plain.Stats.BudgetSkips, 0u);

  // A budget of 1 raw match per axiom-round truncates immediately;
  // backoff doubles it until every axiom fits, after which the run must
  // still quiesce — to the same closure, just over more rounds.
  match::MatchLimits Budgeted;
  Budgeted.MatchBudget = 1;
  Budgeted.MaxRounds = 200;
  SatRun B = runSat(Ctx, Seeds, Budgeted);
  EXPECT_TRUE(B.Stats.Quiesced);
  EXPECT_GT(B.Stats.BudgetOverflows, 0u);
  EXPECT_GT(B.Stats.BudgetSkips, 0u);
  EXPECT_GT(B.Stats.Rounds, Plain.Stats.Rounds);
  EXPECT_EQ(B.Stats.FinalNodes, Plain.Stats.FinalNodes);
  EXPECT_EQ(B.Stats.FinalClasses, Plain.Stats.FinalClasses);
  EXPECT_TRUE(B.InvariantsOk) << B.InvariantsMsg;
#ifndef DENALI_SATURATION_NO_EXTRACT
  EXPECT_EQ(B.ExtractCosts, Plain.ExtractCosts);
#endif
}

TEST(SaturationSchedule, TruncatedAxiomRefindsDroppedMatches) {
  // Budget 1 lets round 1 assert only f(a) = g(a). The dropped f(b) match
  // binds nodes that never change again, so semi-naive matching finds it
  // later only because a truncated axiom's epoch stays behind.
  ir::Context Ctx;
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ir::OpId Gop = Ctx.Ops.declareOp("g", 1);
  sexpr::ParseResult P = sexpr::parseOne(
      R"((\axiom (forall (x) (pats (f x)) (eq (f x) (g x)))))");
  ASSERT_TRUE(P.ok());
  std::string Err;
  std::optional<match::Axiom> A = match::parseAxiom(Ctx, P.Forms[0], &Err);
  ASSERT_TRUE(A.has_value()) << Err;

  egraph::EGraph G(Ctx);
  ClassId B = G.addNode(Ctx.Ops.makeVariable("b"), {});
  G.addNode(F, {G.addNode(Ctx.Ops.makeVariable("a"), {})});
  ClassId FB = G.addNode(F, {B});
  match::Matcher M({*A});
  match::MatchLimits Budgeted;
  Budgeted.MatchBudget = 1;
  match::MatchStats S = M.saturate(G, Budgeted);
  EXPECT_GT(S.BudgetOverflows, 0u);
  EXPECT_TRUE(S.Quiesced);
  EXPECT_EQ(S.InstancesAsserted, 2u);
  EXPECT_TRUE(G.sameClass(FB, G.addNode(Gop, {B})));

  // The node cap cuts instantiation short the same way: the instances it
  // cut off come back in a later saturate() of this matcher.
  ClassId C = G.addNode(Ctx.Ops.makeVariable("c"), {});
  ClassId D = G.addNode(Ctx.Ops.makeVariable("d"), {});
  ClassId FC = G.addNode(F, {C});
  ClassId FD = G.addNode(F, {D});
  match::MatchLimits Capped;
  Capped.MaxNodes = G.numNodes() + 1; // Room for one g node.
  S = M.saturate(G, Capped);
  EXPECT_EQ(S.InstancesAsserted, 1u);
  EXPECT_FALSE(S.Quiesced);
  S = M.saturate(G, match::MatchLimits());
  EXPECT_EQ(S.InstancesAsserted, 1u);
  EXPECT_TRUE(S.Quiesced);
  EXPECT_TRUE(G.sameClass(FC, G.addNode(Gop, {C})));
  EXPECT_TRUE(G.sameClass(FD, G.addNode(Gop, {D})));
}

TEST(SaturationSchedule, PhasedReachesUnphasedClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);

  SatRun Plain = runSat(Ctx, Seeds, match::MatchLimits());
  ASSERT_TRUE(Plain.Stats.Quiesced);
  EXPECT_EQ(Plain.Stats.PhaseAdvances, 0u);

  // Phase 0 (cheap simplifications) must quiesce, the phase widen at
  // least once (the k*x decompositions are phase 1), and the final
  // closure match the unphased run.
  match::MatchLimits Phased;
  Phased.Phased = true;
  Phased.MaxRounds = 64;
  SatRun P = runSat(Ctx, Seeds, Phased);
  EXPECT_TRUE(P.Stats.Quiesced);
  EXPECT_GE(P.Stats.PhaseAdvances, 1u);
  EXPECT_EQ(P.Stats.FinalNodes, Plain.Stats.FinalNodes);
  EXPECT_EQ(P.Stats.FinalClasses, Plain.Stats.FinalClasses);
  EXPECT_TRUE(P.InvariantsOk) << P.InvariantsMsg;
#ifndef DENALI_SATURATION_NO_EXTRACT
  EXPECT_EQ(P.ExtractCosts, Plain.ExtractCosts);
#endif
}

TEST(SaturationSchedule, AxiomPhaseSplitsBuiltinRuleSet) {
  ir::Context Ctx;
  unsigned Cheap = 0, Expansive = 0;
  for (const match::Axiom &A : axioms::loadBuiltinAxioms(Ctx))
    (match::Matcher::axiomPhase(A) == 0 ? Cheap : Expansive) += 1;
  // Phasing is pointless unless the builtin set actually splits.
  EXPECT_GT(Cheap, 0u);
  EXPECT_GT(Expansive, 0u);

  auto phaseOf = [&](const std::string &Text) {
    sexpr::ParseResult R = sexpr::parseOne(Text);
    EXPECT_TRUE(R.ok());
    std::string Err;
    std::optional<match::Axiom> A = match::parseAxiom(Ctx, R.Forms[0], &Err);
    EXPECT_TRUE(A.has_value()) << Err;
    return match::Matcher::axiomPhase(*A);
  };
  // Same-size rewrites are cheap; a side >= 2 applications larger is
  // expansive (the k*x -> shifts/adds shape).
  EXPECT_EQ(phaseOf(R"((\axiom (forall (x y)
                         (eq (\add64 x y) (\add64 y x)))))"),
            0u);
  EXPECT_EQ(phaseOf(R"((\axiom (forall (x)
                         (eq x (\add64 (\shl64 x 1) (\neg64 x))))))"),
            1u);
}

TEST(SaturationSchedule, PersistentSeenDedupsRefoundSubstitutions) {
  // Commutative axioms re-find each substitution through both triggers,
  // so the queued-instance set must catch duplicates within a round;
  // every hit is also counted in the deduped total.
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = stressSeeds(Ctx, 7);
  SatRun R = runSat(Ctx, Seeds, roundsBounded(3));
  EXPECT_GT(R.Stats.SeenHits, 0u);
  EXPECT_GE(R.Stats.InstancesDeduped, R.Stats.SeenHits);
}

//===----------------------------------------------------------------------===
// Semi-naive matching: nothing missed.
//===----------------------------------------------------------------------===

class SemiNaiveFixpoint : public ::testing::TestWithParam<unsigned> {};

TEST_P(SemiNaiveFixpoint, FullScanOfQuiescentGraphChangesNothing) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = stressSeeds(Ctx, GetParam());
  SatRun R = runSat(Ctx, Seeds, match::MatchLimits(), /*CheckFixpoint=*/true);
  ASSERT_FALSE(R.Inconsistent);
  // Later rounds really were semi-naive, or this test proves nothing.
  EXPECT_GT(R.Stats.RootsPruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveFixpoint, ::testing::Range(0u, 6u));

TEST(SemiNaive, RootSeesChangeTwoLevelsDown) {
  // f(g(y)) matches (f (g (h x))) only once h(a) joins y's class. The
  // merge stamps h(a) alone — two levels below the root, whose own node
  // and child stay unstamped — so only the per-class change summary
  // keeps the root from being pruned.
  ir::Context Ctx;
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ir::OpId Gop = Ctx.Ops.declareOp("g", 1);
  ir::OpId H = Ctx.Ops.declareOp("h", 1);
  ir::OpId K = Ctx.Ops.declareOp("k", 1);
  sexpr::ParseResult P = sexpr::parseOne(
      R"((\axiom (forall (x) (pats (f (g (h x)))) (eq (f (g (h x))) (k x)))))");
  ASSERT_TRUE(P.ok());
  std::string Err;
  std::optional<match::Axiom> A = match::parseAxiom(Ctx, P.Forms[0], &Err);
  ASSERT_TRUE(A.has_value()) << Err;

  egraph::EGraph G(Ctx);
  ClassId Y = G.addNode(Ctx.Ops.makeVariable("y"), {});
  G.assertEqual(Y, G.addNode(Ctx.Ops.makeVariable("z"), {}));
  ClassId FGY = G.addNode(F, {G.addNode(Gop, {Y})});
  ClassId Av = G.addNode(Ctx.Ops.makeVariable("a"), {});
  ClassId HA = G.addNode(H, {Av});
  match::Matcher M({*A});
  match::MatchStats S = M.saturate(G);
  EXPECT_EQ(S.MatchesFound, 0u);

  G.assertEqual(Y, HA); // {y, z} outweighs {h(a)}: h(a) is what moves.
  S = M.saturate(G);
  EXPECT_EQ(S.InstancesAsserted, 1u);
  EXPECT_TRUE(G.sameClass(FGY, G.addNode(K, {Av})));
}

#ifndef DENALI_SATURATION_NO_EXTRACT

/// Figure 3's byteswap for \p N bytes, in the syntax of
/// examples/programs/byteswap4.dnl.
std::string byteswapSource(unsigned N) {
  std::string Src = strFormat("(\\procdecl byteswap%u ((a long)) long\n"
                              "  (\\var (r long 0)\n  (\\semi\n",
                              N);
  for (unsigned I = 0; I < N; ++I)
    Src += strFormat("    (:= (r (\\storeb r %u (\\selectb a %u))))\n", I,
                     N - 1 - I);
  return Src + "    (:= (\\res r)))))";
}

std::string programSource(const std::string &Name) {
  if (Name == "byteswap5")
    return byteswapSource(5);
  std::ifstream In(std::string(DENALI_PROGRAMS_DIR) + "/" + Name + ".dnl");
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// One GMA's closure under the default pipeline options.
struct ClosurePin {
  const char *Gma;
  size_t Nodes, Classes;
  uint64_t Asserted;
  std::vector<long long> Costs; ///< Best extraction cost per goal.
};

/// Captured from the full-rescan matcher that preceded semi-naive
/// matching (same options, same axioms): the closure may not move.
const std::vector<ClosurePin> &closurePins(const std::string &Program) {
  static const std::vector<ClosurePin> Byteswap4 = {
      {"byteswap4.0", 2209, 136, 2392, {9, 9}}};
  static const std::vector<ClosurePin> Byteswap5 = {
      {"byteswap5.0", 5110, 302, 6252, {12, 12}}};
  static const std::vector<ClosurePin> Checksum = {
      {"checksum.0", 16, 13, 3, {4, 4, 4, 3, 0, 0, 0, 0}},
      {"checksum.1", 127, 50, 97, {4, 4, 4, 4, 4, 4, 1, 4, 4}},
      {"checksum.2", 1463, 118, 1437, {54, 5, 53, 2, 1, 2, 1}}};
  if (Program == "byteswap4")
    return Byteswap4;
  if (Program == "byteswap5")
    return Byteswap5;
  return Checksum;
}

class ProgramClosure : public ::testing::TestWithParam<const char *> {};

TEST_P(ProgramClosure, PinnedAndFullScanIsFixpoint) {
  driver::Superoptimizer Opt;
  driver::CompileResult R = Opt.compileSource(programSource(GetParam()));
  ASSERT_TRUE(R.ok()) << R.Error;
  const std::vector<ClosurePin> &Pins = closurePins(GetParam());
  ASSERT_EQ(R.Gmas.size(), Pins.size());
  for (size_t I = 0; I < Pins.size(); ++I) {
    const ClosurePin &Pin = Pins[I];
    SCOPED_TRACE(Pin.Gma);
    EXPECT_EQ(R.Gmas[I].Gma.Name, Pin.Gma);
    driver::SaturatedGma S = Opt.saturateGMA(R.Gmas[I].Gma);
    ASSERT_TRUE(S.ok()) << S.Error;
    ASSERT_TRUE(S.Matching.Quiesced);
    EXPECT_EQ(S.Matching.FinalNodes, Pin.Nodes);
    EXPECT_EQ(S.Matching.FinalClasses, Pin.Classes);
    EXPECT_EQ(S.Matching.InstancesAsserted, Pin.Asserted);
    std::vector<long long> Costs;
    for (const codegen::NamedGoal &Goal : S.Goals) {
      std::optional<baseline::ExtractResult> Ex =
          baseline::extractBestTerm(*S.Graph, Opt.isa(), Goal.Class);
      Costs.push_back(Ex ? static_cast<long long>(Ex->Cost) : -1);
    }
    EXPECT_EQ(Costs, Pin.Costs);
    egraph::EGraph G(*S.Graph);
    expectFullScanIsFixpoint(G, Opt.axioms(), Opt.options().Matching);
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, ProgramClosure,
                         ::testing::Values("byteswap4", "byteswap5",
                                           "checksum"));

#endif // DENALI_SATURATION_NO_EXTRACT

//===----------------------------------------------------------------------===
// Worklist-driven rebuild: deep congruence cascades cannot recurse.
//===----------------------------------------------------------------------===

TEST(SaturationStress, DeepCongruenceChainEager) {
  // f^N(x) / f^N(y) with x = y forces an N-step upward congruence
  // cascade; repair is worklist-driven, so this must not grow the call
  // stack with N (a recursive repair would overflow around ~1e4).
  constexpr unsigned Depth = 50000;
  ir::Context Ctx;
  egraph::EGraph G(Ctx);
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ClassId X = G.addNode(Ctx.Ops.makeVariable("x"), {});
  ClassId Y = G.addNode(Ctx.Ops.makeVariable("y"), {});
  ClassId CX = X, CY = Y;
  for (unsigned I = 0; I < Depth; ++I) {
    CX = G.addNode(F, {CX});
    CY = G.addNode(F, {CY});
  }
  G.assertEqual(X, Y); // Eager: the full cascade runs here.
  EXPECT_TRUE(G.sameClass(CX, CY));
  EXPECT_GE(G.rebuildStats().CongruenceMerges, static_cast<uint64_t>(Depth));
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  EXPECT_TRUE(Rep.Ok) << Rep.toString();
}

TEST(SaturationStress, DeepCongruenceChainDeferred) {
  constexpr unsigned Depth = 50000;
  ir::Context Ctx;
  egraph::EGraph G(Ctx);
  G.setRebuildMode(egraph::RebuildMode::Deferred);
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ClassId X = G.addNode(Ctx.Ops.makeVariable("x"), {});
  ClassId Y = G.addNode(Ctx.Ops.makeVariable("y"), {});
  ClassId CX = X, CY = Y;
  for (unsigned I = 0; I < Depth; ++I) {
    CX = G.addNode(F, {CX});
    CY = G.addNode(F, {CY});
  }
  G.assertEqual(X, Y);
  EXPECT_FALSE(G.sameClass(CX, CY)); // Congruence lags until rebuild().
  EXPECT_TRUE(G.rebuildPending());
  G.rebuild();
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(CX, CY));
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  EXPECT_TRUE(Rep.Ok) << Rep.toString();
}

} // namespace
