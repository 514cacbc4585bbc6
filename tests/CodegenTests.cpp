//===- tests/CodegenTests.cpp - encoder/extractor/search tests ------------===//

#include "alpha/Simulator.h"
#include "axioms/BuiltinAxioms.h"
#include "codegen/Search.h"
#include "driver/Superoptimizer.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "verify/GmaGen.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <random>
#include <sstream>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

/// Shared fixture: e-graph + ISA + builtin-axiom matcher.
class PipelineTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  EGraph G{Ctx};
  alpha::ISA Isa{Ctx};

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &Name) {
    return G.addNode(Ctx.Ops.makeVariable(Name), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }

  void saturate(size_t MaxNodes = 30000) {
    match::Matcher M(axioms::loadBuiltinAxioms(Ctx));
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    match::MatchLimits Limits;
    Limits.MaxNodes = MaxNodes;
    M.saturate(G, Limits);
    ASSERT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  }

  SearchResult superoptimize(const std::vector<NamedGoal> &Goals,
                             SearchOptions Opts = SearchOptions()) {
    Universe U;
    std::string Err;
    std::vector<ClassId> GoalClasses;
    for (const NamedGoal &NG : Goals)
      GoalClasses.push_back(NG.Class);
    if (Opts.Encoding.GuardClass)
      GoalClasses.push_back(*Opts.Encoding.GuardClass);
    EXPECT_TRUE(U.build(G, Isa, GoalClasses, UniverseOptions(), &Err)) << Err;
    return searchBudgets(G, Isa, U, Goals, Opts, "test");
  }

  /// Validates timing and functional equivalence against expected values.
  void checkProgram(
      const SearchResult &R,
      const std::unordered_map<std::string, ir::Value> &Inputs,
      const std::unordered_map<std::string, ir::Value> &Expected) {
    ASSERT_TRUE(R.Found) << R.Error;
    alpha::TimingReport TR = alpha::validateTiming(Isa, R.Program);
    EXPECT_TRUE(TR.Ok) << TR.Error << "\n" << R.Program.toString();
    alpha::RunResult Run = alpha::runProgram(Ctx, R.Program, Inputs);
    ASSERT_TRUE(Run.Ok) << Run.Error << "\n" << R.Program.toString();
    for (const auto &[Name, Want] : Expected) {
      auto It = Run.Outputs.find(Name);
      ASSERT_NE(It, Run.Outputs.end()) << "missing output " << Name;
      EXPECT_TRUE(It->second.equals(Want))
          << Name << ": got " << It->second.toString() << " want "
          << Want.toString() << "\n"
          << R.Program.toString();
    }
  }
};

TEST_F(PipelineTest, Figure2SingleInstruction) {
  // reg6*4 + 1 must compile to one s4addq and one cycle.
  ClassId Goal = app(Builtin::Add64, {app(Builtin::Mul64, {v("reg6"), c(4)}),
                                      c(1)});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 1u);
  ASSERT_EQ(R.Program.Instrs.size(), 1u);
  EXPECT_EQ(R.Program.Instrs[0].Mnemonic, "s4addq");
  checkProgram(R, {{"reg6", ir::Value::makeInt(11)}},
               {{"res", ir::Value::makeInt(45)}});
}

TEST_F(PipelineTest, WithoutScaledAddTwoCycles) {
  // x*8 has a 1-cycle shift; x*8+y+1 needs more work; just check the
  // schedule is validated optimal-by-probes and correct.
  ClassId Goal = app(
      Builtin::Add64,
      {app(Builtin::Add64, {app(Builtin::Mul64, {v("x"), c(16)}), v("y")}),
       c(1)});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_LE(R.Cycles, 3u);
  EXPECT_TRUE(R.LowerBoundProved);
  uint64_t X = 0x123456, Y = 99;
  checkProgram(R, {{"x", ir::Value::makeInt(X)}, {"y", ir::Value::makeInt(Y)}},
               {{"res", ir::Value::makeInt(X * 16 + Y + 1)}});
}

TEST_F(PipelineTest, ImmediateOperand) {
  // x + 5: one addq with an 8-bit literal, no ldiq.
  ClassId Goal = app(Builtin::Add64, {v("x"), c(5)});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 1u);
  checkProgram(R, {{"x", ir::Value::makeInt(7)}},
               {{"res", ir::Value::makeInt(12)}});
}

TEST_F(PipelineTest, LargeConstantNeedsMaterialization) {
  // x + 100000: the constant exceeds the 8-bit literal range, so a ldiq
  // must precede the add: two cycles.
  ClassId Goal = app(Builtin::Add64, {v("x"), c(100000)});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 2u);
  EXPECT_TRUE(R.LowerBoundProved);
  checkProgram(R, {{"x", ir::Value::makeInt(1)}},
               {{"res", ir::Value::makeInt(100001)}});
}

TEST_F(PipelineTest, FreeGoalZeroCycles) {
  ClassId Goal = v("x");
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 0u);
  EXPECT_TRUE(R.Program.Instrs.empty());
  checkProgram(R, {{"x", ir::Value::makeInt(77)}},
               {{"res", ir::Value::makeInt(77)}});
}

TEST_F(PipelineTest, MultiplyLatency) {
  // x*y (no shift alternative): mulq has latency 7, so 7 cycles.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 7u);
  checkProgram(R, {{"x", ir::Value::makeInt(6)}, {"y", ir::Value::makeInt(7)}},
               {{"res", ir::Value::makeInt(42)}});
}

TEST_F(PipelineTest, ShiftBeatsMultiply) {
  // x*16: the matcher's 16 = 2**4 fact turns a 7-cycle multiply into a
  // 1-cycle shift.
  ClassId Goal = app(Builtin::Mul64, {v("x"), c(16)});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 1u);
  ASSERT_EQ(R.Program.Instrs.size(), 1u);
  EXPECT_EQ(R.Program.Instrs[0].Mnemonic, "sll");
}

TEST_F(PipelineTest, LoadSimple) {
  ClassId Goal = app(Builtin::Select, {v("M"), v("p")});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 3u); // ldq hit latency.
  ir::Value Mem = ir::Value::makeArray(5).store(200, 4242);
  checkProgram(R,
               {{"M", Mem}, {"p", ir::Value::makeInt(200)}},
               {{"res", ir::Value::makeInt(4242)}});
}

TEST_F(PipelineTest, LoadWithDisplacement) {
  // select(M, p+16) folds the offset into the ldq displacement: still 3
  // cycles, no addq.
  ClassId Goal =
      app(Builtin::Select, {v("M"), app(Builtin::Add64, {v("p"), c(16)})});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 3u);
  ASSERT_EQ(R.Program.Instrs.size(), 1u);
  EXPECT_EQ(R.Program.Instrs[0].Disp, 16);
  ir::Value Mem = ir::Value::makeArray(9).store(116, 7);
  checkProgram(R, {{"M", Mem}, {"p", ir::Value::makeInt(100)}},
               {{"res", ir::Value::makeInt(7)}});
}

TEST_F(PipelineTest, StoreSimple) {
  ClassId Goal = app(Builtin::Store, {v("M"), v("p"), v("x")});
  saturate();
  SearchResult R = superoptimize({{"M", Goal, true}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 1u);
  ir::Value Mem = ir::Value::makeArray(3);
  checkProgram(R,
               {{"M", Mem},
                {"p", ir::Value::makeInt(64)},
                {"x", ir::Value::makeInt(123)}},
               {{"M", Mem.store(64, 123)}});
}

TEST_F(PipelineTest, StoreLoadReorderFreedom) {
  // GMA: M := store(M, p, x); r := select(M, p+8). Matching proves the
  // load may read the original memory; both goals complete in the load
  // latency window (no serialization through the store).
  ClassId MVar = v("M");
  ClassId P = v("p");
  ClassId StoreT = app(Builtin::Store, {MVar, P, v("x")});
  ClassId LoadT =
      app(Builtin::Select, {StoreT, app(Builtin::Add64, {P, c(8)})});
  saturate();
  SearchResult R =
      superoptimize({{"M", StoreT, true}, {"r", LoadT, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 3u) << R.Program.toString();
  // Memory discipline: the ldq that reads the *initial* memory must not be
  // scheduled after the stq that overwrites it.
  unsigned StoreCycle = 0;
  bool SawStore = false;
  for (const alpha::Instruction &I : R.Program.Instrs)
    if (I.Mem == alpha::MemKind::Store) {
      StoreCycle = I.Cycle;
      SawStore = true;
    }
  ASSERT_TRUE(SawStore);
  uint32_t InitialMemReg = 0;
  for (const alpha::ProgramInput &In : R.Program.Inputs)
    if (In.IsMemory)
      InitialMemReg = In.Reg;
  for (const alpha::Instruction &I : R.Program.Instrs)
    if (I.Mem == alpha::MemKind::Load && I.Srcs[0].isReg() &&
        I.Srcs[0].Reg == InitialMemReg) {
      EXPECT_LT(I.Cycle, StoreCycle + 1u) << R.Program.toString();
    }
  ir::Value Mem = ir::Value::makeArray(11);
  uint64_t PV = 1000, XV = 55;
  checkProgram(R,
               {{"M", Mem},
                {"p", ir::Value::makeInt(PV)},
                {"x", ir::Value::makeInt(XV)}},
               {{"M", Mem.store(PV, XV)},
                {"r", ir::Value::makeInt(Mem.select(PV + 8))}});
}

TEST_F(PipelineTest, GuardOrdersMemoryOps) {
  // With a guard class, loads may not launch before the guard's compare
  // completes.
  ClassId Guard = app(Builtin::CmpUlt, {v("p"), v("r")});
  ClassId Load = app(Builtin::Select, {v("M"), v("p")});
  saturate();
  SearchOptions Opts;
  Opts.Encoding.GuardClass = Guard;
  SearchResult R = superoptimize({{"res", Load, false}}, Opts);
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 4u); // cmpult (1) then ldq (3).
  unsigned GuardDone = 0;
  for (const alpha::Instruction &I : R.Program.Instrs)
    if (I.Mnemonic == "cmpult")
      GuardDone = I.Cycle + I.Latency;
  for (const alpha::Instruction &I : R.Program.Instrs)
    if (I.Mem == alpha::MemKind::Load) {
      EXPECT_GE(I.Cycle, GuardDone);
    }
}

TEST_F(PipelineTest, BinarySearchAgreesWithLinear) {
  ClassId Goal = app(
      Builtin::Add64,
      {app(Builtin::Shl64, {v("x"), c(3)}),
       app(Builtin::Xor64, {v("y"), app(Builtin::And64, {v("x"), v("y")})})});
  saturate();
  SearchOptions Lin;
  Lin.Strategy = SearchStrategy::Linear;
  SearchResult RL = superoptimize({{"res", Goal, false}}, Lin);
  SearchOptions Bin;
  Bin.Strategy = SearchStrategy::Binary;
  SearchResult RB = superoptimize({{"res", Goal, false}}, Bin);
  ASSERT_TRUE(RL.Found) << RL.Error;
  ASSERT_TRUE(RB.Found) << RB.Error;
  EXPECT_EQ(RL.Cycles, RB.Cycles);
}

TEST_F(PipelineTest, SingleClusterAblationNoWorse) {
  // Removing the cross-cluster delay can only shorten schedules.
  ClassId Goal = app(
      Builtin::Or64,
      {app(Builtin::Shl64, {v("a"), c(8)}), app(Builtin::Shr64, {v("b"), c(8)})});
  saturate();
  SearchResult RTwo = superoptimize({{"res", Goal, false}});
  SearchOptions OptsOne;
  OptsOne.Encoding.SingleCluster = true;
  SearchResult ROne = superoptimize({{"res", Goal, false}}, OptsOne);
  ASSERT_TRUE(RTwo.Found) << RTwo.Error;
  ASSERT_TRUE(ROne.Found) << ROne.Error;
  EXPECT_LE(ROne.Cycles, RTwo.Cycles);
}

TEST_F(PipelineTest, UncomputableGoalReportsError) {
  ir::OpId Mystery = Ctx.Ops.declareOp("mystery", 1);
  ClassId Goal = G.addNode(Mystery, {v("x")});
  saturate();
  Universe U;
  std::string Err;
  EXPECT_FALSE(U.build(G, Isa, {Goal}, UniverseOptions(), &Err));
  EXPECT_NE(Err.find("no machine-computable"), std::string::npos);
}

TEST_F(PipelineTest, ProbeStatsRecorded) {
  ClassId Goal = app(Builtin::Add64, {app(Builtin::Mul64, {v("x"), c(4)}),
                                      v("y")});
  saturate();
  SearchResult R = superoptimize({{"res", Goal, false}});
  ASSERT_TRUE(R.Found) << R.Error;
  ASSERT_FALSE(R.Probes.empty());
  for (const Probe &P : R.Probes) {
    EXPECT_GT(P.Stats.Vars, 0);
    EXPECT_GT(P.Stats.Clauses, 0u);
    EXPECT_GT(P.Stats.MachineTerms, 0u);
  }
  EXPECT_EQ(R.Probes.back().Result, sat::SolveResult::Sat);
}

TEST_F(PipelineTest, MissAnnotatedLoadLatency) {
  // A load annotated as missing the cache takes the miss latency.
  ClassId Addr = v("p");
  ClassId Goal = app(Builtin::Select, {v("M"), Addr});
  saturate();
  Universe U;
  UniverseOptions UOpts;
  UOpts.LoadLatencyByAddr[G.find(Addr)] = Isa.loadMissLatency();
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UOpts, &Err)) << Err;
  SearchOptions SOpts;
  SOpts.MaxCycles = 20;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, SOpts,
                                 "miss");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, Isa.loadMissLatency());
}

//===----------------------------------------------------------------------===
// Differential sweep: random expression DAGs through the whole pipeline;
// simulated machine output must equal the reference evaluation.
//===----------------------------------------------------------------------===

class PipelineDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineDifferential, RandomTerms) {
  std::mt19937 Rng(GetParam() * 48271u + 7);
  ir::Context Ctx;
  alpha::ISA Isa(Ctx);

  // Random term over three variables and small constants.
  std::vector<ir::TermId> Pool;
  for (const char *Name : {"x", "y", "z"})
    Pool.push_back(Ctx.Terms.makeVar(Name));
  Pool.push_back(Ctx.Terms.makeConst(Rng() & 0xff));
  Pool.push_back(Ctx.Terms.makeConst(4));
  const Builtin Ops[] = {Builtin::Add64, Builtin::Sub64, Builtin::And64,
                         Builtin::Or64,  Builtin::Xor64, Builtin::Shl64,
                         Builtin::Mul64, Builtin::CmpUlt, Builtin::Zapnot,
                         Builtin::Extbl};
  for (int Step = 0; Step < 5; ++Step) {
    Builtin B = Ops[Rng() % std::size(Ops)];
    ir::TermId A = Pool[Rng() % Pool.size()];
    ir::TermId C = Pool[Rng() % Pool.size()];
    Pool.push_back(Ctx.Terms.makeBuiltin(B, {A, C}));
  }
  ir::TermId GoalTerm = Pool.back();

  EGraph G(Ctx);
  ClassId Goal = G.addTerm(GoalTerm);
  match::Matcher M(axioms::loadBuiltinAxioms(Ctx));
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  match::MatchLimits Limits;
  Limits.MaxNodes = 20000;
  M.saturate(G, Limits);
  ASSERT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();

  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
      << Err;
  SearchOptions Opts;
  Opts.MaxCycles = 20;
  SearchResult R =
      searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts, "rand");
  ASSERT_TRUE(R.Found) << R.Error << "\ngoal: "
                       << Ctx.Terms.toString(GoalTerm);

  alpha::TimingReport TR = alpha::validateTiming(Isa, R.Program);
  ASSERT_TRUE(TR.Ok) << TR.Error << "\n" << R.Program.toString();

  for (int Trial = 0; Trial < 4; ++Trial) {
    std::unordered_map<std::string, ir::Value> Inputs;
    ir::Env E;
    for (const char *Name : {"x", "y", "z"}) {
      uint64_t V = (static_cast<uint64_t>(Rng()) << 32) | Rng();
      Inputs[Name] = ir::Value::makeInt(V);
      E[Ctx.Ops.makeVariable(Name)] = ir::Value::makeInt(V);
    }
    auto Want = ir::evalTerm(Ctx.Terms, GoalTerm, E);
    ASSERT_TRUE(Want.has_value());
    alpha::RunResult Run = alpha::runProgram(Ctx, R.Program, Inputs);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    EXPECT_TRUE(Run.Outputs.at("res").equals(*Want))
        << "seed " << GetParam() << " goal "
        << Ctx.Terms.toString(GoalTerm) << "\n"
        << R.Program.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential,
                         ::testing::Range(0u, 20u));

//===----------------------------------------------------------------------===
// The critical-path bound the ladder starts from must be sound: never above
// the minimal K, every budget below it refuted by unit propagation alone,
// and the probe just below it recorded as the ladder's refutation. Run on
// the sample programs and generated GMAs, per backend, with and without the
// cluster model.
//===----------------------------------------------------------------------===

/// The bound by a second route, for tightness: step through cycles; at
/// cycle I launch every term whose operands (and, for loads and stores, the
/// guard) were ready by I - 1 on its unit's cluster, making its class ready
/// at I + latency - 1 + the cross-cluster delay. This is the order in which
/// level-0 propagation derives the encoding's negative facts. Classes not
/// ready within \p Horizon cycles count as never ready.
unsigned steppedBound(const EGraph &G, const machine::MachineModel &M,
                      const Universe &U, const std::vector<NamedGoal> &Goals,
                      const EncoderOptions &Opts, int Horizon) {
  const int Never = Horizon;
  const unsigned NC = Opts.SingleCluster ? 1 : M.numClusters();
  auto clusterOf = [&](machine::UnitId Un) {
    return Opts.SingleCluster ? 0u : M.clusterOf(Un);
  };
  std::unordered_map<ClassId, std::vector<int>> Ready;
  for (ClassId Q : U.neededClasses())
    Ready[G.find(Q)].assign(NC, Never);
  auto earliest = [&](ClassId Q) {
    const std::vector<int> &R = Ready.at(G.find(Q));
    return *std::min_element(R.begin(), R.end());
  };
  std::optional<ClassId> Guard;
  if (Opts.GuardClass && !U.isFree(G.find(*Opts.GuardClass)))
    Guard = *Opts.GuardClass;
  for (int I = 0; I < Horizon; ++I) {
    for (const MachineTerm &T : U.terms()) {
      if (Guard && (T.IsLoad || T.IsStore) && earliest(*Guard) > I - 1)
        continue;
      for (machine::UnitId Un : T.Units) {
        unsigned C = clusterOf(Un);
        bool OperandsReady = true;
        for (size_t A = 0; A < T.Args.size(); ++A)
          if (!U.isFree(T.Args[A]) &&
              (T.IsLdiq ||
               !U.isImmOperand(G, *T.Desc, A, T.Args.size(), T.Args[A])))
            OperandsReady &= Ready.at(G.find(T.Args[A]))[C] <= I - 1;
        if (!OperandsReady)
          continue;
        for (unsigned CC = 0; CC < NC; ++CC) {
          int Delay = Opts.SingleCluster || T.IsStore || CC == C
                          ? 0
                          : static_cast<int>(M.crossClusterDelay());
          int &R = Ready.at(G.find(T.Class))[CC];
          R = std::min(R, I + static_cast<int>(T.Latency) - 1 + Delay);
        }
      }
    }
  }
  unsigned Bound = 0;
  for (const NamedGoal &Goal : Goals) {
    if (U.isFree(G.find(Goal.Class)))
      continue;
    int R = earliest(Goal.Class);
    if (R >= Never)
      return std::numeric_limits<unsigned>::max();
    Bound = std::max(Bound, static_cast<unsigned>(R) + 1);
  }
  return Bound;
}

class CriticalPathBound
    : public ::testing::TestWithParam<std::tuple<const char *, bool>> {
protected:
  /// Guarded GMAs whose universe has loads or stores (the Guard family
  /// shapes the bound only there).
  unsigned GuardedMemory = 0;

  driver::Options options() const {
    driver::Options Opts;
    Opts.MachineName = std::get<0>(GetParam());
    Opts.Search.Encoding.SingleCluster = std::get<1>(GetParam());
    return Opts;
  }

  void check(const driver::Superoptimizer &Opt, const driver::GmaResult &R) {
    SCOPED_TRACE(R.Gma.Name);
    driver::SaturatedGma Sat = Opt.saturateGMA(R.Gma);
    if (!Sat.ok())
      return;
    const EGraph &G = *Sat.Graph;
    std::vector<ClassId> Roots;
    for (const NamedGoal &Goal : Sat.Goals)
      Roots.push_back(Goal.Class);
    if (Sat.GuardClass)
      Roots.push_back(*Sat.GuardClass);
    Universe U;
    if (!U.build(G, Opt.isa(), Roots, Sat.UOpts, nullptr))
      return;
    SearchOptions Opts = Opt.options().Search;
    if (Sat.GuardClass) {
      Opts.Encoding.GuardClass = *Sat.GuardClass;
      for (const MachineTerm &T : U.terms())
        if (T.IsLoad || T.IsStore) {
          ++GuardedMemory;
          break;
        }
    }
    const unsigned Bound =
        criticalPathBound(G, Opt.isa(), U, Sat.Goals, Opts.Encoding);
    EXPECT_EQ(R.Search.CriticalPathBound, Bound);
    EXPECT_EQ(Bound, steppedBound(G, Opt.isa(), U, Sat.Goals, Opts.Encoding,
                                  /*Horizon=*/64));
    if (R.Search.Found) {
      EXPECT_LE(Bound, R.Search.Cycles);
    }

    Encoder Enc(G, Opt.isa(), U);
    for (unsigned K = 1; K < Bound && K <= Opts.MaxCycles; ++K) {
      sat::Solver S;
      EncoderOptions EncOpts = Opts.Encoding;
      EncOpts.Cycles = K;
      Enc.encode(S, Sat.Goals, EncOpts);
      EXPECT_EQ(S.solve(), sat::SolveResult::Unsat) << "K=" << K;
      EXPECT_EQ(S.stats().Conflicts, 0u) << "K=" << K;
    }

    if (Bound >= 1 && Bound - 1 >= Opts.MinCycles &&
        Bound - 1 <= Opts.MaxCycles) {
      auto It = std::find_if(
          R.Search.Probes.begin(), R.Search.Probes.end(),
          [&](const Probe &P) { return P.Cycles == Bound - 1; });
      ASSERT_NE(It, R.Search.Probes.end()) << "no probe at " << Bound - 1;
      EXPECT_EQ(It->Result, sat::SolveResult::Unsat);
    }
  }
};

TEST_P(CriticalPathBound, SoundOnSamplePrograms) {
  for (const char *File : {"byteswap4.dnl", "checksum.dnl",
                           "checksum_pipelined.dnl", "copyloop.dnl",
                           "rowop.dnl"}) {
    SCOPED_TRACE(File);
    std::ifstream In(std::string(DENALI_PROGRAMS_DIR) + "/" + File);
    ASSERT_TRUE(In) << File;
    std::ostringstream Text;
    Text << In.rdbuf();
    driver::Superoptimizer Opt(options());
    driver::CompileResult C = Opt.compileSource(Text.str());
    ASSERT_TRUE(C.ok()) << C.Error;
    for (const driver::GmaResult &R : C.Gmas)
      check(Opt, R);
  }
  EXPECT_GT(GuardedMemory, 0u); // checksum's loop body.
}

TEST_P(CriticalPathBound, SoundOnGeneratedGmas) {
  driver::Superoptimizer Opt(options());
  Opt.options().Search.MaxCycles = 12;
  Opt.options().Matching.MaxNodes = 8000;
  Opt.options().Matching.MaxRounds = 8;
  for (unsigned Seed = 0; Seed < 10; ++Seed) {
    verify::GmaGen Gen(Opt.context(), Seed);
    for (unsigned I = 0; I < 3; ++I) {
      gma::GMA Gma = Gen.next();
      check(Opt, Opt.compileGMA(Gma));
    }
  }
  EXPECT_GT(GuardedMemory, 0u);
}

/// Two one-unit clusters: adds issue only on cluster 0, multiplies only on
/// cluster 1, and a result reaches the other cluster one cycle late. On
/// this machine, unlike the EV6 (where cluster 1 runs everything), the
/// cross-cluster delay lies on the critical path.
class SplitClusterMachine : public machine::MachineModel {
public:
  explicit SplitClusterMachine(ir::Context &Ctx) {
    addUnit("A0", 0);
    addUnit("M1", 1);
    Clusters = 2;
    IssueWidth = 2;
    machine::InstrDesc Add;
    Add.Op = Ctx.Ops.builtin(Builtin::Add64);
    Add.Mnemonic = "add";
    Add.UnitMask = 1u << 0;
    addInstr(Add);
    machine::InstrDesc Mul;
    Mul.Op = Ctx.Ops.builtin(Builtin::Mul64);
    Mul.Mnemonic = "mul";
    Mul.UnitMask = 1u << 1;
    Mul.Latency = 2;
    addInstr(Mul);
    machine::InstrDesc Li;
    Li.Op = Ctx.Ops.builtin(Builtin::Const);
    Li.Mnemonic = "li";
    Li.UnitMask = 3;
    Li.AllowsImm = false;
    setConstMaterialize(Li);
  }
  std::string name() const override { return "split"; }
  unsigned crossClusterDelay() const override { return 1; }
};

TEST(CriticalPathBoundCases, CrossClusterDelayOnThePath) {
  ir::Context Ctx;
  SplitClusterMachine M(Ctx);
  EGraph G(Ctx);
  auto var = [&](const char *N) {
    return G.addNode(Ctx.Ops.makeVariable(N), {});
  };
  // mul on M1 completes at the end of cycle 1, reaches cluster 0 a cycle
  // later, so the add on A0 launches at 3: four cycles, not three.
  ClassId Goal = G.addNode(
      Ctx.Ops.builtin(Builtin::Add64),
      {G.addNode(Ctx.Ops.builtin(Builtin::Mul64), {var("x"), var("y")}),
       var("z")});
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, M, {Goal}, UniverseOptions(), &Err)) << Err;
  std::vector<NamedGoal> Goals = {{"res", Goal, false}};
  EncoderOptions Enc;
  EXPECT_EQ(criticalPathBound(G, M, U, Goals, Enc), 4u);
  Enc.SingleCluster = true;
  EXPECT_EQ(criticalPathBound(G, M, U, Goals, Enc), 3u);

  SearchResult R = searchBudgets(G, M, U, Goals, SearchOptions(), "split");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 4u);
  EXPECT_EQ(R.CriticalPathBound, 4u);
  ASSERT_EQ(R.Probes.size(), 2u);
  EXPECT_EQ(R.Probes[0].Cycles, 3u);
  EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
  EXPECT_EQ(R.Probes[0].Conflicts, 0u);
}

TEST(CriticalPathBoundCases, GuardOnThePath) {
  // A load waits for its guard: mulq (7 cycles) then cmpult (1) finish at
  // the end of cycle 7, so the ldq (3) launches at 8 and completes at 10.
  ir::Context Ctx;
  alpha::ISA Isa(Ctx);
  EGraph G(Ctx);
  auto var = [&](const char *N) {
    return G.addNode(Ctx.Ops.makeVariable(N), {});
  };
  ClassId Guard = G.addNode(
      Ctx.Ops.builtin(Builtin::CmpUlt),
      {G.addNode(Ctx.Ops.builtin(Builtin::Mul64), {var("x"), var("y")}),
       var("z")});
  ClassId Goal =
      G.addNode(Ctx.Ops.builtin(Builtin::Select), {var("M"), var("p")});
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {Goal, Guard}, UniverseOptions(), &Err))
      << Err;
  std::vector<NamedGoal> Goals = {{"res", Goal, false}};
  SearchOptions Opts;
  EXPECT_EQ(criticalPathBound(G, Isa, U, Goals, Opts.Encoding), 3u);
  Opts.Encoding.GuardClass = Guard;
  EXPECT_EQ(criticalPathBound(G, Isa, U, Goals, Opts.Encoding), 11u);

  SearchResult R = searchBudgets(G, Isa, U, Goals, Opts, "guarded");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 11u);
  ASSERT_EQ(R.Probes.size(), 2u);
  EXPECT_EQ(R.Probes[0].Cycles, 10u);
  EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
}

//===----------------------------------------------------------------------===
// Probe ladders on the sample programs: the budgets probed, and the solver
// effort per probe. The per-probe conflict and decision counts pin the
// search itself, so a solver or encoder change that claims to keep it
// identical is checked on the paper's own programs.
//===----------------------------------------------------------------------===

driver::CompileResult compileSample(const char *File,
                                    const SearchOptions &Search) {
  std::ifstream In(std::string(DENALI_PROGRAMS_DIR) + "/" + File);
  EXPECT_TRUE(In) << File;
  std::ostringstream Text;
  Text << In.rdbuf();
  driver::Options Opts;
  Opts.Search = Search;
  driver::Superoptimizer Opt(Opts);
  return Opt.compileSource(Text.str());
}

/// One entry per GMA: "K[/conflicts/decisions] ..." over its probes.
std::vector<std::string> probeLadders(const driver::CompileResult &C,
                                      bool WithEffort) {
  std::vector<std::string> Out;
  for (const driver::GmaResult &R : C.Gmas) {
    std::string Line;
    for (const Probe &P : R.Search.Probes) {
      if (!Line.empty())
        Line += ' ';
      Line += std::to_string(P.Cycles);
      if (WithEffort) {
        Line += '/';
        Line += std::to_string(P.Conflicts);
        Line += '/';
        Line += std::to_string(P.Decisions);
      }
    }
    Out.push_back(Line);
  }
  return Out;
}

TEST(SearchTrajectory, PerProbeEffortPinned) {
  struct Case {
    const char *File;
    bool Incremental;
    std::vector<std::string> Want;
  } Cases[] = {
      {"byteswap4.dnl", false, {"3/0/0 4/24/209 5/33/581"}},
      {"checksum.dnl",
       false,
       {"2/0/0 3/5/7 4/21/88", "3/0/0 4/10/33 5/155/1263",
        "8/0/0 9/56/540 10/124/2902"}},
      {"byteswap4.dnl", true, {"3/0/0 4/29/442 5/29/431"}},
      {"checksum.dnl",
       true,
       {"2/0/0 3/5/28 4/4/165", "3/0/0 4/10/62 5/220/1378",
        "8/0/0 9/79/845 10/51/2265"}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.File) +
                 (C.Incremental ? " incremental" : " fresh"));
    SearchOptions Search;
    Search.Incremental = C.Incremental;
    driver::CompileResult R = compileSample(C.File, Search);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(probeLadders(R, /*WithEffort=*/true), C.Want);
  }
}

TEST(SearchTrajectory, BinaryGallopProbesLikeLinearOnByteswap4) {
  // The minimal K (5) is one above the critical-path bound (4), so the
  // gallop's offsets 0, 1, 2 from the ladder's start (3) reach it with
  // nothing left to bisect.
  SearchOptions Lin;
  Lin.Strategy = SearchStrategy::Linear;
  SearchOptions Bin;
  Bin.Strategy = SearchStrategy::Binary;
  driver::CompileResult RL = compileSample("byteswap4.dnl", Lin);
  driver::CompileResult RB = compileSample("byteswap4.dnl", Bin);
  ASSERT_TRUE(RL.ok()) << RL.Error;
  ASSERT_TRUE(RB.ok()) << RB.Error;
  EXPECT_EQ(probeLadders(RB, false), probeLadders(RL, false));
  EXPECT_EQ(probeLadders(RB, false), std::vector<std::string>{"3 4 5"});
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CriticalPathBound,
    // rv64 has one cluster, so its SingleCluster run would repeat this one.
    ::testing::Values(std::make_tuple("alpha", false),
                      std::make_tuple("alpha", true),
                      std::make_tuple("rv64", false)),
    [](const ::testing::TestParamInfo<std::tuple<const char *, bool>> &I) {
      return std::string(std::get<0>(I.param)) +
             (std::get<1>(I.param) ? "_single_cluster" : "_clusters");
    });

} // namespace
