//===- codegen/Encoder.cpp ------------------------------------------------===//

#include "codegen/Encoder.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::sat::Lit;
using denali::sat::Solver;

const char *denali::codegen::clauseFamilyName(ClauseFamily F) {
  switch (F) {
  case ClauseFamily::None:
    return "none";
  case ClauseFamily::Definition:
    return "definition";
  case ClauseFamily::Operand:
    return "operand";
  case ClauseFamily::Exclusivity:
    return "exclusivity";
  case ClauseFamily::Deadline:
    return "deadline";
  case ClauseFamily::Guard:
    return "guard";
  case ClauseFamily::Memory:
    return "memory";
  case ClauseFamily::Monotone:
    return "monotone";
  }
  return "unknown";
}

void ClassRows::build(const EGraph &G, const Universe &U) {
  const std::vector<ClassId> &Needed = U.neededClasses();
  Row.clear();
  Row.reserve(Needed.size() * 2);
  NeededRow.resize(Needed.size());
  for (size_t R = 0; R < Needed.size(); ++R)
    NeededRow[R] =
        Row.emplace(G.find(Needed[R]), static_cast<uint32_t>(R)).first->second;
  const std::vector<MachineTerm> &Terms = U.terms();
  ArgStart.resize(Terms.size() + 1);
  ArgRow.clear();
  for (size_t T = 0; T < Terms.size(); ++T) {
    const MachineTerm &MT = Terms[T];
    ArgStart[T] = static_cast<uint32_t>(ArgRow.size());
    for (size_t ArgIdx = 0; ArgIdx < MT.Args.size(); ++ArgIdx) {
      ClassId A = MT.Args[ArgIdx];
      bool NoClause =
          U.isFree(A) ||
          (!MT.IsLdiq &&
           U.isImmOperand(G, *MT.Desc, ArgIdx, MT.Args.size(), A));
      ArgRow.push_back(NoClause ? NoRow : rowOf(G, A));
    }
  }
  ArgStart[Terms.size()] = static_cast<uint32_t>(ArgRow.size());
}

EncodingStats Encoder::encode(Solver &S, const std::vector<NamedGoal> &Goals,
                              const EncoderOptions &Opts) {
  const unsigned K = Opts.Cycles;
  const unsigned NC = numClusters(Opts);
  LastCycles = K;
  LastClusters = NC;

  obs::ObsSpan Span("encode");
  EncodingStats Stats;
  const uint64_t ClausesAtStart = S.numClauses();
  // Per-family clause attribution: the solver's clause count sampled at
  // each constraint-block boundary.
  uint64_t FamilyMark = ClausesAtStart;
  auto takeFamily = [&](uint64_t &Into) {
    uint64_t Now = S.numClauses();
    Into = Now - FamilyMark;
    FamilyMark = Now;
  };
  // Refutation attribution: stamp each clause block with its family plus
  // whatever cycle/unit/term coordinates the block is specific to. A plain
  // member store per block when enabled, nothing at all when not.
  auto tag = [&](uint32_t T) {
    if (Opts.TagClauses)
      S.setClauseTag(T);
  };

  const std::vector<MachineTerm> &Terms = U.terms();
  const std::vector<ClassId> &Needed = U.neededClasses();

  // --- Variables -----------------------------------------------------------
  // Dense tables; creation order (all L's, then all B's) matches the
  // variable numbering the tree-map encoder produced.
  LDense.assign(Terms.size() * NumUnits * K, -1);
  for (size_t T = 0; T < Terms.size(); ++T)
    for (machine::UnitId Un : Terms[T].Units)
      for (unsigned I = 0; I < K; ++I)
        LDense[lIndex(T, Un, I)] = S.newVar();
  BDense.assign(Needed.size() * NC * K, -1);
  Rows.build(G, U);
  for (uint32_t R = 0; R < Needed.size(); ++R) {
    if (Rows.NeededRow[R] != R)
      continue; // Duplicate canonical class; first row wins.
    for (unsigned C = 0; C < NC; ++C)
      for (unsigned I = 0; I < K; ++I)
        BDense[bIndex(R, C, I)] = S.newVar();
  }
  auto rowOf = [&](ClassId Q) { return Rows.rowOf(G, Q); };

  auto LVar = [&](size_t T, machine::UnitId Un, unsigned I) {
    sat::Var V = LDense[lIndex(T, Un, I)];
    assert(V >= 0 && "missing L variable");
    return Lit::pos(V);
  };
  auto BVar = [&](uint32_t Row, unsigned C, unsigned I) {
    sat::Var V = BDense[bIndex(Row, C, I)];
    assert(V >= 0 && "missing B variable");
    return Lit::pos(V);
  };

  // Extra cycles before term T's result (launched on unit Un) is usable on
  // cluster C: stores write shared state, everything else pays the
  // cross-cluster delay.
  auto crossDelay = [&](const MachineTerm &T, machine::UnitId Un, unsigned C) {
    if (Opts.SingleCluster || T.IsStore)
      return 0u;
    return clusterOfUnit(Un, Opts) == C ? 0u : M.crossClusterDelay();
  };

  // --- Condition 3 (+1): B(q,c,i) holds iff some member completed by i. ---
  sat::ClauseLits Clause; // Scratch for the multi-literal clauses below.
  for (size_t R = 0; R < Needed.size(); ++R) {
    const ClassId Q = Needed[R];
    const ClassId CanonQ = G.find(Q);
    const uint32_t Row = Rows.NeededRow[R];
    const std::vector<size_t> &Producers = U.producersOf(Q);
    for (unsigned C = 0; C < NC; ++C) {
      for (unsigned I = 0; I < K; ++I) {
        tag(makeClauseTag(ClauseFamily::Definition, I, ~0u, CanonQ));
        Lit B = BVar(Row, C, I);
        Clause.assign(1, ~B);
        if (I > 0) {
          Lit Prev = BVar(Row, C, I - 1);
          Clause.push_back(Prev);
          S.addClause(~Prev, B); // Monotonic.
        }
        for (size_t T : Producers) {
          const MachineTerm &MT = Terms[T];
          for (machine::UnitId Un : MT.Units) {
            // Launch at J completes (on cluster C) at the end of cycle
            // J + latency - 1 + crossDelay; completion exactly at I:
            int J = static_cast<int>(I) -
                    static_cast<int>(MT.Latency - 1 + crossDelay(MT, Un, C));
            if (J < 0 || J >= static_cast<int>(K))
              continue;
            Lit L = LVar(T, Un, static_cast<unsigned>(J));
            Clause.push_back(L);
            S.addClause(~L, B);
          }
        }
        S.addClause(Clause);
      }
    }
  }
  takeFamily(Stats.DefinitionClauses);

  // --- Condition 2: operands available before launch. ---------------------
  for (size_t T = 0; T < Terms.size(); ++T) {
    const MachineTerm &MT = Terms[T];
    for (uint32_t A = Rows.ArgStart[T]; A < Rows.ArgStart[T + 1]; ++A) {
      const uint32_t Row = Rows.ArgRow[A];
      if (Row == ClassRows::NoRow)
        continue;
      for (machine::UnitId Un : MT.Units) {
        unsigned C = clusterOfUnit(Un, Opts);
        for (unsigned I = 0; I < K; ++I) {
          tag(makeClauseTag(ClauseFamily::Operand, I, Un,
                            static_cast<uint32_t>(T)));
          Lit L = LVar(T, Un, I);
          if (I == 0)
            S.addClause(~L); // No cycle -1 to have computed the operand in.
          else
            S.addClause(~L, BVar(Row, C, I - 1));
        }
      }
    }
  }

  takeFamily(Stats.OperandClauses);

  // --- Condition 4: issue exclusivity per (cycle, unit). ------------------
  for (unsigned UIdx = 0; UIdx < NumUnits; ++UIdx) {
    for (unsigned I = 0; I < K; ++I) {
      tag(makeClauseTag(ClauseFamily::Exclusivity, I, UIdx));
      Clause.clear();
      for (size_t T = 0; T < Terms.size(); ++T) {
        sat::Var V = LDense[lIndex(T, UIdx, I)];
        if (V >= 0)
          Clause.push_back(Lit::pos(V));
      }
      sat::addAtMostOne(S, Clause, Opts.AmoStyle);
    }
  }
  takeFamily(Stats.ExclusivityClauses);

  // --- Condition 5: goals computed within K cycles. ------------------------
  // In monotone mode every budget's deadline is gated by its activation
  // literal instead (below), so no unconditional deadline is emitted.
  if (!Opts.Monotone) {
    for (size_t GIdx = 0; GIdx < Goals.size(); ++GIdx) {
      const NamedGoal &Goal = Goals[GIdx];
      ClassId Q = G.find(Goal.Class);
      if (U.isFree(Q))
        continue;
      tag(makeClauseTag(ClauseFamily::Deadline, ~0u, ~0u,
                        static_cast<uint32_t>(GIdx)));
      const uint32_t Row = rowOf(Q);
      Clause.clear();
      for (unsigned C = 0; C < NC; ++C)
        Clause.push_back(BVar(Row, C, K - 1));
      S.addClause(Clause);
    }
  }
  takeFamily(Stats.DeadlineClauses);

  // --- Section 7: guard before unsafe (memory) operations. -----------------
  if (Opts.GuardClass) {
    ClassId Gd = G.find(*Opts.GuardClass);
    if (!U.isFree(Gd)) {
      const uint32_t GuardRow = rowOf(Gd);
      for (size_t T = 0; T < Terms.size(); ++T) {
        const MachineTerm &MT = Terms[T];
        if (!MT.IsLoad && !MT.IsStore)
          continue;
        for (machine::UnitId Un : MT.Units) {
          for (unsigned I = 0; I < K; ++I) {
            tag(makeClauseTag(ClauseFamily::Guard, I, Un,
                              static_cast<uint32_t>(T)));
            Lit L = LVar(T, Un, I);
            if (I == 0) {
              S.addClause(~L);
              continue;
            }
            Clause.assign(1, ~L);
            for (unsigned C = 0; C < NC; ++C)
              Clause.push_back(BVar(GuardRow, C, I - 1));
            S.addClause(Clause);
          }
        }
      }
    }
  }
  takeFamily(Stats.GuardClauses);

  // --- Memory discipline. ---------------------------------------------------
  // Each store launches at most once (a replayed store could overwrite a
  // later store to the same unprovably-distinct address).
  for (size_t T = 0; T < Terms.size(); ++T) {
    const MachineTerm &MT = Terms[T];
    if (!MT.IsStore)
      continue;
    tag(makeClauseTag(ClauseFamily::Memory, ~0u, ~0u,
                      static_cast<uint32_t>(T)));
    Clause.clear();
    for (machine::UnitId Un : MT.Units)
      for (unsigned I = 0; I < K; ++I)
        Clause.push_back(LVar(T, Un, I));
    sat::addAtMostOne(S, Clause, Opts.AmoStyle);
  }
  // Anti-dependence: a load of memory state m may not launch after the
  // store that overwrites m (i.e., the store whose memory argument is m).
  for (size_t TL = 0; TL < Terms.size(); ++TL) {
    if (!Terms[TL].IsLoad)
      continue;
    tag(makeClauseTag(ClauseFamily::Memory, ~0u, ~0u,
                      static_cast<uint32_t>(TL)));
    ClassId Mem = Terms[TL].Args[0];
    for (size_t TS = 0; TS < Terms.size(); ++TS) {
      if (!Terms[TS].IsStore || G.find(Terms[TS].Args[0]) != G.find(Mem))
        continue;
      for (machine::UnitId UL : Terms[TL].Units)
        for (machine::UnitId US : Terms[TS].Units)
          for (unsigned IL = 0; IL < K; ++IL)
            for (unsigned IS = 0; IS < IL; ++IS)
              S.addClause(~LVar(TL, UL, IL), ~LVar(TS, US, IS));
    }
  }
  takeFamily(Stats.MemoryClauses);

  // --- Monotone budget ladder (incremental search). -------------------------
  // One activation literal per budget B: E_B means "some launch at cycle
  // >= B". Solving under the assumption ¬E_B therefore (a) forbids every
  // launch at cycle B or later (via the chain E_{B+1} -> E_B and the
  // per-launch clauses L(t,u,i) -> E_i), and (b) activates the budget-B
  // goal deadline (E_B ∨ ⋁_c B(goal, c, B-1)). Restricted to cycles < B
  // the constraint set is exactly the fresh budget-B encoding, so each
  // probe keeps the paper's SAT/UNSAT evidence while one solver carries
  // learnt clauses across the whole ladder.
  ExceedVars.clear();
  if (Opts.Monotone) {
    ExceedVars.assign(K + 1, -1);
    for (unsigned B = 1; B <= K; ++B)
      ExceedVars[B] = S.newVar();
    tag(makeClauseTag(ClauseFamily::Monotone));
    for (unsigned B = 1; B < K; ++B)
      S.addClause(Lit::neg(ExceedVars[B + 1]), Lit::pos(ExceedVars[B]));
    for (size_t T = 0; T < Terms.size(); ++T)
      for (machine::UnitId Un : Terms[T].Units)
        for (unsigned I = 1; I < K; ++I) {
          tag(makeClauseTag(ClauseFamily::Monotone, I, Un,
                            static_cast<uint32_t>(T)));
          S.addClause(~LVar(T, Un, I), Lit::pos(ExceedVars[I]));
        }
    for (unsigned B = 1; B <= K; ++B) {
      for (size_t GIdx = 0; GIdx < Goals.size(); ++GIdx) {
        const NamedGoal &Goal = Goals[GIdx];
        ClassId Q = G.find(Goal.Class);
        if (U.isFree(Q))
          continue;
        // The gated deadline is the budget-B form of the Deadline family.
        tag(makeClauseTag(ClauseFamily::Deadline, B - 1, ~0u,
                          static_cast<uint32_t>(GIdx)));
        const uint32_t Row = rowOf(Q);
        Clause.assign(1, Lit::pos(ExceedVars[B]));
        for (unsigned C = 0; C < NC; ++C)
          Clause.push_back(BVar(Row, C, B - 1));
        S.addClause(Clause);
      }
    }
  }
  tag(0);

  takeFamily(Stats.MonotoneClauses);

  Stats.Cycles = K;
  Stats.Vars = S.numVars();
  Stats.Clauses = S.numClauses();
  Stats.MachineTerms = Terms.size();
  Stats.Classes = U.neededClasses().size();
  if (obs::enabled()) {
    if (Span.active())
      Span.arg("cycles", Stats.Cycles)
          .arg("vars", Stats.Vars)
          .arg("clauses", Stats.Clauses)
          .arg("terms", static_cast<uint64_t>(Stats.MachineTerms))
          .arg("classes", static_cast<uint64_t>(Stats.Classes))
          .arg("monotone", Opts.Monotone ? "yes" : "no");
    auto &R = obs::Registry::global();
    R.counter("encode.runs").add(1);
    R.counter("encode.vars").add(static_cast<uint64_t>(Stats.Vars));
    R.counter("encode.clauses").add(Stats.Clauses - ClausesAtStart);
    R.counter("encode.clauses.definition").add(Stats.DefinitionClauses);
    R.counter("encode.clauses.operand").add(Stats.OperandClauses);
    R.counter("encode.clauses.exclusivity").add(Stats.ExclusivityClauses);
    R.counter("encode.clauses.deadline").add(Stats.DeadlineClauses);
    R.counter("encode.clauses.guard").add(Stats.GuardClauses);
    R.counter("encode.clauses.memory").add(Stats.MemoryClauses);
    R.counter("encode.clauses.monotone").add(Stats.MonotoneClauses);
  }
  return Stats;
}

unsigned denali::codegen::criticalPathBound(const EGraph &G,
                                            const machine::MachineModel &M,
                                            const Universe &U,
                                            const std::vector<NamedGoal> &Goals,
                                            const EncoderOptions &Opts) {
  constexpr int Never = std::numeric_limits<int>::max() / 2;
  const unsigned NC = Opts.SingleCluster ? 1 : M.numClusters();
  auto clusterOf = [&](machine::UnitId Un) {
    return Opts.SingleCluster ? 0u : M.clusterOf(Un);
  };
  const std::vector<MachineTerm> &Terms = U.terms();
  const std::vector<ClassId> &Needed = U.neededClasses();

  ClassRows Rows;
  Rows.build(G, U);
  std::vector<uint32_t> TermRow(Terms.size());
  for (size_t T = 0; T < Terms.size(); ++T)
    TermRow[T] = Rows.rowOf(G, Terms[T].Class);
  std::optional<uint32_t> GuardRow;
  if (Opts.GuardClass && !U.isFree(G.find(*Opts.GuardClass)))
    GuardRow = Rows.rowOf(G, *Opts.GuardClass);

  // Ready[Row * NC + C]: the earliest cycle by whose end the class can be
  // complete on cluster C. Times only decrease from Never, so sweeping to
  // a fixpoint terminates; terms are swept in reverse universe order
  // (operands are discovered after their users), which settles acyclic
  // cones in one or two sweeps.
  std::vector<int> Ready(Needed.size() * NC, Never);
  auto earliest = [&](uint32_t R) {
    int Best = Never;
    for (unsigned C = 0; C < NC; ++C)
      Best = std::min(Best, Ready[R * NC + C]);
    return Best;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t T = Terms.size(); T-- > 0;) {
      const MachineTerm &MT = Terms[T];
      for (machine::UnitId Un : MT.Units) {
        const unsigned UC = clusterOf(Un);
        int Launch = 0;
        for (uint32_t I = Rows.ArgStart[T]; I < Rows.ArgStart[T + 1]; ++I)
          if (Rows.ArgRow[I] != ClassRows::NoRow)
            Launch = std::max(Launch, Ready[Rows.ArgRow[I] * NC + UC] + 1);
        if (GuardRow && (MT.IsLoad || MT.IsStore))
          Launch = std::max(Launch, earliest(*GuardRow) + 1);
        if (Launch >= Never)
          continue;
        for (unsigned C = 0; C < NC; ++C) {
          unsigned Delay = Opts.SingleCluster || MT.IsStore || UC == C
                               ? 0
                               : M.crossClusterDelay();
          int Done = Launch + static_cast<int>(MT.Latency - 1 + Delay);
          int &Slot = Ready[TermRow[T] * NC + C];
          if (Done < Slot) {
            Slot = Done;
            Changed = true;
          }
        }
      }
    }
  }

  unsigned Bound = 0;
  for (const NamedGoal &Goal : Goals) {
    ClassId Q = G.find(Goal.Class);
    if (U.isFree(Q))
      continue;
    int GoalReady = earliest(Rows.rowOf(G, Q));
    if (GoalReady >= Never)
      return std::numeric_limits<unsigned>::max();
    Bound = std::max(Bound, static_cast<unsigned>(GoalReady) + 1);
  }
  return Bound;
}

sat::Lit Encoder::budgetAssumption(unsigned K) const {
  assert(K >= 1 && K < ExceedVars.size() && ExceedVars[K] >= 0 &&
         "budget outside the monotone encode's range");
  return Lit::neg(ExceedVars[K]);
}

machine::Program Encoder::extract(const Solver &S,
                                  const std::vector<NamedGoal> &Goals,
                                  const EncoderOptions &Opts,
                                  const std::string &Name) const {
  const std::vector<MachineTerm> &Terms = U.terms();
  machine::Program P;
  P.Name = Name;
  P.Cycles = Opts.Cycles;
  P.Model = &M;

  uint32_t NextReg = 0;
  std::unordered_map<ClassId, uint32_t> InputReg;
  for (const Universe::InputInfo &In : U.inputs()) {
    uint32_t R = NextReg++;
    P.Inputs.push_back(machine::ProgramInput{R, In.Name, In.IsMemory});
    InputReg[In.Class] = R;
  }

  struct Launch {
    size_t Term;
    machine::UnitId Un;
    unsigned Cycle;
    uint32_t VReg;
  };
  // Dense scan in (term, unit, cycle) order — the same deterministic order
  // the old tree-map iteration produced. In monotone mode launches beyond
  // the SAT budget are false in the model (forced by the assumption), so
  // scanning all encoded cycles is still exact.
  std::vector<Launch> Launches;
  for (size_t T = 0; T < Terms.size(); ++T) {
    for (unsigned UIdx = 0; UIdx < NumUnits; ++UIdx) {
      for (unsigned I = 0; I < LastCycles; ++I) {
        sat::Var V = LDense[lIndex(T, UIdx, I)];
        if (V < 0 || !S.modelValue(V))
          continue;
        Launches.push_back(
            Launch{T, static_cast<machine::UnitId>(UIdx), I, NextReg++});
      }
    }
  }

  // Producer lookup: the launch of a term in class Q whose result is usable
  // on cluster C at the start of cycle I, completing earliest.
  auto findProducer = [&](ClassId Q, unsigned C,
                          unsigned I) -> const Launch * {
    Q = G.find(Q);
    const Launch *Best = nullptr;
    unsigned BestReady = ~0u;
    for (const Launch &L : Launches) {
      const MachineTerm &MT = Terms[L.Term];
      if (G.find(MT.Class) != Q)
        continue;
      unsigned XD = (Opts.SingleCluster || MT.IsStore ||
                     clusterOfUnit(L.Un, Opts) == C)
                        ? 0
                        : M.crossClusterDelay();
      unsigned Ready = L.Cycle + MT.Latency + XD;
      if (Ready > I)
        continue;
      if (Ready < BestReady) {
        BestReady = Ready;
        Best = &L;
      }
    }
    return Best;
  };

  // Wire instructions.
  std::unordered_map<const Launch *, machine::Instruction> Built;
  for (const Launch &L : Launches) {
    const MachineTerm &MT = Terms[L.Term];
    machine::Instruction I;
    I.Mnemonic = MT.Desc->Mnemonic;
    I.Op = MT.Desc->Op;
    I.Dest = L.VReg;
    I.Cycle = L.Cycle;
    I.IssueUnit = L.Un;
    I.Latency = MT.Latency;
    I.Mem = MT.Desc->Mem;
    I.Disp = MT.Disp;
    I.SourceTerm = static_cast<int32_t>(L.Term);
    if (MT.IsLdiq) {
      I.Srcs.push_back(machine::Operand::imm(MT.ConstVal));
    } else {
      for (size_t ArgIdx = 0; ArgIdx < MT.Args.size(); ++ArgIdx) {
        ClassId A = MT.Args[ArgIdx];
        std::optional<uint64_t> KConst = G.classConstant(A);
        if (U.isFree(A)) {
          if (KConst && *KConst == 0) {
            I.Srcs.push_back(machine::Operand::imm(0)); // Zero register.
            continue;
          }
          auto It = InputReg.find(G.find(A));
          assert(It != InputReg.end() && "free class without input");
          I.Srcs.push_back(machine::Operand::reg(It->second));
          continue;
        }
        if (U.isImmOperand(G, *MT.Desc, ArgIdx, MT.Args.size(), A)) {
          I.Srcs.push_back(machine::Operand::imm(*KConst));
          continue;
        }
        const Launch *Prod =
            findProducer(A, clusterOfUnit(L.Un, Opts), L.Cycle);
        if (!Prod)
          reportFatalError(strFormat(
              "extraction: no producer for class c%u needed by '%s' at "
              "cycle %u (encoder/extractor mismatch)",
              G.find(A), I.Mnemonic.c_str(), L.Cycle));
        I.Srcs.push_back(machine::Operand::reg(Prod->VReg));
      }
    }
    Built.emplace(&L, std::move(I));
  }

  // Outputs: choose, per goal, the earliest-completing producer.
  std::unordered_set<uint32_t> OutputRegs;
  for (const NamedGoal &Goal : Goals) {
    ClassId Q = G.find(Goal.Class);
    if (U.isFree(Q)) {
      std::optional<uint64_t> KConst = G.classConstant(Q);
      assert(!KConst || *KConst != 0 ||
             !"literal-zero results are not expected from GMAs");
      (void)KConst;
      auto It = InputReg.find(Q);
      assert(It != InputReg.end() && "free goal without input register");
      P.Outputs.push_back({Goal.Target, It->second});
      OutputRegs.insert(It->second);
      continue;
    }
    const Launch *Best = nullptr;
    unsigned BestReady = ~0u;
    for (unsigned C = 0; C < numClusters(Opts); ++C) {
      const Launch *L = findProducer(Q, C, Opts.Cycles);
      if (!L)
        continue;
      unsigned Ready = L->Cycle + Terms[L->Term].Latency;
      if (Ready < BestReady) {
        BestReady = Ready;
        Best = L;
      }
    }
    if (!Best)
      reportFatalError("extraction: goal class has no completed producer");
    P.Outputs.push_back({Goal.Target, Best->VReg});
    OutputRegs.insert(Best->VReg);
  }

  // Usage analysis: drop unused stores entirely (they would write real
  // memory outside the GMA's contract); mark other unused instructions
  // (Figure 4 keeps its "(unused)" extbl).
  bool ChangedUsage = true;
  std::unordered_set<const Launch *> Dropped;
  while (ChangedUsage) {
    ChangedUsage = false;
    std::unordered_set<uint32_t> Used(OutputRegs.begin(), OutputRegs.end());
    for (const Launch &L : Launches) {
      if (Dropped.count(&L))
        continue;
      for (const machine::Operand &Src : Built[&L].Srcs)
        if (Src.isReg())
          Used.insert(Src.Reg);
    }
    for (const Launch &L : Launches) {
      if (Dropped.count(&L))
        continue;
      if (Terms[L.Term].IsStore && !Used.count(L.VReg)) {
        Dropped.insert(&L);
        ChangedUsage = true;
      }
    }
    if (!ChangedUsage) {
      for (const Launch &L : Launches) {
        if (Dropped.count(&L))
          continue;
        Built[&L].Unused = !Used.count(L.VReg);
      }
    }
  }

  for (const Launch &L : Launches)
    if (!Dropped.count(&L))
      P.Instrs.push_back(std::move(Built[&L]));
  std::stable_sort(P.Instrs.begin(), P.Instrs.end(),
                   [](const machine::Instruction &A,
                      const machine::Instruction &B) {
                     if (A.Cycle != B.Cycle)
                       return A.Cycle < B.Cycle;
                     return A.IssueUnit < B.IssueUnit;
                   });
  P.NumVRegs = NextReg;
  return P;
}
