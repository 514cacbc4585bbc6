//===- tests/SatTests.cpp - CDCL solver unit & property tests -------------===//

#include "sat/Dimacs.h"
#include "sat/Encodings.h"
#include "sat/Solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>

using namespace denali;
using namespace denali::sat;

namespace {

Lit P(Solver &S, int V) {
  while (S.numVars() <= V)
    S.newVar();
  return Lit::pos(V);
}
Lit N(Solver &S, int V) { return ~P(S, V); }

TEST(Solver, TrivialSat) {
  Solver S;
  S.addClause(P(S, 0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
}

TEST(Solver, TrivialUnsat) {
  Solver S;
  S.addClause(P(S, 0));
  EXPECT_FALSE(S.addClause(N(S, 0)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, EmptyClauseUnsat) {
  Solver S;
  EXPECT_FALSE(S.addClause(ClauseLits{}));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, NoClausesSat) {
  Solver S;
  S.newVar();
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Solver, TautologyIgnored) {
  Solver S;
  S.addClause(ClauseLits{P(S, 0), N(S, 0)});
  S.addClause(N(S, 0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_FALSE(S.modelValue(0));
}

TEST(Solver, DuplicateLiteralsNormalized) {
  Solver S;
  S.addClause(ClauseLits{P(S, 0), P(S, 0), P(S, 0)});
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
}

TEST(Solver, UnitChain) {
  // x0 & (x0->x1) & (x1->x2) ... forces a long implication chain.
  Solver S;
  S.addClause(P(S, 0));
  for (int I = 0; I < 50; ++I)
    S.addClause(N(S, I), P(S, I + 1));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  for (int I = 0; I <= 50; ++I)
    EXPECT_TRUE(S.modelValue(I)) << "var " << I;
}

TEST(Solver, ImplicationChainUnsat) {
  Solver S;
  S.addClause(P(S, 0));
  for (int I = 0; I < 20; ++I)
    S.addClause(N(S, I), P(S, I + 1));
  S.addClause(N(S, 20));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonHole32) {
  // 3 pigeons, 2 holes: classic small UNSAT requiring real search.
  Solver S;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * 2 + Hole; };
  for (int Pigeon = 0; Pigeon < 3; ++Pigeon)
    S.addClause(P(S, VarOf(Pigeon, 0)), P(S, VarOf(Pigeon, 1)));
  for (int Hole = 0; Hole < 2; ++Hole)
    for (int P1 = 0; P1 < 3; ++P1)
      for (int P2 = P1 + 1; P2 < 3; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonHole54) {
  // 5 pigeons, 4 holes: forces clause learning through deeper search.
  Solver S;
  const int Holes = 4, Pigeons = 5;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, XorChainSat) {
  // Parity constraints encoded as CNF over a chain; satisfiable.
  Solver S;
  const int Chain = 12;
  for (int I = 0; I < Chain; ++I) {
    // x(I) xor x(I+1) = aux(I), with aux all forced true.
    int A = I, B = I + 1, X = Chain + 1 + I;
    S.addClause(N(S, A), N(S, B), N(S, X));
    S.addClause(P(S, A), P(S, B), N(S, X));
    S.addClause(P(S, A), N(S, B), P(S, X));
    S.addClause(N(S, A), P(S, B), P(S, X));
    S.addClause(P(S, X));
  }
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  // Verify the parity relation in the model.
  for (int I = 0; I < Chain; ++I)
    EXPECT_NE(S.modelValue(I), S.modelValue(I + 1));
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole with a tiny budget must report Unknown.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  S.setConflictBudget(5);
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
}

//===----------------------------------------------------------------------===
// Incremental solving under assumptions.
//===----------------------------------------------------------------------===

TEST(Assumptions, SatAndUnsatOnOneSolver) {
  Solver S;
  S.addClause(P(S, 0), P(S, 1)); // x0 v x1
  EXPECT_EQ(S.solve({N(S, 0)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
  EXPECT_EQ(S.solve({N(S, 0), N(S, 1)}), SolveResult::Unsat);
  // The same solver keeps working after an assumption refutation.
  EXPECT_EQ(S.solve({P(S, 0)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Assumptions, FailedAssumptionSetIsRelevantSubset) {
  // x0 -> x1 -> x2; assuming {x0, ~x2, x3} fails because of x0 and ~x2
  // only — x3 is irrelevant and must not appear in the final conflict.
  Solver S;
  S.addClause(N(S, 0), P(S, 1));
  S.addClause(N(S, 1), P(S, 2));
  (void)P(S, 3);
  ASSERT_EQ(S.solve({Lit::pos(0), Lit::neg(2), Lit::pos(3)}),
            SolveResult::Unsat);
  const ClauseLits &Conflict = S.conflict();
  ASSERT_FALSE(Conflict.empty());
  for (Lit L : Conflict) {
    // Every literal is the negation of a responsible assumption.
    EXPECT_TRUE(L == Lit::neg(0) || L == Lit::pos(2));
  }
  // Both responsible assumptions are reported.
  EXPECT_EQ(Conflict.size(), 2u);
}

TEST(Assumptions, ContradictoryAssumptions) {
  Solver S;
  (void)P(S, 0);
  EXPECT_EQ(S.solve({Lit::pos(0), Lit::neg(0)}), SolveResult::Unsat);
  for (Lit L : S.conflict())
    EXPECT_EQ(L.var(), 0);
}

TEST(Assumptions, RepeatedSolvesKeepModels) {
  // An 8-var ring of implications; assumptions flip the whole ring.
  Solver S;
  const int NumVars = 8;
  for (int I = 0; I < NumVars; ++I) {
    S.addClause(N(S, I), P(S, (I + 1) % NumVars));
    S.addClause(P(S, I), N(S, (I + 1) % NumVars));
  }
  for (int Round = 0; Round < 4; ++Round) {
    bool Phase = Round & 1;
    ASSERT_EQ(S.solve({Lit(0, /*Negative=*/!Phase)}), SolveResult::Sat);
    for (int I = 0; I < NumVars; ++I)
      EXPECT_EQ(S.modelValue(I), Phase) << "round " << Round << " var " << I;
  }
  EXPECT_EQ(S.solve({Lit::pos(0), Lit::neg(4)}), SolveResult::Unsat);
}

TEST(Assumptions, AddClausesBetweenSolves) {
  Solver S;
  S.addClause(P(S, 0), P(S, 1), P(S, 2));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  S.addClause(N(S, 0));
  ASSERT_EQ(S.solve({Lit::neg(1)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(2));
  S.addClause(N(S, 2));
  EXPECT_EQ(S.solve({Lit::neg(1)}), SolveResult::Unsat);
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
}

TEST(Assumptions, ConflictBudgetIsPerCall) {
  // A hard pigeonhole: each tiny-budget call must give up on its own
  // budget (the counter resets per call, it is not a lifetime cap), and
  // an unlimited call on the same solver still finishes the refutation.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  S.setConflictBudget(5);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unknown);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 1))}), SolveResult::Unknown);
  S.setConflictBudget(0);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unsat);
}

TEST(Assumptions, InterruptWindsDownSolve) {
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  std::atomic<bool> Cancel(true); // Cancelled before the call even starts.
  S.setInterrupt(&Cancel);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unknown);
  EXPECT_TRUE(S.interrupted());
  Cancel = false;
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unsat);
  EXPECT_FALSE(S.interrupted());
}

TEST(Solver, ArenaCompactionKeepsRefutation) {
  // Pigeonhole 9-into-8 takes ~17k conflicts, enough for reduceDB to free
  // learnt clauses worth more than a third of the arena several times —
  // each time the arena is compacted in place (watcher and reason cross
  // references remapped) and the refutation must still come out.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().ArenaCollections, 0u);
  EXPECT_GT(S.stats().ArenaWordsReclaimed, 0u);
}

TEST(Assumptions, AgreesWithFreshSolverOnRandomCnf) {
  // Property: solve(assumptions) equals a fresh solve of CNF + assumption
  // units, across a ladder of assumption sets on one long-lived solver.
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    std::mt19937 Rng(Seed * 7919 + 13);
    const int NumVars = 12;
    const int NumClauses = 51;
    std::vector<ClauseLits> Clauses;
    for (int I = 0; I < NumClauses; ++I) {
      ClauseLits C;
      for (int J = 0; J < 3; ++J)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Clauses.push_back(C);
    }
    Solver Inc;
    for (int I = 0; I < NumVars; ++I)
      Inc.newVar();
    for (const ClauseLits &C : Clauses)
      Inc.addClause(C);
    for (int Probe = 0; Probe < 6; ++Probe) {
      std::vector<Lit> Assumptions;
      for (int J = 0; J < 1 + Probe % 3; ++J)
        Assumptions.push_back(
            Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Solver Fresh;
      for (int I = 0; I < NumVars; ++I)
        Fresh.newVar();
      for (const ClauseLits &C : Clauses)
        Fresh.addClause(C);
      for (Lit A : Assumptions)
        Fresh.addClause(A);
      EXPECT_EQ(Inc.solve(Assumptions), Fresh.solve())
          << "seed " << Seed << " probe " << Probe;
    }
  }
}

//===----------------------------------------------------------------------===
// Model validity: every Sat answer must actually satisfy all clauses.
//===----------------------------------------------------------------------===

bool modelSatisfies(const Solver &S, const std::vector<ClauseLits> &Clauses) {
  for (const ClauseLits &C : Clauses) {
    bool Any = false;
    for (Lit L : C)
      Any |= S.modelValue(L);
    if (!Any)
      return false;
  }
  return true;
}

/// Brute-force SAT check for up to ~20 variables.
bool bruteForceSat(int NumVars, const std::vector<ClauseLits> &Clauses) {
  for (uint64_t Mask = 0; Mask < (1ULL << NumVars); ++Mask) {
    bool AllSat = true;
    for (const ClauseLits &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        Any |= L.negative() ? !V : V;
      }
      if (!Any) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

class RandomCnf : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  const int NumVars = 12;
  // Near the 3-SAT phase transition (~4.26 clauses/var) both outcomes occur.
  const int NumClauses = 51;
  std::vector<ClauseLits> Clauses;
  for (int I = 0; I < NumClauses; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    Clauses.push_back(C);
  }
  Solver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  for (const ClauseLits &C : Clauses)
    S.addClause(C);
  SolveResult R = S.solve();
  bool Expected = bruteForceSat(NumVars, Clauses);
  EXPECT_EQ(R, Expected ? SolveResult::Sat : SolveResult::Unsat);
  if (R == SolveResult::Sat) {
    EXPECT_TRUE(modelSatisfies(S, Clauses));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf, ::testing::Range(0u, 40u));

//===----------------------------------------------------------------------===
// Clause intake: normalization (sort, dedup, tautology, level-0 literals)
// as seen through numClauses(), problemClauses() and addClause's answer.
//===----------------------------------------------------------------------===

/// \p C as signed 1-based DIMACS numbers separated by spaces.
std::string clauseText(const ClauseLits &C) {
  std::string Out;
  for (size_t I = 0; I < C.size(); ++I) {
    if (I)
      Out += ' ';
    Out += std::to_string(C[I].negative() ? -(C[I].var() + 1)
                                          : C[I].var() + 1);
  }
  return Out;
}

/// The problem as text: clauses joined by " | ", "[]" for the empty
/// clause.
std::string problemText(const Solver &S) {
  std::string Out;
  for (const ClauseLits &C : S.problemClauses()) {
    if (!Out.empty())
      Out += " | ";
    Out += C.empty() ? "[]" : clauseText(C);
  }
  return Out;
}

TEST(ClauseIntake, DuplicatesCollapse) {
  Solver S;
  Lit A = P(S, 0), B = P(S, 1);
  EXPECT_TRUE(S.addClause(ClauseLits{B, A, A, B}));
  EXPECT_EQ(S.numClauses(), 1u);
  EXPECT_EQ(problemText(S), "1 2");
  EXPECT_TRUE(S.addClause(A, A)); // A unit once deduplicated.
  EXPECT_EQ(S.numClauses(), 2u);
  EXPECT_EQ(problemText(S), "1 | 1 2");
}

TEST(ClauseIntake, TautologiesAreSkipped) {
  Solver S;
  Lit A = P(S, 0), B = P(S, 1);
  EXPECT_TRUE(S.addClause(A, B, ~A));
  EXPECT_TRUE(S.addClause(ClauseLits{~B, B}));
  EXPECT_EQ(S.numClauses(), 0u);
  EXPECT_EQ(problemText(S), "");
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(ClauseIntake, LevelZeroLiterals) {
  Solver S;
  Lit A = P(S, 0), B = P(S, 1), C = P(S, 2);
  EXPECT_TRUE(S.addClause(A));
  EXPECT_TRUE(S.addClause(B, A)); // True at level 0: skipped.
  EXPECT_EQ(S.numClauses(), 1u);
  EXPECT_TRUE(S.addClause(~A, B, C)); // ~A dropped.
  EXPECT_EQ(S.numClauses(), 2u);
  EXPECT_EQ(problemText(S), "1 | 2 3");
  EXPECT_TRUE(S.addClause(~A, B)); // Shrinks to the unit B.
  EXPECT_EQ(S.numClauses(), 3u);
  EXPECT_EQ(problemText(S), "1 | 2 | 2 3");
}

TEST(ClauseIntake, UnitsPropagateThenRefute) {
  Solver S;
  Lit A = P(S, 0), B = P(S, 1), C = P(S, 2), D = P(S, 3);
  EXPECT_TRUE(S.addClause(~A, B));
  EXPECT_TRUE(S.addClause(~B, C));
  // Propagating B, then C, moves each falsified watch behind the true one
  // in the stored clause.
  EXPECT_TRUE(S.addClause(A));
  EXPECT_EQ(S.numClauses(), 3u);
  EXPECT_EQ(problemText(S), "1 | 2 -1 | 3 -2");
  EXPECT_TRUE(S.addClause(~C, D)); // C is true: the unit D.
  EXPECT_EQ(S.numClauses(), 4u);
  EXPECT_EQ(problemText(S), "1 | 4 | 2 -1 | 3 -2");
  EXPECT_FALSE(S.addClause(~C)); // Every literal false: empty.
  EXPECT_EQ(S.numClauses(), 5u);
  EXPECT_EQ(problemText(S), "[]");
  EXPECT_FALSE(S.addClause(D)); // Nothing is counted once unsatisfiable.
  EXPECT_EQ(S.numClauses(), 5u);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_EQ(S.stats().Conflicts, 0u);
}

TEST(ClauseIntake, PropagatedConflictAtAddTime) {
  Solver S;
  Lit A = P(S, 0), B = P(S, 1);
  EXPECT_TRUE(S.addClause(~A, B));
  EXPECT_TRUE(S.addClause(~A, ~B));
  EXPECT_FALSE(S.addClause(A));
  EXPECT_EQ(S.numClauses(), 3u);
  EXPECT_EQ(problemText(S), "[]");
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_EQ(S.stats().Conflicts, 0u);
}

TEST(ClauseIntake, EmptyClause) {
  Solver S;
  S.newVar();
  EXPECT_FALSE(S.addClause(ClauseLits{}));
  EXPECT_EQ(S.numClauses(), 1u);
  EXPECT_EQ(problemText(S), "[]");
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(ClauseIntake, AtMostOneGroups) {
  {
    Solver S;
    ClauseLits Group{P(S, 0), P(S, 1), P(S, 2)};
    addAtMostOne(S, Group, AtMostOneStyle::Pairwise);
    EXPECT_EQ(S.numClauses(), 3u);
    EXPECT_EQ(problemText(S), "-1 -2 | -1 -3 | -2 -3");
  }
  {
    // One member true at level 0: the others become units, and the pair
    // clause between them is already satisfied.
    Solver S;
    ClauseLits Group{P(S, 0), P(S, 1), P(S, 2)};
    S.addClause(Group[0]);
    addAtMostOne(S, Group, AtMostOneStyle::Pairwise);
    EXPECT_EQ(S.numClauses(), 3u);
    EXPECT_EQ(problemText(S), "1 | -2 | -3");
  }
  {
    // Ladder over five literals (aux variables 6..9).
    Solver S;
    ClauseLits Group;
    for (int I = 0; I < 5; ++I)
      Group.push_back(P(S, I));
    addAtMostOne(S, Group, AtMostOneStyle::Ladder);
    EXPECT_EQ(S.numVars(), 9);
    EXPECT_EQ(S.numClauses(), 11u);
    EXPECT_EQ(problemText(S), "-1 6 | -2 7 | -6 7 | -2 -6 | -3 8 | -7 8 | "
                              "-3 -7 | -4 9 | -8 9 | -4 -8 | -5 -9");
  }
  {
    // A repeated member: pairwise emits (~a | ~a), the unit ~a, which
    // satisfies the last pair (~b | ~a) before it is counted.
    Solver S;
    Lit A = P(S, 0), B = P(S, 1);
    addAtMostOne(S, ClauseLits{A, B, A}, AtMostOneStyle::Pairwise);
    EXPECT_EQ(S.numClauses(), 2u);
    EXPECT_EQ(problemText(S), "-1 | -1 -2");
  }
}

TEST(ClauseIntake, PointerEntryMatchesVectorEntry) {
  // Random clause streams with duplicates, tautologies and units, fed once
  // through the (pointer, size) entry and once through ClauseLits and the
  // small-arity overloads: identical answers, counts and problems. Clause
  // widths vary so the reused scratch buffer both grows and shrinks.
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    std::mt19937 Rng(Seed);
    Solver ByPtr, ByVec;
    const int NumVars = 12;
    for (int V = 0; V < NumVars; ++V) {
      ByPtr.newVar();
      ByVec.newVar();
    }
    for (int I = 0; I < 40; ++I) {
      ClauseLits C;
      size_t Width = Rng() % 7;
      for (size_t J = 0; J < Width; ++J)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      if (C.empty() && Rng() % 4 != 0)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      bool ViaPtr = ByPtr.addClause(C.data(), C.size());
      bool ViaVec = C.size() == 1   ? ByVec.addClause(C[0])
                    : C.size() == 2 ? ByVec.addClause(C[0], C[1])
                    : C.size() == 3 ? ByVec.addClause(C[0], C[1], C[2])
                                    : ByVec.addClause(C);
      ASSERT_EQ(ViaPtr, ViaVec) << "seed " << Seed << " clause " << I;
      ASSERT_EQ(ByPtr.numClauses(), ByVec.numClauses());
      ASSERT_EQ(problemText(ByPtr), problemText(ByVec));
    }
    EXPECT_EQ(ByPtr.solve(), ByVec.solve()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===
// Cardinality encodings.
//===----------------------------------------------------------------------===

class AtMostOneTest
    : public ::testing::TestWithParam<std::tuple<int, AtMostOneStyle>> {};

TEST_P(AtMostOneTest, ForbidsPairsAllowsSingles) {
  auto [Width, Style] = GetParam();
  // Allowed: exactly one true (and none true).
  for (int True1 = -1; True1 < Width; ++True1) {
    Solver S;
    ClauseLits Group;
    for (int I = 0; I < Width; ++I)
      Group.push_back(P(S, I));
    addAtMostOne(S, Group, Style);
    for (int I = 0; I < Width; ++I)
      S.addClause(I == True1 ? P(S, I) : N(S, I));
    EXPECT_EQ(S.solve(), SolveResult::Sat) << "single " << True1;
  }
  // Forbidden: any pair.
  for (int A = 0; A < Width; ++A) {
    for (int B = A + 1; B < Width; ++B) {
      Solver S;
      ClauseLits Group;
      for (int I = 0; I < Width; ++I)
        Group.push_back(P(S, I));
      addAtMostOne(S, Group, Style);
      S.addClause(P(S, A));
      S.addClause(P(S, B));
      EXPECT_EQ(S.solve(), SolveResult::Unsat) << "pair " << A << "," << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AtMostOneTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 9),
                       ::testing::Values(AtMostOneStyle::Pairwise,
                                         AtMostOneStyle::Ladder)));

TEST(Encodings, ExactlyOneRequiresOne) {
  Solver S;
  ClauseLits Group{P(S, 0), P(S, 1), P(S, 2)};
  addExactlyOne(S, Group);
  S.addClause(N(S, 0));
  S.addClause(N(S, 1));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(2));
}

TEST(Encodings, AtMostKBoundary) {
  for (unsigned K = 1; K <= 3; ++K) {
    for (unsigned ForceTrue = 0; ForceTrue <= 5; ++ForceTrue) {
      Solver S;
      ClauseLits Group;
      for (int I = 0; I < 5; ++I)
        Group.push_back(P(S, I));
      addAtMostK(S, Group, K);
      for (unsigned I = 0; I < ForceTrue; ++I)
        S.addClause(P(S, static_cast<int>(I)));
      SolveResult R = S.solve();
      EXPECT_EQ(R, ForceTrue <= K ? SolveResult::Sat : SolveResult::Unsat)
          << "K=" << K << " forced=" << ForceTrue;
    }
  }
}

//===----------------------------------------------------------------------===
// DIMACS round trip.
//===----------------------------------------------------------------------===

TEST(Dimacs, RoundTrip) {
  Cnf F;
  F.NumVars = 3;
  F.Clauses = {{Lit::pos(0), Lit::neg(1)}, {Lit::pos(2)}};
  std::string Text = F.toDimacs();
  Cnf G;
  std::string Err;
  ASSERT_TRUE(parseDimacs(Text, G, &Err)) << Err;
  EXPECT_EQ(G.NumVars, 3);
  ASSERT_EQ(G.Clauses.size(), 2u);
  EXPECT_EQ(G.Clauses[0], F.Clauses[0]);
  EXPECT_EQ(G.Clauses[1], F.Clauses[1]);
}

TEST(Dimacs, ParseWithComments) {
  Cnf F;
  std::string Err;
  ASSERT_TRUE(parseDimacs("c comment\np cnf 2 2\n1 -2 0\n2 0\n", F, &Err));
  Solver S;
  EXPECT_TRUE(F.loadInto(S));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
}

TEST(Dimacs, RejectsGarbage) {
  Cnf F;
  std::string Err;
  EXPECT_FALSE(parseDimacs("p dnf 1 1\n1 0\n", F, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Dimacs, LoadUnsat) {
  Cnf F;
  std::string Err;
  ASSERT_TRUE(parseDimacs("p cnf 1 2\n1 0\n-1 0\n", F, &Err));
  Solver S;
  F.loadInto(S);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

} // namespace

TEST(Dimacs, ExportedProblemIsEquisatisfiable) {
  // Export through problemClauses and re-solve with a fresh solver; the
  // answers must agree (this is the paper's swap-the-solver workflow).
  std::mt19937 Rng(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Solver S;
    const int NumVars = 10;
    for (int I = 0; I < NumVars; ++I)
      S.newVar();
    std::vector<ClauseLits> Clauses;
    for (int I = 0; I < 43; ++I) {
      ClauseLits C;
      for (int J = 0; J < 3; ++J)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Clauses.push_back(C);
      S.addClause(C);
    }
    Cnf F;
    F.NumVars = S.numVars();
    F.Clauses = S.problemClauses();
    std::string Text = F.toDimacs();
    Cnf Parsed;
    std::string Err;
    ASSERT_TRUE(parseDimacs(Text, Parsed, &Err)) << Err;
    Solver S2;
    Parsed.loadInto(S2);
    EXPECT_EQ(S.solve(), S2.solve()) << "trial " << Trial;
  }
}

TEST(Dimacs, ExportUnsatProblem) {
  Solver S;
  S.addClause(Lit::pos(S.newVar()));
  S.addClause(Lit::neg(0));
  auto Clauses = S.problemClauses();
  ASSERT_EQ(Clauses.size(), 1u);
  EXPECT_TRUE(Clauses[0].empty()); // The empty clause.
}

//===----------------------------------------------------------------------===
// Proof logging and RUP checking.
//===----------------------------------------------------------------------===

#include "sat/RupChecker.h"

namespace {

Cnf collectFormula(const std::vector<ClauseLits> &Clauses, int NumVars) {
  Cnf F;
  F.NumVars = NumVars;
  F.Clauses = Clauses;
  return F;
}

TEST(RupProof, PigeonholeCertified) {
  // Refute pigeonhole(5, 4) and check the proof independently.
  Solver S;
  const int Holes = 4, Pigeons = 5;
  std::vector<ClauseLits> Formula;
  auto VarOf = [&](int Pg, int H) { return Pg * Holes + H; };
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  S.enableProofLogging();
  for (int Pg = 0; Pg < Pigeons; ++Pg) {
    ClauseLits Row;
    for (int H = 0; H < Holes; ++H)
      Row.push_back(Lit::pos(VarOf(Pg, H)));
    Formula.push_back(Row);
    S.addClause(Row);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2) {
        ClauseLits C{Lit::neg(VarOf(P1, H)), Lit::neg(VarOf(P2, H))};
        Formula.push_back(C);
        S.addClause(C);
      }
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  ASSERT_FALSE(S.proof().empty());
  EXPECT_TRUE(S.proof().back().empty());
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, S.numVars()), S.proof(),
                            &Err))
      << Err;
}

TEST(RupProof, TamperedProofRejected) {
  Solver S;
  std::vector<ClauseLits> Formula;
  for (int I = 0; I < 6; ++I)
    S.newVar();
  S.enableProofLogging();
  // An unsatisfiable chain: x0, x_i -> x_{i+1}, ~x5.
  auto add = [&](ClauseLits C) {
    Formula.push_back(C);
    S.addClause(C);
  };
  add({Lit::pos(0)});
  for (int I = 0; I < 5; ++I)
    add({Lit::neg(I), Lit::pos(I + 1)});
  add({Lit::neg(5)});
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  // The genuine proof checks...
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, 6), S.proof(), &Err))
      << Err;
  // ...a fabricated lemma does not.
  std::vector<ClauseLits> Tampered = {{Lit::pos(3), Lit::pos(4)},
                                      ClauseLits{}};
  Cnf Satisfiable;
  Satisfiable.NumVars = 6;
  Satisfiable.Clauses = {{Lit::pos(0), Lit::pos(1)}};
  EXPECT_FALSE(checkRupProof(Satisfiable, Tampered, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(RupProof, MissingEmptyClauseRejected) {
  Cnf F;
  F.NumVars = 2;
  F.Clauses = {{Lit::pos(0)}, {Lit::neg(0), Lit::pos(1)}};
  std::vector<ClauseLits> Proof = {{Lit::pos(1)}}; // Valid RUP, no bottom.
  std::string Err;
  EXPECT_FALSE(checkRupProof(F, Proof, &Err));
  EXPECT_NE(Err.find("empty clause"), std::string::npos);
}

TEST(RupProof, TrivialUnsatAtAddTime) {
  Solver S;
  S.newVar();
  S.enableProofLogging();
  std::vector<ClauseLits> Formula = {{Lit::pos(0)}, {Lit::neg(0)}};
  for (const ClauseLits &C : Formula)
    S.addClause(C);
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, 1), S.proof(), &Err))
      << Err;
}

class RandomUnsatProofs : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomUnsatProofs, AllCertified) {
  // Random over-constrained 3-SAT instances: every Unsat answer must come
  // with a checkable proof.
  std::mt19937 Rng(GetParam() * 7717 + 3);
  const int NumVars = 10;
  const int NumClauses = 70; // Far past the phase transition.
  Solver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  S.enableProofLogging();
  std::vector<ClauseLits> Formula;
  for (int I = 0; I < NumClauses; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    Formula.push_back(C);
    S.addClause(C);
  }
  if (S.solve() != SolveResult::Unsat)
    GTEST_SKIP() << "instance happened to be satisfiable";
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, NumVars), S.proof(),
                            &Err))
      << Err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomUnsatProofs, ::testing::Range(0u, 15u));

} // namespace

//===----------------------------------------------------------------------===
// Clause minimization on hand-built implication graphs. Assumptions act as
// the decisions, one level each, and the last one triggers the conflict, so
// each test fixes exactly which analysis runs. The tests read back the
// first learnt clause from the proof log, or its provenance through
// coreTags(). Variables are numbered from 1 in the comments and the
// expected clauses (DIMACS style).
//===----------------------------------------------------------------------===

namespace {

/// \p Dimacs (signed, 1-based literals) as a clause.
ClauseLits dimacsClause(const std::vector<int> &Dimacs) {
  ClauseLits Lits;
  for (int D : Dimacs)
    Lits.push_back(Lit(std::abs(D) - 1, D < 0));
  return Lits;
}

/// A solver over \p NumVars variables holding \p Clauses (DIMACS
/// literals), with proof logging on.
void loadDimacs(Solver &S, int NumVars,
                const std::vector<std::vector<int>> &Clauses) {
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  S.enableProofLogging();
  for (const std::vector<int> &C : Clauses)
    S.addClause(dimacsClause(C));
}

/// Adds the clause \p Clause (DIMACS literals) stamped with \p Tag.
void addTagged(Solver &S, uint32_t Tag, const std::vector<int> &Clause) {
  S.setClauseTag(Tag);
  S.addClause(dimacsClause(Clause));
  S.setClauseTag(0);
}

/// Solves under the positive literals \p Decisions (DIMACS variables) and
/// \returns the first learnt clause.
std::string firstLearnt(Solver &S, const std::vector<int> &Decisions) {
  std::vector<Lit> Assumptions;
  for (int D : Decisions)
    Assumptions.push_back(Lit::pos(D - 1));
  EXPECT_EQ(S.solve(Assumptions), SolveResult::Unsat);
  EXPECT_GE(S.proof().size(), 2u); // The learnt clause, then the final one.
  if (S.proof().empty())
    return "";
  ClauseLits Learnt = S.proof()[0];
  std::sort(Learnt.begin(), Learnt.end());
  return clauseText(Learnt);
}

TEST(Minimization, SharedConeReachingOutsideDecisionKeepsBoth) {
  // Level 1: decision 1 implies 2, and 2 implies both 3 and 4. Level 2:
  // decision 5 implies 6 and 7, which contradict 3 and 4. The first UIP
  // clause is (-3 -4 -5); 3's check walks 3 <- 2 <- 1 and fails on
  // decision 1, which is outside the clause. 4's check meets 2 again and
  // fails on the verdict already recorded for it, without expanding 2's
  // reason a second time.
  Solver S;
  loadDimacs(S, 7,
             {{-1, 2}, {-2, 3}, {-2, 4}, {-5, 6}, {-5, 7}, {-6, -7, -3, -4}});
  EXPECT_EQ(firstLearnt(S, {1, 5}), "-3 -4 -5");
}

TEST(Minimization, SharedRemovableConeDropsBoth) {
  // As above, but the conflict also holds decision 1 itself: 2 is implied
  // by a clause literal, so 3 and 4 are both redundant, the second through
  // 2's recorded verdict.
  Solver S;
  loadDimacs(S, 7,
             {{-1, 2},
              {-2, 3},
              {-2, 4},
              {-5, 6},
              {-5, 7},
              {-6, -7, -3, -4, -1}});
  EXPECT_EQ(firstLearnt(S, {1, 5}), "-1 -5");
}

TEST(Minimization, AbstractLevelRejection) {
  // Level 1: decision 1 implies 2. Level 2: decision 3 implies 4, and 2
  // with 4 implies 5. Level 3: decision 6 implies 7 and 8, which
  // contradict 5 and 3. The clause (-3 -5 -6) holds no level-1 literal, so
  // 5's check stops at 2 without expanding it: nothing at level 1 can be
  // implied by the clause.
  {
    Solver S;
    loadDimacs(S, 8,
               {{-1, 2},
                {-3, 4},
                {-2, -4, 5},
                {-6, 7},
                {-6, 8},
                {-7, -8, -5, -3}});
    EXPECT_EQ(firstLearnt(S, {1, 3, 6}), "-3 -5 -6");
  }
  // With 2 in the conflict, level 1 is in the clause and 5 is redundant.
  {
    Solver S;
    loadDimacs(S, 8,
               {{-1, 2},
                {-3, 4},
                {-2, -4, 5},
                {-6, 7},
                {-6, 8},
                {-7, -8, -5, -3, -2}});
    EXPECT_EQ(firstLearnt(S, {1, 3, 6}), "-2 -3 -6");
  }
}

TEST(Minimization, FailedCheckTagsStayOutOfTheCore) {
  // Solve 1 learns L = (-3 -4 -6) from decisions 1 and 6: 6 implies 7 and
  // 8, which contradict 3 and 4 (tag 4). The checks of 3 and 4 expand
  // their reasons (tags 2, 3, and 2's reason, tag 1, down to decision 1)
  // and fail, so neither literal is dropped and none of those reasons is
  // resolved into L: L's provenance is tags 4, 7 and 8 only. 9 is implied
  // by 4 (tag 9) and feeds 3's reason, so 3's check may prove it removable
  // before failing; its reason is not resolved into L either.
  //
  // Solve 2 assumes 5 and then 6: 5 implies 3 and 4 directly (tags 5, 6),
  // L propagates -6, and the final conflict rests on L and on tags 5 and
  // 6. The reasons the failed checks expanded must not appear.
  Solver S;
  for (int I = 0; I < 9; ++I)
    S.newVar();
  S.enableCoreTracking();
  addTagged(S, 1, {-1, 2});
  addTagged(S, 2, {-2, -9, 3});
  addTagged(S, 3, {-2, 4});
  addTagged(S, 9, {-4, 9});
  addTagged(S, 4, {-7, -8, -3, -4});
  addTagged(S, 5, {-5, 3});
  addTagged(S, 6, {-5, 4});
  addTagged(S, 7, {-6, 7});
  addTagged(S, 8, {-6, 8});
  ASSERT_EQ(S.solve({Lit::pos(0), Lit::pos(5)}), SolveResult::Unsat);
  ASSERT_EQ(S.solve({Lit::pos(4), Lit::pos(5)}), SolveResult::Unsat);
  EXPECT_EQ(S.coreTags(), (std::vector<uint32_t>{4, 5, 6, 7, 8}));
}

TEST(Minimization, RemovedConeTagsJoinTheCore) {
  // Solve 1, from decisions 1 and 4: 1 implies 2 (tag 1) and 2 implies 3
  // (tag 2); 4 implies 5 and 6 (tags 7, 8), which contradict 3 and 1
  // (tag 4). Minimization drops 3 from (-1 -3 -4): 3 <- 2 <- 1 ends in a
  // clause literal, so L = (-1 -4) is resolved with 3's reason and with
  // 2's, one level further down, and its provenance is tags 1, 2, 4, 7
  // and 8.
  //
  // Solve 2 assumes 7 and then 4: 7 implies 1 (tag 5), L propagates -4,
  // and the final conflict walks only L and 1's reason, so tags 1 and 2
  // reach the core through L's provenance alone.
  Solver S;
  for (int I = 0; I < 7; ++I)
    S.newVar();
  S.enableCoreTracking();
  addTagged(S, 1, {-1, 2});
  addTagged(S, 2, {-2, 3});
  addTagged(S, 4, {-5, -6, -3, -1});
  addTagged(S, 5, {-7, 1});
  addTagged(S, 7, {-4, 5});
  addTagged(S, 8, {-4, 6});
  ASSERT_EQ(S.solve({Lit::pos(0), Lit::pos(3)}), SolveResult::Unsat);
  ASSERT_EQ(S.solve({Lit::pos(6), Lit::pos(3)}), SolveResult::Unsat);
  EXPECT_EQ(S.coreTags(), (std::vector<uint32_t>{1, 2, 4, 5, 7, 8}));
}

} // namespace

//===----------------------------------------------------------------------===
// Search-trajectory pins: exact counters and a hash of the learnt-clause
// log on seeded instances. Any change to propagation, analysis,
// minimization, restarts, clause deletion or the decision order moves at
// least one of these numbers, so a solver change that claims to keep the
// search identical is checked here, and one that does not must update the
// table and say why.
//===----------------------------------------------------------------------===

namespace {

struct Trajectory {
  SolveResult Result;
  uint64_t Conflicts;
  uint64_t Decisions;
  uint64_t Propagations;
  uint64_t LearntClauses;
  uint64_t ProofHash; ///< FNV-1a over the learnt-clause log.
};

bool operator==(const Trajectory &A, const Trajectory &B) {
  return A.Result == B.Result && A.Conflicts == B.Conflicts &&
         A.Decisions == B.Decisions && A.Propagations == B.Propagations &&
         A.LearntClauses == B.LearntClauses && A.ProofHash == B.ProofHash;
}

std::ostream &operator<<(std::ostream &OS, const Trajectory &T) {
  return OS << "{" << (T.Result == SolveResult::Sat ? "Sat" : "Unsat")
            << ", " << T.Conflicts << ", " << T.Decisions << ", "
            << T.Propagations << ", " << T.LearntClauses << ", 0x" << std::hex
            << T.ProofHash << std::dec << "}";
}

/// FNV-1a over every literal code of \p Proof, with a separator word
/// closing each clause.
uint64_t proofHash(const std::vector<ClauseLits> &Proof) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto mix = [&H](uint32_t Word) {
    for (int Byte = 0; Byte < 4; ++Byte) {
      H ^= (Word >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const ClauseLits &C : Proof) {
    for (Lit L : C)
      mix(static_cast<uint32_t>(L.index()));
    mix(0xffffffffu);
  }
  return H;
}

Trajectory solveTrajectory(int NumVars, const std::vector<ClauseLits> &Cnf) {
  Solver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  S.enableProofLogging();
  for (const ClauseLits &C : Cnf)
    S.addClause(C);
  SolveResult R = S.solve();
  const SolverStats &St = S.stats();
  return {R,         St.Conflicts,     St.Decisions,
          St.Propagations, St.LearntClauses, proofHash(S.proof())};
}

std::vector<ClauseLits> random3Sat(unsigned Seed, int NumVars,
                                   int NumClauses) {
  std::mt19937 Rng(Seed);
  std::vector<ClauseLits> Cnf;
  for (int I = 0; I < NumClauses; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    Cnf.push_back(C);
  }
  return Cnf;
}

std::vector<ClauseLits> pigeonhole(int Pigeons, int Holes) {
  std::vector<ClauseLits> Cnf;
  auto VarOf = [&](int Pg, int H) { return Pg * Holes + H; };
  for (int Pg = 0; Pg < Pigeons; ++Pg) {
    ClauseLits Row;
    for (int H = 0; H < Holes; ++H)
      Row.push_back(Lit::pos(VarOf(Pg, H)));
    Cnf.push_back(Row);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Cnf.push_back({Lit::neg(VarOf(P1, H)), Lit::neg(VarOf(P2, H))});
  return Cnf;
}

TEST(SolverTrajectory, Random3SatPinned) {
  // 150 variables at the 3-SAT phase transition (4.26 clauses per
  // variable): 800 to 3,700 conflicts each, both answers represented, and
  // the longer runs pass the first learnt-clause reduction.
  const Trajectory Want[] = {
      {SolveResult::Unsat, 804, 952, 23582, 796, 0xfb49cdfd1e370cddull},
      {SolveResult::Unsat, 1073, 1274, 31529, 1061, 0xba61f8abe3a78d22ull},
      {SolveResult::Unsat, 3240, 3946, 99760, 3231, 0x4a2dae2ec89425bfull},
      {SolveResult::Unsat, 2390, 2840, 78490, 2375, 0xd39c1813183cd21eull},
      {SolveResult::Sat, 1015, 1254, 32344, 1015, 0x4f701e768fc9e0feull},
      {SolveResult::Sat, 1546, 1859, 50832, 1546, 0x543aeb04030d64a4ull},
      {SolveResult::Sat, 3692, 4485, 120555, 3691, 0x00d11829281590fbull},
      {SolveResult::Unsat, 2831, 3378, 95733, 2826, 0x5a8273b416d42355ull},
  };
  bool AnySat = false, AnyUnsat = false;
  for (unsigned Seed = 0; Seed < std::size(Want); ++Seed) {
    Trajectory Got = solveTrajectory(150, random3Sat(Seed + 1, 150, 639));
    EXPECT_EQ(Got, Want[Seed]) << "seed " << Seed;
    AnySat |= Got.Result == SolveResult::Sat;
    AnyUnsat |= Got.Result == SolveResult::Unsat;
  }
  EXPECT_TRUE(AnySat && AnyUnsat);
}

TEST(SolverTrajectory, PigeonholePinned) {
  struct Case {
    int Pigeons, Holes;
    Trajectory Want;
  } Cases[] = {
      {6, 5, {SolveResult::Unsat, 150, 190, 1792, 147, 0x1e4286eda2e4e078ull}},
      {7, 6, {SolveResult::Unsat, 810, 949, 10600, 807, 0x2a01d5695d88845bull}},
      {8, 7, {SolveResult::Unsat, 4414, 5363, 56684, 4409, 0xb7d576febb46bf3cull}},
  };
  for (const Case &C : Cases) {
    Trajectory Got =
        solveTrajectory(C.Pigeons * C.Holes, pigeonhole(C.Pigeons, C.Holes));
    EXPECT_EQ(Got, C.Want) << C.Pigeons << " into " << C.Holes;
  }
}

} // namespace
