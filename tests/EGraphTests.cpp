//===- tests/EGraphTests.cpp - E-graph unit & property tests --------------===//

#include "egraph/Analysis.h"
#include "egraph/EGraph.h"

#include "ir/Eval.h"

#include <gtest/gtest.h>

#include <random>

using namespace denali;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

class EGraphTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  EGraph G{Ctx};

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &Name) {
    return G.addNode(Ctx.Ops.makeVariable(Name), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }
};

TEST_F(EGraphTest, HashconsIdenticalNodes) {
  ClassId A = app(Builtin::Add64, {v("x"), c(1)});
  ClassId B = app(Builtin::Add64, {v("x"), c(1)});
  EXPECT_EQ(G.find(A), G.find(B));
}

TEST_F(EGraphTest, DistinctNodesDistinctClasses) {
  ClassId A = app(Builtin::Add64, {v("x"), c(1)});
  ClassId B = app(Builtin::Add64, {v("x"), c(2)});
  EXPECT_NE(G.find(A), G.find(B));
}

TEST_F(EGraphTest, MergeIsIdempotent) {
  ClassId X = v("x");
  ClassId Y = v("y");
  EXPECT_TRUE(G.assertEqual(X, Y));
  EXPECT_FALSE(G.assertEqual(X, Y));
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, CongruenceUpward) {
  // x = y  ==>  f(x) = f(y).
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  EXPECT_FALSE(G.sameClass(FX, FY));
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, CongruenceTransitiveChain) {
  // a=b, b=c ==> g(f(a)) = g(f(c)).
  ClassId A = v("a"), B = v("b"), C = v("c");
  ClassId GFA = app(Builtin::Not64, {app(Builtin::Neg64, {A})});
  ClassId GFC = app(Builtin::Not64, {app(Builtin::Neg64, {C})});
  G.assertEqual(A, B);
  G.assertEqual(B, C);
  EXPECT_TRUE(G.sameClass(GFA, GFC));
}

TEST_F(EGraphTest, CongruenceMultiArg) {
  ClassId A = v("a"), B = v("b");
  ClassId F1 = app(Builtin::Add64, {A, B});
  ClassId F2 = app(Builtin::Add64, {B, A});
  EXPECT_FALSE(G.sameClass(F1, F2));
  G.assertEqual(A, B);
  EXPECT_TRUE(G.sameClass(F1, F2));
}

TEST_F(EGraphTest, NewNodeJoinsExistingCongruence) {
  // Merge first, then add the congruent node: it must land in the class.
  ClassId X = v("x");
  ClassId Y = v("y");
  G.assertEqual(X, Y);
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, ConstantAnalysisAtInsert) {
  ClassId C5 = c(5);
  auto K = G.classConstant(C5);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 5u);
  EXPECT_FALSE(G.classConstant(v("x")).has_value());
}

TEST_F(EGraphTest, ConstantPropagationOnMerge) {
  ClassId X = v("x");
  G.assertEqual(X, c(7));
  auto K = G.classConstant(X);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
}

TEST_F(EGraphTest, ConstantFolding) {
  ClassId Sum = app(Builtin::Add64, {c(3), c(4)});
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
  EXPECT_TRUE(G.sameClass(Sum, c(7)));
}

TEST_F(EGraphTest, FoldingCascades) {
  // (3 + 4) * 2 folds all the way to 14.
  ClassId T = app(Builtin::Mul64, {app(Builtin::Add64, {c(3), c(4)}), c(2)});
  auto K = G.classConstant(T);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 14u);
}

TEST_F(EGraphTest, FoldingTriggeredByLaterMerge) {
  // x + 4 is not constant until x = 3 arrives.
  ClassId X = v("x");
  ClassId Sum = app(Builtin::Add64, {X, c(4)});
  EXPECT_FALSE(G.classConstant(Sum).has_value());
  G.assertEqual(X, c(3));
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
}

TEST_F(EGraphTest, FoldingMskblToZero) {
  // The byteswap chain relies on mskbl(0, i) folding to 0.
  ClassId T = app(Builtin::Mskbl, {c(0), c(1)});
  auto K = G.classConstant(T);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 0u);
}

TEST_F(EGraphTest, DistinctConstantsAreDistinct) {
  EXPECT_TRUE(G.areDistinct(c(1), c(2)));
  EXPECT_FALSE(G.areDistinct(c(1), c(1)));
}

TEST_F(EGraphTest, ExplicitDistinction) {
  ClassId X = v("x");
  ClassId Y = v("y");
  EXPECT_FALSE(G.areDistinct(X, Y));
  EXPECT_TRUE(G.assertDistinct(X, Y));
  EXPECT_TRUE(G.areDistinct(X, Y));
  EXPECT_FALSE(G.assertDistinct(X, Y)); // Already recorded.
}

TEST_F(EGraphTest, MergingDistinctClassesIsInconsistent) {
  ClassId X = v("x");
  ClassId Y = v("y");
  G.assertDistinct(X, Y);
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.isInconsistent());
}

TEST_F(EGraphTest, DistinctionSurvivesMerges) {
  ClassId X = v("x"), Y = v("y"), Z = v("z");
  G.assertDistinct(X, Y);
  G.assertEqual(Y, Z); // Z joins Y's class.
  EXPECT_TRUE(G.areDistinct(X, Z));
}

TEST_F(EGraphTest, ConstantConflictFlagsInconsistency) {
  G.assertEqual(c(1), c(2));
  EXPECT_TRUE(G.isInconsistent());
  EXPECT_FALSE(G.inconsistencyMessage().empty());
}

//===----------------------------------------------------------------------===
// Clauses: untenable-literal deletion and unit propagation (section 5).
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, ClauseUnitPropagation) {
  // (x = y | 1 = 2): the second literal is untenable, so x = y is asserted.
  ClassId X = v("x");
  ClassId Y = v("y");
  G.addClause({Literal::eq(X, Y), Literal::eq(c(1), c(2))});
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, ClauseSatisfiedIsInert) {
  // (x = x | y = z) is satisfied; y and z must stay separate.
  ClassId X = v("x"), Y = v("y"), Z = v("z");
  G.addClause({Literal::eq(X, X), Literal::eq(Y, Z)});
  EXPECT_FALSE(G.sameClass(Y, Z));
}

TEST_F(EGraphTest, ClauseBecomesUnitLater) {
  // (a = b | x = y); later a != b arrives, forcing x = y.
  ClassId A = v("a"), B = v("b"), X = v("x"), Y = v("y");
  G.addClause({Literal::eq(A, B), Literal::eq(X, Y)});
  EXPECT_FALSE(G.sameClass(X, Y));
  G.assertDistinct(A, B);
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, SelectStoreStyleClause) {
  // The paper's example: p = p+8 is untenable (constant-offset oracle is
  // modeled here by explicit distinctness), so the select-store equality
  // fires and gives load/store reordering freedom.
  ClassId M = v("M");
  ClassId P = v("p");
  ClassId X = v("xval");
  ClassId P8 = app(Builtin::Add64, {P, c(8)});
  ClassId StoreT = app(Builtin::Store, {M, P, X});
  ClassId LoadAfter = app(Builtin::Select, {StoreT, P8});
  ClassId LoadBefore = app(Builtin::Select, {M, P8});
  G.assertDistinct(P, P8);
  G.addClause({Literal::eq(P, P8), Literal::eq(LoadAfter, LoadBefore)});
  EXPECT_TRUE(G.sameClass(LoadAfter, LoadBefore));
}

TEST_F(EGraphTest, NeLiteralAsserted) {
  // (1 = 2 | x != y) forces the distinction.
  ClassId X = v("x"), Y = v("y");
  G.addClause({Literal::eq(c(1), c(2)), Literal::ne(X, Y)});
  EXPECT_TRUE(G.areDistinct(X, Y));
}

TEST_F(EGraphTest, EmptyClauseIsConflict) {
  G.addClause({Literal::eq(c(1), c(2)), Literal::ne(c(3), c(3))});
  EXPECT_TRUE(G.isInconsistent());
}

//===----------------------------------------------------------------------===
// Introspection used by the matcher and encoder.
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, ClassNodesListsAlternatives) {
  ClassId A = app(Builtin::Mul64, {v("x"), c(4)});
  ClassId B = app(Builtin::Shl64, {v("x"), c(2)});
  G.assertEqual(A, B);
  auto Nodes = G.classNodes(A);
  EXPECT_EQ(Nodes.size(), 2u);
}

TEST_F(EGraphTest, NodesWithOpIndex) {
  app(Builtin::Add64, {v("x"), c(1)});
  app(Builtin::Add64, {v("y"), c(2)});
  size_t Count = 0;
  for (ENodeId N : G.nodesWithOp(Ctx.Ops.builtin(Builtin::Add64)))
    if (G.node(N).Alive)
      ++Count;
  EXPECT_EQ(Count, 2u);
}

TEST_F(EGraphTest, VersionAdvancesOnChange) {
  uint64_t V0 = G.version();
  ClassId X = v("x");
  EXPECT_GT(G.version(), V0);
  uint64_t V1 = G.version();
  G.assertEqual(X, c(3));
  EXPECT_GT(G.version(), V1);
  uint64_t V2 = G.version();
  G.assertEqual(X, c(3)); // No-op.
  EXPECT_EQ(G.version(), V2);
}

TEST_F(EGraphTest, ChangeEpochsStampEveryMatchRelevantChange) {
  // Declared (non-builtin) operators, so no constant folding interferes.
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ir::OpId Gop = Ctx.Ops.declareOp("g", 2);
  auto only = [&](ClassId C) { return G.classNodes(C).front(); };
  ClassId X = v("x");
  G.assertEqual(X, v("y")); // {x, y} outweighs a singleton: it stays root.
  ClassId FX = G.addNode(F, {X});
  ClassId W = v("w"), Z = v("z");
  ClassId GW = G.addNode(Gop, {FX, W});
  ClassId FZ = G.addNode(F, {Z});
  ENodeId WNode = only(W), ZNode = only(Z);
  // A chain q <- t1 <- ... <- t4, one level per link.
  ClassId Q = v("q");
  std::vector<ClassId> T{Q};
  for (int I = 0; I < 4; ++I)
    T.push_back(G.addNode(F, {T.back()}));

  const uint32_t E = G.beginMatchPhase();
  for (ClassId C : {FX, GW, FZ, W, Z, Q, T[4]})
    EXPECT_LE(G.memberEpoch(only(C)), E);

  // A constant arriving at a surviving root stamps its parents: a Const
  // pattern position under f(x) may match now.
  G.assertEqual(X, c(7));
  EXPECT_GT(G.nodeEpoch(only(FX)), E);
  // Equal sizes: w's class absorbs z's. The absorbed member's membership
  // and z's re-canonicalized parent are stamped; the root's own member and
  // parent are not.
  G.assertEqual(W, Z);
  EXPECT_GT(G.memberEpoch(ZNode), E);
  EXPECT_LE(G.nodeEpoch(ZNode), E); // As a match root, z is unchanged.
  EXPECT_GT(G.nodeEpoch(only(FZ)), E);
  EXPECT_LE(G.memberEpoch(WNode), E);
  EXPECT_LE(G.memberEpoch(only(GW)), E);
  // Creation stamps.
  ClassId Q2 = v("q2");
  EXPECT_GT(G.nodeEpoch(only(Q2)), E);
  G.assertEqual(Q, Q2);

  const uint32_t E2 = G.beginMatchPhase();
  EXPECT_GT(E2, E);
  EXPECT_LE(G.classChangedWithin(GW, 0), E);
  EXPECT_EQ(G.classChangedWithin(GW, 1), E2); // f(x) and z, one level down.
  // The summary climbs ChangeLevels - 1 levels above the change, no more.
  EXPECT_EQ(G.classChangedWithin(Q, 0), E2);
  EXPECT_LE(G.classChangedWithin(T[3], 2), E);
  EXPECT_EQ(G.classChangedWithin(T[3], 3), E2);
  EXPECT_LE(G.classChangedWithin(T[4], 3), E);
}

TEST_F(EGraphTest, AddTermSharesStructure) {
  ir::TermId T = Ctx.Terms.makeBuiltin(
      Builtin::Add64, {Ctx.Terms.makeBuiltin(
                           Builtin::Mul64, {Ctx.Terms.makeVar("reg6"),
                                            Ctx.Terms.makeConst(4)}),
                       Ctx.Terms.makeConst(1)});
  ClassId C1 = G.addTerm(T);
  ClassId C2 = G.addTerm(T);
  EXPECT_EQ(G.find(C1), G.find(C2));
  EXPECT_EQ(G.numClasses(), 5u); // reg6, 4, 1, (mul), (add).
}

TEST_F(EGraphTest, NumNodesTracksLiveOnly) {
  ClassId X = v("x");
  ClassId Y = v("y");
  size_t Before = G.numNodes();
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  (void)FX;
  (void)FY;
  EXPECT_EQ(G.numNodes(), Before + 2);
  G.assertEqual(X, Y); // neg(x) and neg(y) become congruent; one dies.
  EXPECT_EQ(G.numNodes(), Before + 1);
}

//===----------------------------------------------------------------------===
// Deferred rebuilding: mutations only union and enqueue; congruence,
// constant folding, and clause propagation are restored by an explicit
// rebuild() (egg-style, one per matcher round).
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, DeferredDefersCongruenceUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  // The union itself is immediate; the upward f(x)=f(y) merge lags.
  EXPECT_TRUE(G.sameClass(X, Y));
  EXPECT_FALSE(G.sameClass(FX, FY));
  EXPECT_TRUE(G.rebuildPending());
  G.rebuild();
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(FX, FY));
  EXPECT_GE(G.rebuildStats().CongruenceMerges, 1u);
  EXPECT_GE(G.rebuildStats().Rebuilds, 1u);
}

TEST_F(EGraphTest, DeferredDefersConstantFoldUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId Sum = app(Builtin::Add64, {c(2), c(3)});
  EXPECT_FALSE(G.classConstant(Sum).has_value());
  G.rebuild();
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 5u);
  EXPECT_GE(G.rebuildStats().ConstantFolds, 1u);
}

TEST_F(EGraphTest, DeferredDefersClauseUnitUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  // A unit clause asserts its literal — but only at the next rebuild.
  G.addClause({Literal::eq(X, Y)});
  EXPECT_FALSE(G.sameClass(X, Y));
  G.rebuild();
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, SwitchingToEagerRunsPendingRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.rebuildPending());
  // The graph must always be closed under Eager, so the switch flushes.
  G.setRebuildMode(RebuildMode::Eager);
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, ProvenanceRecordedAcrossDeferredRebuild) {
  G.enableProvenance();
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  G.rebuild();
  ASSERT_TRUE(G.sameClass(FX, FY));
  // The batched repair must stamp the congruence edge just as the eager
  // path does: the f(x)=f(y) chain replays with a Congruence step.
  std::vector<ProofStep> Chain = G.explain(FX, FY);
  ASSERT_FALSE(Chain.empty());
  bool HasCongruence = false;
  for (const ProofStep &S : Chain)
    HasCongruence |= S.J.TheKind == Justification::Kind::Congruence;
  EXPECT_TRUE(HasCongruence);
}

//===----------------------------------------------------------------------===
// Property test: random merge sequences preserve union-find/congruence
// invariants (canonical classes partition live nodes; congruent nodes
// share a class).
//===----------------------------------------------------------------------===

class EGraphRandomized : public ::testing::TestWithParam<unsigned> {};

TEST_P(EGraphRandomized, InvariantsHold) {
  std::mt19937 Rng(GetParam());
  ir::Context Ctx;
  EGraph G(Ctx);
  std::vector<ClassId> Pool;
  for (int I = 0; I < 6; ++I)
    Pool.push_back(
        G.addNode(Ctx.Ops.makeVariable("v" + std::to_string(I)), {}));
  auto RandomClass = [&]() { return Pool[Rng() % Pool.size()]; };
  for (int Step = 0; Step < 120; ++Step) {
    switch (Rng() % 3) {
    case 0: { // New unary node over a random class.
      Pool.push_back(
          G.addNode(Ctx.Ops.builtin(Builtin::Neg64), {RandomClass()}));
      break;
    }
    case 1: { // New binary node.
      Pool.push_back(G.addNode(Ctx.Ops.builtin(Builtin::Add64),
                               {RandomClass(), RandomClass()}));
      break;
    }
    default: { // Merge two classes.
      G.assertEqual(RandomClass(), RandomClass());
      break;
    }
    }
  }
  ASSERT_FALSE(G.isInconsistent());

  // Invariant 1: classNodes of canonical classes partition live nodes.
  size_t Total = 0;
  for (ClassId C : G.canonicalClasses()) {
    auto Nodes = G.classNodes(C);
    Total += Nodes.size();
    for (ENodeId N : Nodes)
      EXPECT_EQ(G.classOf(N), G.find(C));
  }
  EXPECT_EQ(Total, G.numNodes());

  // Invariant 2: congruence — any two live nodes with the same op and
  // pairwise-equal child classes are in the same class.
  std::vector<ENodeId> Live;
  for (ClassId C : G.canonicalClasses())
    for (ENodeId N : G.classNodes(C))
      Live.push_back(N);
  for (size_t I = 0; I < Live.size(); ++I) {
    for (size_t J = I + 1; J < Live.size(); ++J) {
      const ENode &A = G.node(Live[I]);
      const ENode &B = G.node(Live[J]);
      if (A.Op != B.Op || A.Children.size() != B.Children.size() ||
          A.ConstVal != B.ConstVal)
        continue;
      bool SameKids = true;
      for (size_t K = 0; K < A.Children.size(); ++K)
        SameKids &= G.find(A.Children[K]) == G.find(B.Children[K]);
      if (SameKids) {
        EXPECT_EQ(G.classOf(Live[I]), G.classOf(Live[J]))
            << "congruence violated (seed " << GetParam() << ")";
      }
    }
  }
}

TEST_P(EGraphRandomized, HashconsKeysMatchStoredNodes) {
  // Random nodes and merges under deferred rebuilding, then one closing
  // rebuild(): every live node's stored key must own its hashcons entry.
  std::mt19937 Rng(GetParam());
  ir::Context Ctx;
  EGraph G(Ctx);
  G.setRebuildMode(RebuildMode::Deferred);
  std::vector<ir::OpId> Ops;
  std::vector<ClassId> Pool;
  for (int I = 0; I < 6; ++I) {
    Ops.push_back(Ctx.Ops.makeVariable("v" + std::to_string(I)));
    Pool.push_back(G.addNode(Ops.back(), {}));
  }
  const ir::OpId Neg = Ctx.Ops.builtin(Builtin::Neg64);
  const ir::OpId Add = Ctx.Ops.builtin(Builtin::Add64);
  const ir::OpId Store = Ctx.Ops.builtin(Builtin::Store);
  Ops.insert(Ops.end(), {Neg, Add, Store});
  // Every seed retires at least one congruent twin: -v0 and -v1 once
  // v0 = v1.
  G.addNode(Neg, {Pool[0]});
  G.addNode(Neg, {Pool[1]});
  G.assertEqual(Pool[0], Pool[1]);
  auto RandomClass = [&]() { return Pool[Rng() % Pool.size()]; };
  for (int Step = 0; Step < 240; ++Step) {
    switch (Rng() % 5) {
    case 0:
      Pool.push_back(G.addNode(Neg, {RandomClass()}));
      break;
    case 1:
      Pool.push_back(G.addNode(Add, {RandomClass(), RandomClass()}));
      break;
    case 2:
      Pool.push_back(
          G.addNode(Store, {RandomClass(), RandomClass(), RandomClass()}));
      break;
    default:
      G.assertEqual(RandomClass(), RandomClass());
      break;
    }
    if (Step % 60 == 59)
      G.rebuild();
  }
  G.rebuild();
  ASSERT_FALSE(G.isInconsistent());

  const size_t NumNodes = G.numNodes();
  const uint64_t Version = G.version();
  size_t Retired = 0;
  // The op index lists every node ever added, retired twins included.
  for (ir::OpId Op : Ops)
    for (ENodeId N : G.nodesWithOp(Op)) {
      const bool Alive = G.node(N).Alive;
      const std::vector<ClassId> Key = G.node(N).Children;
      std::optional<ENodeId> Found = G.lookupNode(Op, Key);
      ASSERT_TRUE(Found.has_value()) << "no entry for node " << N;
      ASSERT_TRUE(G.node(*Found).Alive) << "retired node " << *Found
                                        << " returned";
      EXPECT_EQ(G.classOf(*Found), G.classOf(N));
      if (Alive) {
        EXPECT_EQ(*Found, N);
        EXPECT_EQ(G.addNode(Op, Key), G.classOf(N));
      } else {
        ++Retired;
      }
    }
  EXPECT_EQ(G.numNodes(), NumNodes);
  EXPECT_EQ(G.version(), Version);
  EXPECT_GT(Retired, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EGraphRandomized,
                         ::testing::Range(0u, 12u));

} // namespace

namespace {

TEST_F(EGraphTest, GraphvizDump) {
  ClassId Mul = app(Builtin::Mul64, {v("reg6"), c(4)});
  G.assertEqual(Mul, app(Builtin::Shl64, {v("reg6"), c(2)}));
  std::string Dot = toGraphviz(G);
  EXPECT_NE(Dot.find("digraph egraph"), std::string::npos);
  EXPECT_NE(Dot.find("mul64"), std::string::npos);
  EXPECT_NE(Dot.find("shl64"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_"), std::string::npos);
  // Both alternatives live in one cluster: they share a class id label.
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

} // namespace
